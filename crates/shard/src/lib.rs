//! Sharded extraction engine.
//!
//! [`ShardedEngine`] partitions the derived-entity dictionary into `N`
//! shards by a hash of the origin entity id, builds one clustered index per
//! shard **against a single shared global token order** (so every shard
//! sorts token sets identically — the invariant that makes per-shard prefix
//! filtering equivalent to whole-dictionary prefix filtering), and answers
//! an [`aeetes_core::ExtractRequest`] by running it over every shard —
//! sequentially, or fanned out over the worker pool when the document is
//! large enough — and merging the per-shard match streams into the
//! request's order.
//!
//! Because the entity partition is disjoint, every `(entity, span)` match
//! is produced by exactly one shard; the merged result is *bit-identical*
//! to the monolithic [`aeetes_core::Aeetes`] engine over the same
//! dictionary for every request shape — strategy, metric, weighted rules,
//! top-k — (per-shard variant ids are remapped back to the global
//! derived-id space during the merge).
//!
//! The partition is fixed when the dictionary is built. A frozen artifact
//! carries it as one segment per shard, and [`ShardedEngine::from_frozen`]
//! — the one way from an artifact to an engine — adopts those segments in
//! place or refuses the artifact; it never re-partitions on load.
//!
//! # Generations
//!
//! A fully-built sharded state is an immutable [`Generation`] behind an
//! epoch pointer. [`ShardedEngine::apply_update`] takes a [`DictDelta`]
//! (add/remove entities, add rules), re-derives only the origins it changes
//! into the *tail* of the shard owning each — the shard's read-only *base*,
//! built or mapped, is shared with the previous generation until the tail
//! grows as large as it and is compacted in — extends the frozen global
//! order append-only, so every base stays valid, and atomically swaps the
//! pointer. Readers that
//! already hold a [`Generation`] snapshot keep extracting against the old
//! epoch until they drop it: updates never block or corrupt in-flight
//! extractions.
//!
//! For fleet-wide dictionary swaps the update splits into two phases:
//! [`ShardedEngine::prepare_update`] builds the next generation off to the
//! side and parks it, [`ShardedEngine::activate`] commits it by id. A
//! coordinator prepares a delta on every replica first and only then
//! activates everywhere, so no replica ever serves a generation its peers
//! have not at least finished building.

#![forbid(unsafe_code)]

mod engine;
mod generation;

pub use engine::{ActivateError, DictDelta, RuleDelta, ShardedEngine, UpdateError};
pub use generation::{shard_of, Generation, Shard, ShardStats};
