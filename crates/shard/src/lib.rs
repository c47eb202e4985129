//! The serving engine: one index per dictionary generation, built in
//! parallel parts and updated by deltas without a rebuild.
//!
//! [`ShardedEngine::build`] derives the dictionary in `N` parts side by side
//! — each part a contiguous range of origin ids, derived straight into its
//! index blocks — orders the tokens once by the parts' summed frequencies
//! (the single global order that makes prefix filtering exact), keys and
//! clusters each part in parallel, and concatenates the parts into **one**
//! clustered index. The ranges ascend, so concatenation is the order a
//! single build writes: the index — and the frozen artifact — is the same,
//! byte for byte, for every part count, and equals the monolithic
//! [`aeetes_core::Aeetes`] engine's. Parts exist only while building: an
//! [`aeetes_core::ExtractRequest`] is one window walk over one index, and
//! its answer is *bit-identical* to the monolithic engine's for every
//! request shape — strategy, metric, weighted rules, top-k.
//!
//! A frozen artifact carries the index as one segment, and
//! [`ShardedEngine::from_frozen`] — the one way from an artifact to an
//! engine — adopts it in place or refuses the artifact (one of several
//! segments, written by an earlier partitioned build, is refused with a
//! message to rebuild it).
//!
//! # Generations
//!
//! A fully-built state is an immutable [`Generation`] behind an epoch
//! pointer. [`ShardedEngine::apply_update`] takes a [`DictDelta`]
//! (add/remove entities, add rules), re-derives only the origins it changes
//! into the generation's *tail* — the read-only *base*, built or mapped, is
//! shared with the previous generation until the tail grows as large as it
//! and is compacted in — extends the frozen global order append-only, so the
//! base stays valid, and atomically swaps the pointer. One walk probes both
//! tiers. Readers that already hold a [`Generation`] snapshot keep extracting
//! against the old epoch until they drop it: updates never block or corrupt
//! in-flight extractions.
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
pub use generation::Generation;
