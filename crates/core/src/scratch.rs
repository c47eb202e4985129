//! Reusable extraction scratch: every buffer the generate → verify hot
//! path needs, retained across documents.
//!
//! One [`ExtractScratch`] per worker thread makes steady-state extraction
//! allocation-free: all vectors and hash tables are `clear()`ed (keeping
//! capacity) rather than dropped, window states are pooled per candidate
//! length and migrated in place, and the per-document [`DenseRemap`] reuses
//! its staging buffers. After a few documents of warmup every run fits in
//! previously acquired capacity — the property asserted by the
//! counting-allocator test `zero_alloc.rs`, top-k requests included.
//!
//! Invariants callers rely on:
//! - A scratch may be reused across engines, strategies, taus and metrics;
//!   nothing semantic persists between runs, only capacity.
//! - The [`ScratchOutcome`] returned by a scratched extraction borrows the
//!   scratch-resident match buffer; it is valid until the scratch is used
//!   again.
//! - A scratch is not `Sync`: share one per thread, never across threads.

use crate::candidates::CandidateSink;
use crate::limits::ExtractOutcome;
use crate::matches::Match;
use crate::stage::StageSlots;
use crate::stats::ExtractStats;
use crate::topk::Worst;
use crate::walk::WalkScratch;
use aeetes_text::{EntityId, Span, TokenId};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One substring that carries a given valid token in its prefix, with its
/// precomputed admissible entity-length interval `[lo, hi]` (Lazy pass 1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub span: Span,
    pub lo: u32,
    pub hi: u32,
}

/// Scratch of the `Dynamic` strategy's scan cache.
#[derive(Debug, Default)]
pub(crate) struct DynScratch {
    /// Per window-length cache: `(prefix rank, distinct size)` → range of
    /// `arena` holding that scan's candidate origins.
    pub caches: Vec<HashMap<(u32, u32), (u32, u32)>>,
    /// Scan results, appended per cache miss, cleared per document.
    pub arena: Vec<EntityId>,
    /// Scan-local origin dedup set.
    pub seen: HashSet<EntityId>,
}

/// Scratch of the `Lazy` strategy's two passes.
#[derive(Debug, Default)]
pub(crate) struct LazyScratch {
    /// rank → substrings carrying that token in their prefix (the paper's
    /// substring inverted index `I[t]`, rank-indexed and pooled: entries
    /// keep their capacity across documents).
    pub inv: Vec<Vec<Pending>>,
    /// `(token, rank)` of every rank with a nonempty `inv` entry: pushed in
    /// discovery order, then sorted by token id (pass 2 processes tokens in
    /// id order for determinism).
    pub tokens: Vec<(TokenId, u32)>,
    /// Pass-2 per-token machinery: pending indices sorted by `hi` (expiry
    /// order), expiry tombstones, and the active list.
    pub hi_order: Vec<u32>,
    pub expired: Vec<bool>,
    pub active: Vec<u32>,
}

/// Per-worker extraction scratch: every buffer one generate → verify pass
/// needs, kept between documents.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    /// The document remap (every strategy) and the maintained window
    /// states (all but Simple/Skip).
    pub(crate) walk: WalkScratch,
    pub(crate) sink: CandidateSink,
    pub(crate) dynamic: DynScratch,
    pub(crate) lazy: LazyScratch,
    /// Naive per-substring sorted-rank buffer.
    pub(crate) buf: Vec<u32>,
    /// Verification: sorted distinct key set of the current span.
    pub(crate) s_keys: Vec<u32>,
    /// Verification: the current candidate's pool keys, where its index
    /// stores them at 16 bits.
    pub(crate) pool_keys: Vec<u32>,
    /// Verification: which keys of the current candidate's pool the span
    /// holds, as masks over the pool.
    pub(crate) hits: Vec<u32>,
    /// Top-k: the best matches so far, worst on top; empty between runs.
    pub(crate) heap: BinaryHeap<Worst>,
    /// Sorted matches of the most recent run.
    pub(crate) matches: Vec<Match>,
    /// Per-stage timing slots of the most recent run: scratch-resident so
    /// recording stays allocation-free.
    pub(crate) stages: StageSlots,
}

impl ExtractScratch {
    /// Empty scratch; buffers grow to their high-water mark on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Matches of the most recent extraction into this scratch, sorted by
    /// `(span, entity)` (a `top_k` request: by score, best first).
    pub fn matches(&self) -> &[Match] {
        &self.matches
    }

    /// The same matches, for a caller that rewrites their variant ids in
    /// place.
    pub fn matches_mut(&mut self) -> &mut [Match] {
        &mut self.matches
    }

    /// Stage timing slots of the most recent extraction into this scratch.
    pub fn stages(&self) -> &StageSlots {
        &self.stages
    }
}

/// A borrowed extraction outcome: the scratched counterpart of
/// [`ExtractOutcome`], viewing the scratch-resident match buffer instead of
/// owning a fresh allocation. Valid until the scratch is used again.
#[derive(Debug)]
pub struct ScratchOutcome<'a> {
    /// Matches sorted by `(span, entity)` (a `top_k` request: by score,
    /// best first); a sound (exact, verified) part of the full result when
    /// `truncated` is set.
    pub matches: &'a [Match],
    /// Whether any budget cut the run short.
    pub truncated: bool,
    /// Work counters for the (possibly partial) run.
    pub stats: ExtractStats,
    /// Per-stage timing slots.
    pub stages: StageSlots,
}

impl ScratchOutcome<'_> {
    /// Copies into an owned [`ExtractOutcome`].
    pub fn to_outcome(&self) -> ExtractOutcome {
        ExtractOutcome {
            matches: self.matches.to_vec(),
            truncated: self.truncated,
            stats: self.stats,
            stages: self.stages,
        }
    }
}
