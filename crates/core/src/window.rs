//! Incremental window state over a per-document dense token remap
//! (paper §4.1).
//!
//! [`DenseRemap`] collects a document's distinct global-order keys once,
//! sorts them, and assigns each a dense rank in `0..universe`. Rank order
//! equals global order, so the τ-prefix of a substring is simply its first
//! `k` live ranks. [`WindowState`] then tracks the multiset of ranks under
//! a sliding substring with a flat count array indexed by rank plus an
//! incrementally maintained sorted vector of live ranks — the paper's
//! *Window Extend* (grow the substring by one token) and *Window Migrate*
//! (shift the substring right by one position) both reduce to one
//! [`WindowState::add`] and/or [`WindowState::remove`], each an O(window)
//! vector edit with no per-operation heap allocation.
//!
//! Both structures retain their buffers across documents: after a few
//! documents of warmup every rebuild runs inside previously acquired
//! capacity.

use aeetes_index::VALID_BIT;

/// Per-document dense remap of global-order keys onto ranks `0..universe`.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseRemap {
    /// Sorted distinct keys of the document; the index of a key is its rank.
    ranks: Vec<u32>,
    /// Document position → rank of the token at that position.
    doc_ranks: Vec<u32>,
    /// Keys in position order (build-time staging, kept for capacity reuse).
    key_buf: Vec<u32>,
    /// Ranks below this carry invalid tokens (keys without `VALID_BIT`,
    /// which have no postings and sort before every valid key).
    first_valid: u32,
}

impl DenseRemap {
    /// Rebuilds the remap from the document's global-order key sequence (in
    /// position order). Previously acquired capacity is reused.
    pub(crate) fn build<I: IntoIterator<Item = u32>>(&mut self, keys: I) {
        self.key_buf.clear();
        self.key_buf.extend(keys);
        self.ranks.clear();
        self.ranks.extend_from_slice(&self.key_buf);
        self.ranks.sort_unstable();
        self.ranks.dedup();
        self.first_valid = self.ranks.partition_point(|&k| k & VALID_BIT == 0) as u32;
        self.doc_ranks.clear();
        let ranks = &self.ranks;
        self.doc_ranks
            .extend(self.key_buf.iter().map(|k| ranks.binary_search(k).expect("key was collected above") as u32));
    }

    /// Number of distinct keys (the rank space size).
    pub(crate) fn universe(&self) -> usize {
        self.ranks.len()
    }

    /// Document tokens as ranks, in position order.
    pub(crate) fn doc_ranks(&self) -> &[u32] {
        &self.doc_ranks
    }

    /// The global-order key a rank stands for.
    pub(crate) fn key_of(&self, rank: u32) -> u32 {
        self.ranks[rank as usize]
    }

    /// Whether `rank` carries a valid (indexed) token.
    pub(crate) fn is_valid_rank(&self, rank: u32) -> bool {
        rank >= self.first_valid
    }
}

/// Multiset of dense ranks under one sliding substring, with the live ranks
/// kept sorted so the τ-prefix is a slice.
#[derive(Debug, Clone, Default)]
pub struct WindowState {
    /// rank → multiplicity under the window; length is the remap universe.
    counts: Vec<u32>,
    /// Ranks with multiplicity > 0, sorted ascending. Rank order equals
    /// global order, so `&live[..k]` *is* the τ-prefix.
    live: Vec<u32>,
}

impl WindowState {
    /// Empty state (over an empty universe; call [`WindowState::reset`]
    /// before use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the window and sizes the count array for `universe` ranks.
    pub fn reset(&mut self, universe: usize) {
        self.counts.clear();
        self.counts.resize(universe, 0);
        self.live.clear();
    }

    /// Builds a state over `universe` ranks from an iterator of ranks.
    pub fn from_ranks<I: IntoIterator<Item = u32>>(universe: usize, ranks: I) -> Self {
        let mut s = Self::new();
        s.reset(universe);
        for r in ranks {
            s.add(r);
        }
        s
    }

    /// Becomes a copy of `other`, reusing this state's buffers.
    pub(crate) fn copy_from(&mut self, other: &WindowState) {
        self.counts.clone_from(&other.counts);
        self.live.clone_from(&other.live);
    }

    /// Adds one occurrence of `rank` (Window Extend / the incoming edge of
    /// a Window Migrate).
    pub fn add(&mut self, rank: u32) {
        let c = &mut self.counts[rank as usize];
        if *c == 0 {
            let pos = self.live.partition_point(|&r| r < rank);
            self.live.insert(pos, rank);
        }
        *c += 1;
    }

    /// Removes one occurrence of `rank` (the outgoing edge of a Window
    /// Migrate).
    ///
    /// # Panics
    /// Panics in debug builds when `rank` is not present.
    pub fn remove(&mut self, rank: u32) {
        let c = &mut self.counts[rank as usize];
        if *c == 0 {
            debug_assert!(false, "removing absent rank {rank}");
            return;
        }
        *c -= 1;
        if *c == 0 {
            let pos = self.live.partition_point(|&r| r < rank);
            self.live.remove(pos);
        }
    }

    /// Number of distinct tokens (`|s|` under set semantics).
    pub fn distinct_len(&self) -> usize {
        self.live.len()
    }

    /// The distinct ranks in global order: the first `k` are the τ-prefix
    /// when `k = prefix_len(distinct_len, τ)`.
    pub fn live_ranks(&self) -> &[u32] {
        &self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_round_trip() {
        let mut w = WindowState::new();
        w.reset(8);
        w.add(5);
        w.add(5);
        w.add(3);
        assert_eq!(w.distinct_len(), 2);
        w.remove(5);
        assert_eq!(w.distinct_len(), 2, "one copy of 5 remains");
        w.remove(5);
        assert_eq!(w.distinct_len(), 1);
        assert_eq!(w.live_ranks(), &[3]);
    }

    #[test]
    fn live_ranks_are_sorted() {
        let w = WindowState::from_ranks(10, [9, 1, 7, 3]);
        assert_eq!(w.live_ranks(), &[1, 3, 7, 9]);
    }

    #[test]
    fn migrate_equals_rebuild() {
        // Sliding [a b c] -> [b c d] via remove/add matches a fresh build.
        let ranks = [1u32, 2, 3, 4, 2, 1];
        let l = 3;
        let mut w = WindowState::from_ranks(5, ranks[0..l].iter().copied());
        for p in 1..=ranks.len() - l {
            w.remove(ranks[p - 1]);
            w.add(ranks[p + l - 1]);
            let fresh = WindowState::from_ranks(5, ranks[p..p + l].iter().copied());
            assert_eq!(w.live_ranks(), fresh.live_ranks(), "window at p={p}");
        }
    }

    #[test]
    fn copy_from_reuses_buffers() {
        let src = WindowState::from_ranks(6, [2, 4, 4]);
        let mut dst = WindowState::from_ranks(6, [0, 1, 2, 3]);
        dst.copy_from(&src);
        assert_eq!(dst.live_ranks(), src.live_ranks());
        dst.remove(4);
        assert_eq!(dst.live_ranks(), &[2, 4], "the multiplicities were copied too");
    }

    #[test]
    fn reset_clears_previous_contents() {
        let mut w = WindowState::from_ranks(4, [0, 1, 2]);
        w.reset(6);
        assert_eq!(w.distinct_len(), 0);
        w.add(5);
        assert_eq!(w.live_ranks(), &[5]);
    }

    #[test]
    fn empty_state() {
        let w = WindowState::new();
        assert_eq!(w.distinct_len(), 0);
        assert!(w.live_ranks().is_empty());
    }

    #[test]
    fn remap_assigns_dense_sorted_ranks() {
        let mut r = DenseRemap::default();
        // Two invalid keys (below VALID_BIT) and two valid ones, with repeats.
        let k = |rank: u32| VALID_BIT | rank;
        r.build([k(7), 5, k(3), 9, k(7), 5]);
        assert_eq!(r.universe(), 4);
        // Sorted order: 5, 9 (invalid), then k(3), k(7).
        assert_eq!(r.doc_ranks(), &[3, 0, 2, 1, 3, 0]);
        assert!(!r.is_valid_rank(0));
        assert!(!r.is_valid_rank(1));
        assert!(r.is_valid_rank(2));
        assert!(r.is_valid_rank(3));
        assert_eq!(r.key_of(2), k(3));
        // Rebuild with different content reuses the buffers.
        r.build([k(1), k(1)]);
        assert_eq!(r.universe(), 1);
        assert_eq!(r.doc_ranks(), &[0, 0]);
        assert!(r.is_valid_rank(0));
    }

    #[test]
    fn remap_of_empty_document() {
        let mut r = DenseRemap::default();
        r.build([]);
        assert_eq!(r.universe(), 0);
        assert!(r.doc_ranks().is_empty());
    }
}
