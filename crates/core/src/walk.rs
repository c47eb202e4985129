//! The maintained window walk (paper §4.1, Algorithm 3): the one place that
//! knows how a document's windows are kept up to date.
//!
//! One pooled [`WindowState`] per token length `l ∈ [E⊥, E⊤]` holds the
//! window of that length at the current start position. Position 0 builds
//! them with the *Window Extend* chain (the `E⊥` state, then one more token
//! per length, each state copied from the one before); every later position
//! is one *Window Migrate* per length that still fits (drop `d[p−1]`, take
//! `d[p−1+l]`). A window is then a sorted slice of dense ranks and its
//! τ-prefix the head of that slice: nothing is re-sorted.
//!
//! [`WindowWalk`] takes the global order and the window bounds, never an
//! index. What a window is probed against is the caller's loop body —
//! `Dynamic`'s scan cache, `Lazy`'s pass 1, top-k's ratcheted scan — and a
//! generation's base and tail share their order, hence one walk. The walk
//! owns what the bodies have in common: the remap and its clock,
//! `windows` / `prefix_builds` / `prefix_updates`, the sampled `PrefixBuild`
//! / `PrefixUpdate` laps, the bulk span accounting and `WindowSlide`.
//!
//! ```text
//! while walk.next_longest(lmin).is_some() && budget.keep_generating(..) {
//!     walk.advance(stats);
//!     for w in walk.windows(lmin) { /* probe walk.valid(head of w.set) */ }
//!     walk.lap(Stage::CandidateGen);
//! }
//! walk.finish(&[Stage::CandidateGen]);
//! ```
//! The budget is asked between `next_longest` and `advance` because asking
//! flags truncation, which is only true if a window was there to withhold.

use crate::stage::{SpanClock, Stage, StageSlots};
use crate::stats::ExtractStats;
use crate::window::{DenseRemap, WindowState};
use aeetes_index::{GlobalOrder, WindowBounds};
use aeetes_text::{Document, Span, TokenId};

/// What a walk keeps between documents: the remap's buffers and the
/// window-state pool (one per window length; grown, never shrunk).
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    pub remap: DenseRemap,
    states: Vec<WindowState>,
}

/// One window at the walk's current start position.
pub(crate) struct Window<'w> {
    pub span: Span,
    /// `span.len − bounds.min`, for per-length state kept beside the walk's.
    pub slot: usize,
    /// The distinct tokens as dense ranks, ascending — which is global
    /// order, so `&set[..k]` is the k-prefix.
    pub set: &'w [u32],
}

/// Cursor over the start positions of one document.
pub(crate) struct WindowWalk<'a> {
    order: &'a GlobalOrder,
    /// The document's remap (`universe()` bounds every rank of a window).
    pub remap: &'a DenseRemap,
    /// One state per length that fits in the document.
    states: &'a mut [WindowState],
    stages: &'a mut StageSlots,
    bounds: WindowBounds,
    /// Document length in tokens.
    n: usize,
    /// The next start position, which is how many were advanced to.
    p: usize,
    /// Lengths that still fit at the current position (`states[..live]`).
    live: usize,
    /// The current position's sampled clock.
    clk: SpanClock,
    slide: SpanClock,
}

impl<'a> WindowWalk<'a> {
    /// Remaps `doc` and empties the states. `None`, with nothing recorded,
    /// when the document is shorter than the shortest window.
    pub(crate) fn start(
        order: &'a GlobalOrder,
        doc: &Document,
        bounds: WindowBounds,
        scratch: &'a mut WalkScratch,
        stages: &'a mut StageSlots,
    ) -> Option<Self> {
        let n = doc.len();
        if n < bounds.min {
            return None;
        }
        let WalkScratch { remap, states } = scratch;
        let remap_clk = SpanClock::always();
        let key = order.keyer();
        remap.build(doc.tokens().iter().map(|&t| key(t)));
        remap_clk.stop(Stage::Remap, stages);
        let slots = bounds.max.min(n) - bounds.min + 1;
        if states.len() < slots {
            states.resize_with(slots, WindowState::new);
        }
        let states = &mut states[..slots];
        for st in states.iter_mut() {
            st.reset(remap.universe());
        }
        let (clk, slide) = (SpanClock::sampled(0), SpanClock::always());
        Some(WindowWalk { order, remap, states, stages, bounds, n, p: 0, live: 0, clk, slide })
    }

    /// How many lengths the walk maintains: every [`Window::slot`] is below.
    pub(crate) fn slots(&self) -> usize {
        self.states.len()
    }

    /// The longest window at the next start position, if it holds at least
    /// `lmin` tokens — otherwise no later position's does either.
    pub(crate) fn next_longest(&self, lmin: usize) -> Option<usize> {
        let lmax = self.bounds.max.min(self.n - self.p);
        (lmax >= lmin.max(self.bounds.min)).then_some(lmax)
    }

    /// Moves to the next start position, which [`WindowWalk::next_longest`]
    /// must have announced. Position 0 is always on the sampling grid and
    /// times the extend chain as `PrefixBuild`; later grid positions time
    /// their migrates as `PrefixUpdate`.
    pub(crate) fn advance(&mut self, stats: &mut ExtractStats) {
        let (p, min) = (self.p, self.bounds.min);
        let fit = self.bounds.max.min(self.n - p) - min + 1;
        let ranks = self.remap.doc_ranks();
        stats.windows += 1;
        self.clk = SpanClock::sampled(p);
        if p == 0 {
            for &r in &ranks[..min] {
                self.states[0].add(r);
            }
            stats.prefix_builds += 1;
            for i in 1..fit {
                let (prev, rest) = self.states.split_at_mut(i);
                rest[0].copy_from(&prev[i - 1]);
                rest[0].add(ranks[min + i - 1]);
                stats.prefix_updates += 1;
            }
            self.live = fit;
            self.clk.lap(Stage::PrefixBuild, self.stages);
        } else {
            // Lengths that no longer fit stop being migrated.
            self.live = self.live.min(fit);
            for (i, st) in self.states[..self.live].iter_mut().enumerate() {
                st.remove(ranks[p - 1]);
                st.add(ranks[p - 1 + min + i]);
                stats.prefix_updates += 1;
            }
            self.clk.lap(Stage::PrefixUpdate, self.stages);
        }
        self.p += 1;
    }

    /// The current position's windows of `lmin` tokens and more, shortest
    /// first.
    pub(crate) fn windows(&self, lmin: usize) -> impl Iterator<Item = Window<'_>> {
        let (start, min) = (self.p - 1, self.bounds.min);
        let states = self.states[..self.live].iter().enumerate().skip(lmin.saturating_sub(min));
        states.map(move |(slot, st)| Window { span: Span::new(start, min + slot), slot, set: st.live_ranks() })
    }

    /// The valid ranks among `ranks` (the head of a [`Window::set`]). An
    /// invalid token is in no entity: it holds its place in a prefix but has
    /// no posting list.
    pub(crate) fn valid<'r>(&'r self, ranks: &'r [u32]) -> impl Iterator<Item = u32> + 'r {
        ranks.iter().copied().filter(|&r| self.remap.is_valid_rank(r))
    }

    /// The token a rank stands for.
    pub(crate) fn token(&self, rank: u32) -> TokenId {
        self.order.token_of(self.remap.key_of(rank))
    }

    /// Records the time since this position's previous lap as `stage`, if
    /// the position is on the sampling grid.
    pub(crate) fn lap(&mut self, stage: Stage) {
        self.clk.lap(stage, self.stages);
    }

    /// Ends the walk. Sampled-out laps record nothing, so span totals are
    /// accounted here in bulk: one migrate per position after the first, and
    /// one span of each stage in `lapped` — those the caller laps at every
    /// position.
    pub(crate) fn finish(self, lapped: &[Stage]) {
        let positions = self.p as u64;
        self.stages.account_spans(Stage::PrefixUpdate, positions.saturating_sub(1));
        for &stage in lapped {
            self.stages.account_spans(stage, positions);
        }
        self.slide.stop(Stage::WindowSlide, self.stages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::fixture::index_with;
    use aeetes_index::VALID_BIT;
    use proptest::prelude::*;

    /// Walks `tokens` to the end and checks every position against the
    /// re-sort Simple/Skip compute per substring: the spans, each window's
    /// set and valid tokens, and the counters the walk owns.
    fn check_walk(order: &GlobalOrder, tokens: &[u32], bounds: WindowBounds, scratch: &mut WalkScratch) -> Result<(), TestCaseError> {
        let doc = Document::from_tokens(tokens.iter().map(|&t| TokenId(t)).collect());
        let n = doc.len();
        // The dense remap, computed independently of `DenseRemap`.
        let keys: Vec<u32> = doc.tokens().iter().map(|&t| order.key(t)).collect();
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let ranks: Vec<u32> = keys.iter().map(|k| distinct.binary_search(k).unwrap() as u32).collect();

        let (mut stages, mut stats) = (StageSlots::default(), ExtractStats::default());
        let Some(mut walk) = WindowWalk::start(order, &doc, bounds, scratch, &mut stages) else {
            prop_assert!(n < bounds.min, "a document with a window must start a walk");
            prop_assert_eq!(stages.spans(Stage::Remap), 0);
            return Ok(());
        };
        prop_assert_eq!((walk.remap.universe(), walk.slots()), (distinct.len(), bounds.max.min(n) - bounds.min + 1));
        let mut p = 0;
        while let Some(lmax) = walk.next_longest(bounds.min) {
            prop_assert_eq!(lmax, bounds.max.min(n - p));
            walk.advance(&mut stats);
            let mut l = bounds.min;
            for w in walk.windows(bounds.min) {
                prop_assert_eq!((w.span, w.slot), (Span::new(p, l), l - bounds.min));
                let mut want = ranks[p..p + l].to_vec();
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(w.set, &want[..], "window ({}, {})", p, l);
                let valid: Vec<(u32, TokenId)> = want
                    .iter()
                    .filter(|&&r| distinct[r as usize] & VALID_BIT != 0)
                    .map(|&r| (r, order.token_of(distinct[r as usize])))
                    .collect();
                prop_assert_eq!(walk.valid(w.set).map(|r| (r, walk.token(r))).collect::<Vec<_>>(), valid);
                l += 1;
            }
            prop_assert_eq!(l, lmax + 1, "every length that fits at {}", p);
            prop_assert_eq!(
                walk.windows(bounds.min + 2).map(|w| w.span.len as usize).collect::<Vec<_>>(),
                (bounds.min + 2..=lmax).collect::<Vec<_>>()
            );
            prop_assert!(walk.next_longest(lmax + 1).is_none(), "the next position's longest window is no longer");
            walk.lap(Stage::CandidateGen);
            p += 1;
        }
        walk.finish(&[Stage::CandidateGen]);

        prop_assert_eq!(p, n - bounds.min + 1, "one position per start of a shortest window");
        // One update per substring but the first: length l has n − l + 1.
        let substrings: usize = (bounds.min..=bounds.max.min(n)).map(|l| n - l + 1).sum();
        prop_assert_eq!((stats.windows, stats.prefix_builds, stats.prefix_updates), (p as u64, 1, substrings as u64 - 1));
        prop_assert_eq!((stages.spans(Stage::Remap), stages.spans(Stage::WindowSlide), stages.spans(Stage::PrefixBuild)), (1, 1, 1));
        prop_assert_eq!((stages.spans(Stage::PrefixUpdate), stages.spans(Stage::CandidateGen)), (p as u64 - 1, p as u64));
        Ok(())
    }

    proptest! {
        /// Tokens 0..6 are the dictionary's (valid, ordered by frequency),
        /// 6..12 are in no entity.
        #[test]
        fn walk_yields_the_resorted_windows(tokens in proptest::collection::vec(0u32..12, 0..40), min in 1usize..5, extra in 0usize..7) {
            let (ix, _) = index_with(&["a b c", "b c d", "c d e f", "a f"], &[]);
            let bounds = WindowBounds { min, max: min + extra };
            check_walk(ix.order(), &tokens, bounds, &mut WalkScratch::default())?;
        }
    }

    /// A long document grows the pool; the short one after it uses part of
    /// it and must not see what the long one left behind, nor hide it from
    /// the next long one.
    #[test]
    fn one_scratch_serves_long_short_long() {
        let (ix, _) = index_with(&["a b c", "b c d", "c d e f", "a f"], &[]);
        let long: Vec<u32> = (0..60).map(|i| (i * 7 + i / 5) % 12).collect();
        let short = [3, 9, 3, 1];
        let bounds = WindowBounds { min: 2, max: 9 };
        let mut scratch = WalkScratch::default();
        for tokens in [&long[..], &short[..], &long[..], &[][..], &long[..17]] {
            check_walk(ix.order(), tokens, bounds, &mut scratch).unwrap();
        }
        assert_eq!(scratch.states.len(), 8, "the pool keeps its high-water size");
    }
}
