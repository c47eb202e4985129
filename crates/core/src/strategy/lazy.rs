//! The `Lazy` strategy: lazy candidate generation (paper §4.2, Algorithm 4).
//!
//! Pass 1 takes its windows from the same maintained [`WindowWalk`] as
//! `Dynamic`, but instead of scanning posting lists per substring it only
//! records, for every *valid* token `t`, which substrings carry `t` in
//! their τ-prefix — the paper's substring inverted index `I[t]` (built from
//! the valid-token sets `Φ` and their deltas `∆φ`; we materialize the
//! aggregated index directly), stored here as rank-indexed pooled vectors
//! instead of a hash map. Pass 2 then scans
//! the posting list of each distinct valid token **once**, pairing every
//! length group with the substrings whose length filter admits it; expiry
//! of substrings whose `hi` bound falls below the group length is driven by
//! a single sort-by-`hi` cursor plus tombstones (compacted amortizedly),
//! not a per-group rescan of the active list. Over a segment with a tail the
//! token's base list and then its tail list are each paired this way, the
//! base's clusters of superseded origins dropped at emit.

use crate::candidates::{admit, CandidateSink};
use crate::limits::Budget;
use crate::scratch::{ExtractScratch, LazyScratch, Pending};
use crate::segment::Segment;
use crate::stage::{SpanClock, Stage};
use crate::stats::ExtractStats;
use crate::walk::WindowWalk;
use aeetes_index::{metric_window_bounds, TokenPostings};
use aeetes_sim::Metric;
use aeetes_text::{Document, EntityId};

#[allow(clippy::too_many_arguments)]
pub(crate) fn generate(
    segment: Segment<'_>,
    doc: &Document,
    tau: f64,
    metric: Metric,
    set_bounds: (Option<usize>, Option<usize>),
    seg: &mut ExtractScratch,
    stats: &mut ExtractStats,
    budget: &mut Budget,
) {
    let Some(bounds) = metric_window_bounds(set_bounds.0, set_bounds.1, tau, metric) else {
        return;
    };
    let ExtractScratch { walk, sink, lazy, stages, .. } = seg;
    let Some(mut walk) = WindowWalk::start(segment.order(), doc, bounds, walk, stages) else {
        return;
    };

    // ---- Pass 1: build the substring inverted index I[t]. ----
    // `inv` is indexed by rank; only the ranks named in `tokens` have
    // non-empty entries, and every entry keeps its capacity across documents.
    if lazy.inv.len() < walk.remap.universe() {
        lazy.inv.resize_with(walk.remap.universe(), Vec::new);
    }
    lazy.tokens.clear();
    // No candidates are produced in this pass, but the deadline (and an
    // already-zero candidate budget) still applies per window advance.
    while walk.next_longest(bounds.min).is_some() && budget.keep_generating(sink.len()) {
        walk.advance(stats);
        for w in walk.windows(bounds.min) {
            stats.substrings += 1;
            let s_len = w.set.len();
            let (lo, hi) = metric.length_bounds(s_len, tau, u32::MAX as usize);
            for r in walk.valid(&w.set[..metric.prefix_len(s_len, tau)]) {
                let list = &mut lazy.inv[r as usize];
                if list.is_empty() {
                    lazy.tokens.push((walk.token(r), r));
                }
                list.push(Pending { span: w.span, lo: lo as u32, hi: hi as u32 });
            }
        }
    }
    walk.finish(&[]);

    // ---- Pass 2: one scan of L[t] per distinct valid token. ----
    // Tokens are processed in id order for determinism. The whole pass is
    // this strategy's candidate generation, timed exactly (once per doc).
    let gen_clk = SpanClock::always();
    lazy.tokens.sort_unstable_by_key(|&(t, _)| t);
    for ti in 0..lazy.tokens.len() {
        let (t, r) = lazy.tokens[ti];
        // Candidates accumulate per scanned token, so this pass re-checks
        // the budget at every token boundary.
        if !budget.keep_generating(sink.len()) {
            break;
        }
        let base = segment.index.postings(t);
        let tail = segment.tail.and_then(|tail| tail.index.postings(t));
        if base.is_none() && tail.is_none() {
            continue;
        }
        let LazyScratch { inv, hi_order, .. } = &mut *lazy;
        let list = &mut inv[r as usize];
        list.sort_unstable_by_key(|pend| pend.lo);
        // Expiry order: pending indices sorted by `hi` once, advanced with
        // a cursor as group lengths grow — no per-group rescan.
        hi_order.clear();
        hi_order.extend(0..list.len() as u32);
        hi_order.sort_unstable_by_key(|&i| list[i as usize].hi);
        if let Some(tp) = base {
            let superseded = |origin| segment.tail.is_some_and(|tail| tail.supersedes(origin));
            pair(tp, r, lazy, tau, metric, sink, stats, |origin| !superseded(origin));
        }
        if let Some(tp) = tail {
            pair(tp, r, lazy, tau, metric, sink, stats, |_| true);
        }
    }
    // Return every touched pool entry (processed or not) to the empty
    // state; capacities are retained for the next document.
    for &(_, r) in lazy.tokens.iter() {
        lazy.inv[r as usize].clear();
    }
    gen_clk.stop(Stage::CandidateGen, stages);
}

/// Pass 2 over one posting list of the token of rank `r`: pairs each group
/// of `tp` with the pending substrings whose length filter admits its length
/// (`lazy.inv[r]`, sorted by `lo`, expiring in `lazy.hi_order`) and sinks
/// every origin of it the prefix admits and `keep` lets through. A length
/// may span several groups (one per lowest position); lengths never fall, so
/// the cursors only advance.
#[allow(clippy::too_many_arguments)]
fn pair(
    tp: TokenPostings<'_>,
    r: u32,
    lazy: &mut LazyScratch,
    tau: f64,
    metric: Metric,
    sink: &mut CandidateSink,
    stats: &mut ExtractStats,
    keep: impl Fn(EntityId) -> bool,
) {
    let LazyScratch { inv, hi_order, expired, active, .. } = lazy;
    let list = &inv[r as usize];
    expired.clear();
    expired.resize(list.len(), false);
    active.clear();
    let mut next = 0usize; // next pending to activate (by lo)
    let mut expire_cursor = 0usize;
    let mut dead = 0usize; // tombstones currently in `active`
    for g in tp.groups() {
        let len = g.len() as u32;
        while next < list.len() && list[next].lo <= len {
            active.push(next as u32);
            next += 1;
        }
        // `hi < len ⇒ lo ≤ hi < len`, so an expiring pending was always
        // activated above (possibly in this very iteration): tombstone
        // it in place.
        while expire_cursor < hi_order.len() {
            let idx = hi_order[expire_cursor] as usize;
            if list[idx].hi >= len {
                break;
            }
            expired[idx] = true;
            dead += 1;
            expire_cursor += 1;
        }
        if active.len() == dead {
            if next >= list.len() {
                break; // nothing left to pair with larger groups
            }
            continue;
        }
        stats.accessed_entries += g.origin_count() as u64;
        admit(g, metric.prefix_len(len as usize, tau), |origin| {
            if keep(origin) {
                for &ai in active.iter() {
                    if !expired[ai as usize] {
                        sink.push(list[ai as usize].span, origin);
                    }
                }
            }
        });
        // Amortized compaction keeps the emission loop O(live) overall.
        if dead > active.len() / 2 {
            active.retain(|&ai| !expired[ai as usize]);
            dead = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::fixture::{run, run_in, setup, sorted};
    use crate::strategy::Strategy;
    use aeetes_text::Span;

    /// Theorem 4.5 (no false negatives): Lazy finds every candidate that the
    /// eager strategies find.
    #[test]
    fn candidate_superset_of_eager_strategies() {
        let (ix, doc) = setup(
            &["purdue university usa", "uq au", "university of wisconsin", "big apple"],
            &[
                ("uq", "university of queensland"),
                ("au", "australia"),
                ("usa", "united states"),
                ("big apple", "new york"),
            ],
            "alumni of purdue university united states met in new york near the university of queensland australia booth with university of wisconsin madison colleagues",
        );
        for tau in [0.7, 0.8, 0.9] {
            let mut st = ExtractStats::default();
            let e = sorted(run(&ix, &doc, tau, Strategy::Skip, &mut st));
            let mut st2 = ExtractStats::default();
            let l = sorted(run(&ix, &doc, tau, Strategy::Lazy, &mut st2));
            for pair in &e {
                assert!(l.contains(pair), "lazy missed {pair:?} at tau={tau}");
            }
        }
    }

    #[test]
    fn accesses_fewer_entries_than_dynamic() {
        // Repetitive document → many substrings share valid tokens, which is
        // exactly where lazy's scan-once pays off.
        let (ix, doc) = setup(
            &["data base systems", "data mining", "system design"],
            &[("data base", "database")],
            "data base systems and data mining and data base design of system design for data base systems again data mining data base",
        );
        let mut st_dyn = ExtractStats::default();
        let mut st_lazy = ExtractStats::default();
        run(&ix, &doc, 0.7, Strategy::Dynamic, &mut st_dyn);
        run(&ix, &doc, 0.7, Strategy::Lazy, &mut st_lazy);
        assert!(
            st_lazy.accessed_entries <= st_dyn.accessed_entries,
            "lazy {} vs dynamic {}",
            st_lazy.accessed_entries,
            st_dyn.accessed_entries
        );
    }

    #[test]
    fn empty_inputs() {
        let (ix, doc) = setup(&["a b"], &[], "");
        let mut stats = ExtractStats::default();
        assert!(run(&ix, &doc, 0.8, Strategy::Lazy, &mut stats).is_empty());
    }

    #[test]
    fn single_token_entities_and_document() {
        let (ix, doc) = setup(&["rust"], &[], "rust");
        let mut stats = ExtractStats::default();
        let pairs = run(&ix, &doc, 1.0, Strategy::Lazy, &mut stats);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, Span::new(0, 1));
    }

    #[test]
    fn pool_reuse_keeps_candidate_order() {
        // Re-running on the same scratch must reproduce the exact discovery
        // order (budget truncation depends on it).
        let (ix, doc) = setup(
            &["data base systems", "data mining", "system design"],
            &[("data base", "database")],
            "data base systems and data mining for system design data base",
        );
        let mut seg = ExtractScratch::default();
        let mut first = Vec::new();
        for round in 0..3 {
            let mut st = ExtractStats::default();
            let pairs = run_in(&mut seg, &ix, &doc, 0.7, Strategy::Lazy, &mut st);
            if round == 0 {
                first = pairs;
                assert!(!first.is_empty());
            } else {
                assert_eq!(pairs, first, "round {round}");
            }
        }
    }
}
