//! The `Dynamic` strategy: incremental prefix maintenance via the paper's
//! Window Extend and Window Migrate operations (§4.1, Algorithm 3).
//!
//! The windows come from the maintained [`WindowWalk`], their τ-prefixes
//! read off sorted rank slices instead of re-sorted per substring. What
//! `Dynamic` adds is that the posting-list scan of a prefix token is
//! **reused across migrations**: a scan's outcome depends only on `(token,
//! |s|, τ)`, so tokens that stay in the prefix (and a distinct-size that
//! stays put) keep their cached candidate origins, and only tokens that
//! *enter* the prefix are scanned. This is what drops the accessed-entry
//! count below `Skip` in the paper's Figure 11. Scan results live in a
//! per-document arena; cache values are ranges into it, so a cache hit
//! copies nothing and a miss allocates nothing once the arena has reached
//! its high-water capacity.

use crate::candidates::scan_segment;
use crate::limits::Budget;
use crate::scratch::{DynScratch, ExtractScratch};
use crate::segment::Segment;
use crate::stage::Stage;
use crate::stats::ExtractStats;
use crate::walk::WindowWalk;
use aeetes_index::metric_window_bounds;
use aeetes_sim::Metric;
use aeetes_text::Document;

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
    let ExtractScratch { walk, sink, dynamic, stages, .. } = seg;
    let Some(mut walk) = WindowWalk::start(segment.order(), doc, bounds, walk, stages) else {
        return;
    };
    // caches[slot] serves the windows of one token length, like the walk's
    // state of that slot (the pool itself is never truncated).
    let DynScratch { caches, arena, seen } = dynamic;
    if caches.len() < walk.slots() {
        caches.resize_with(walk.slots(), Default::default);
    }
    caches.iter_mut().for_each(|cache| cache.clear());
    arena.clear();

    // A spent budget degrades to the candidates found so far.
    while walk.next_longest(bounds.min).is_some() && budget.keep_generating(sink.len()) {
        walk.advance(stats);
        for w in walk.windows(bounds.min) {
            stats.substrings += 1;
            let s_len = w.set.len();
            let prefix = &w.set[..metric.prefix_len(s_len, tau)];
            let cache = &mut caches[w.slot];
            // Drop cache entries for ranks that left the prefix (entries
            // for other distinct sizes of current ranks are kept warm).
            cache.retain(|&(r, _), _| prefix.binary_search(&r).is_ok());
            for r in walk.valid(prefix) {
                let (from, to) = *cache.entry((r, s_len as u32)).or_insert_with(|| {
                    // A miss: an origin can pass in several length groups
                    // and is stored once.
                    let from = arena.len() as u32;
                    seen.clear();
                    scan_segment(segment, walk.token(r), s_len, tau, metric, true, stats, |origin| {
                        if seen.insert(origin) {
                            arena.push(origin);
                        }
                    });
                    (from, arena.len() as u32)
                });
                for &origin in &arena[from as usize..to as usize] {
                    sink.push(w.span, origin);
                }
            }
        }
        walk.lap(Stage::CandidateGen);
    }
    walk.finish(&[Stage::CandidateGen]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::scan;
    use crate::strategy::fixture::{index_with, run, run_in, setup, sorted};
    use crate::strategy::Strategy;
    use aeetes_text::{Span, Tokenizer};

    #[test]
    fn agrees_with_naive_on_mixed_document() {
        let (ix, doc) = setup(
            &["purdue university usa", "uq au", "university of wisconsin"],
            &[("uq", "university of queensland"), ("au", "australia"), ("usa", "united states")],
            "pc members include purdue university united states and the university of queensland australia plus university of wisconsin madison folks",
        );
        let mut seg = ExtractScratch::default();
        for tau in [0.7, 0.8, 0.9] {
            let mut st = ExtractStats::default();
            let eager = run(&ix, &doc, tau, Strategy::Skip, &mut st);
            let mut st2 = ExtractStats::default();
            let dynamic = run_in(&mut seg, &ix, &doc, tau, Strategy::Dynamic, &mut st2);
            assert_eq!(sorted(eager), sorted(dynamic), "tau={tau}");
        }
    }

    #[test]
    fn accesses_fewer_entries_than_skip() {
        // A repetitive document keeps tokens in the prefix across many
        // migrations, which is exactly what the scan cache exploits.
        let (ix, doc) = setup(
            &["data base systems", "data mining", "system design"],
            &[("data base", "database")],
            "data base systems and data mining and data base design of system design for data base systems again data mining data base",
        );
        let mut st_skip = ExtractStats::default();
        let mut st_dyn = ExtractStats::default();
        let skip = run(&ix, &doc, 0.7, Strategy::Skip, &mut st_skip);
        let mut seg = ExtractScratch::default();
        let dynamic = run_in(&mut seg, &ix, &doc, 0.7, Strategy::Dynamic, &mut st_dyn);
        assert_eq!(sorted(skip), sorted(dynamic));
        assert!(
            st_dyn.accessed_entries < st_skip.accessed_entries,
            "dynamic {} vs skip {}",
            st_dyn.accessed_entries,
            st_skip.accessed_entries
        );
    }

    /// An origin can pass the scan in several length groups of one token
    /// (two of its variants hold the token, at different set lengths): the
    /// miss that caches the scan keeps it once.
    #[test]
    fn a_cache_miss_stores_no_origin_twice() {
        let (ix, doc) = setup(
            &["uq au", "purdue au"],
            &[("uq", "university of queensland"), ("purdue", "purdue university")],
            "the university of queensland au campus and the purdue university au campus",
        );
        let mut repeats = 0;
        for tau in [0.3, 0.5, 0.7] {
            let mut seg = ExtractScratch::default();
            run_in(&mut seg, &ix, &doc, tau, Strategy::Dynamic, &mut ExtractStats::default());
            // The scans still cached when the walk ended.
            for (&(r, s_len), &(from, to)) in seg.dynamic.caches.iter().flatten() {
                let stored = &seg.dynamic.arena[from as usize..to as usize];
                let distinct: std::collections::BTreeSet<_> = stored.iter().collect();
                assert_eq!(distinct.len(), stored.len(), "rank {r} |s|={s_len} tau={tau}: {stored:?}");
                let t = ix.order().token_of(seg.walk.remap.key_of(r));
                let mut emitted = 0;
                scan(&ix, t, s_len as usize, tau, Metric::Jaccard, true, &mut ExtractStats::default(), |_| emitted += 1);
                assert!(emitted >= stored.len());
                repeats += emitted - stored.len();
            }
        }
        assert!(repeats > 0, "the fixture must make a scan emit an origin twice");
    }

    #[test]
    fn uses_incremental_updates_not_rebuilds() {
        let (ix, doc) = setup(&["a b c"], &[], "a b c d e f g h i j");
        let mut seg = ExtractScratch::default();
        let mut stats = ExtractStats::default();
        run_in(&mut seg, &ix, &doc, 0.8, Strategy::Dynamic, &mut stats);
        assert_eq!(stats.prefix_builds, 1, "only the very first state is built");
        assert!(stats.prefix_updates > 0);
    }

    #[test]
    fn short_document_tail_lengths_dropped() {
        // Document shorter than E⊤ forces live-length shrink near the end.
        let (ix, doc) = setup(&["a b c d e"], &[], "a b c d e f");
        let mut seg = ExtractScratch::default();
        let mut stats = ExtractStats::default();
        let pairs = run_in(&mut seg, &ix, &doc, 0.7, Strategy::Dynamic, &mut stats);
        // must not panic, and still finds the full-entity match
        assert!(pairs.iter().any(|(sp, _)| *sp == Span::new(0, 5)));
    }

    #[test]
    fn document_shorter_than_min_window() {
        let (ix, doc) = setup(&["a b c d e f g h i j"], &[], "a b");
        let mut seg = ExtractScratch::default();
        let mut stats = ExtractStats::default();
        let pairs = run_in(&mut seg, &ix, &doc, 0.9, Strategy::Dynamic, &mut stats);
        assert!(pairs.is_empty());
        assert_eq!(stats.windows, 0);
    }

    #[test]
    fn repeated_tokens_migrate_correctly() {
        let (ix, doc) = setup(&["ny ny"], &[], "ny ny ny ny ny");
        let mut st = ExtractStats::default();
        let skip = run(&ix, &doc, 0.8, Strategy::Skip, &mut st);
        let mut seg = ExtractScratch::default();
        let mut st2 = ExtractStats::default();
        let dynamic = run_in(&mut seg, &ix, &doc, 0.8, Strategy::Dynamic, &mut st2);
        assert_eq!(sorted(skip), sorted(dynamic));
    }

    #[test]
    fn scratch_reuse_across_documents_is_bit_identical() {
        // The same scratch must give the same candidates as a fresh one,
        // document after document, including after a larger doc grew it.
        let (ix, mut int) = index_with(&["data base systems", "data mining", "system design"], &[("data base", "database")]);
        let tok = Tokenizer::default();
        let big = Document::parse(
            "data base systems and data mining and data base design of system design for data base systems again data mining data base",
            &tok,
            &mut int,
        );
        let small = Document::parse("data mining of system design", &tok, &mut int);
        let mut reused = ExtractScratch::default();
        for doc in [&big, &small, &big, &small] {
            let mut st = ExtractStats::default();
            let with_reuse = run_in(&mut reused, &ix, doc, 0.7, Strategy::Dynamic, &mut st);
            let mut fresh = ExtractScratch::default();
            let mut st2 = ExtractStats::default();
            let baseline = run_in(&mut fresh, &ix, doc, 0.7, Strategy::Dynamic, &mut st2);
            assert_eq!(with_reuse, baseline, "discovery order must survive scratch reuse");
            assert_eq!(st.accessed_entries, st2.accessed_entries, "work counters must survive scratch reuse");
        }
    }
}
