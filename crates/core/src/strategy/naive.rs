//! The `Simple` and `Skip` strategies: per-substring prefix computation
//! from scratch (paper §4, "straightforward solution") — the straw man of
//! Fig. 10, kept apart from the maintained `walk.rs` on purpose (DESIGN §5).

use crate::candidates::scan_segment;
use crate::limits::Budget;
use crate::scratch::ExtractScratch;
use crate::segment::Segment;
use crate::stage::{SpanClock, Stage};
use crate::stats::ExtractStats;
use aeetes_index::metric_window_bounds;
use aeetes_sim::Metric;
use aeetes_text::{Document, Span};

/// Enumerates every substring `W_p^l`, sorts its tokens by the global order
/// (as dense ranks, which sort identically) to obtain the τ-prefix, and
/// scans the posting list of each valid prefix token. `clustered` toggles
/// the batch-skipping scan (the `Skip` strategy) versus the full scan
/// (`Simple`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate(
    segment: Segment<'_>,
    doc: &Document,
    tau: f64,
    metric: Metric,
    set_bounds: (Option<usize>, Option<usize>),
    clustered: bool,
    seg: &mut ExtractScratch,
    stats: &mut ExtractStats,
    budget: &mut Budget,
) {
    let Some(bounds) = metric_window_bounds(set_bounds.0, set_bounds.1, tau, metric) else {
        return;
    };
    let order = segment.order();
    let n = doc.len();
    let ExtractScratch { walk, sink, buf, stages, .. } = seg;
    let remap = &mut walk.remap;
    let remap_clk = SpanClock::always();
    let key = order.keyer();
    remap.build(doc.tokens().iter().map(|&t| key(t)));
    let ranks = remap.doc_ranks();
    remap_clk.stop(Stage::Remap, stages);
    let slide_clk = SpanClock::always();
    let substrings_before = stats.substrings;
    for p in 0..n {
        let lmax = bounds.max.min(n - p);
        if bounds.min > lmax {
            break; // remaining windows are too short for any entity
        }
        if !budget.keep_generating(sink.len()) {
            break; // budget spent: degrade to the candidates found so far
        }
        stats.windows += 1;
        // One position in SAMPLE_MASK + 1 gets its substrings timed.
        let mut clk = SpanClock::sampled(p);
        for l in bounds.min..=lmax {
            stats.substrings += 1;
            stats.prefix_builds += 1;
            buf.clear();
            buf.extend_from_slice(&ranks[p..p + l]);
            buf.sort_unstable();
            buf.dedup();
            let s_len = buf.len();
            let k = metric.prefix_len(s_len, tau);
            let span = Span::new(p, l);
            clk.lap(Stage::PrefixBuild, stages);
            for &r in &buf[..k] {
                if !remap.is_valid_rank(r) {
                    continue; // invalid token: empty posting list
                }
                let t = order.token_of(remap.key_of(r));
                scan_segment(segment, t, s_len, tau, metric, clustered, stats, |origin| {
                    sink.push(span, origin);
                });
            }
            clk.lap(Stage::CandidateGen, stages);
        }
    }
    // Sampled-out laps above record nothing; both sub-stages saw one span
    // per substring, accounted here in bulk.
    let substrings = stats.substrings - substrings_before;
    stages.account_spans(Stage::PrefixBuild, substrings);
    stages.account_spans(Stage::CandidateGen, substrings);
    slide_clk.stop(Stage::WindowSlide, stages);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::fixture::{run, setup, sorted};
    use crate::strategy::Strategy;

    #[test]
    fn finds_exact_mention() {
        let (ix, doc) = setup(&["purdue university"], &[], "i visited purdue university yesterday");
        let mut stats = ExtractStats::default();
        let pairs = run(&ix, &doc, 0.9, Strategy::Simple, &mut stats);
        assert!(pairs.iter().any(|(sp, _)| *sp == Span::new(2, 2)));
    }

    #[test]
    fn simple_accesses_at_least_as_many_entries_as_skip() {
        let (ix, doc) = setup(&["a b", "a c d", "a e f g", "h i", "a"], &[], "a b c a e f g h i a a b");
        let mut st1 = ExtractStats::default();
        let mut st2 = ExtractStats::default();
        let a = run(&ix, &doc, 0.7, Strategy::Simple, &mut st1);
        let b = run(&ix, &doc, 0.7, Strategy::Skip, &mut st2);
        assert!(st1.accessed_entries >= st2.accessed_entries);
        assert_eq!(sorted(a), sorted(b), "same candidates either way");
    }

    #[test]
    fn empty_doc_and_empty_dict() {
        let (ix, doc) = setup(&["a b"], &[], "");
        let mut stats = ExtractStats::default();
        assert!(run(&ix, &doc, 0.8, Strategy::Skip, &mut stats).is_empty());
        let (ix2, doc2) = setup(&[], &[], "some words here");
        assert!(run(&ix2, &doc2, 0.8, Strategy::Skip, &mut stats).is_empty());
    }

    #[test]
    fn substring_count_matches_window_arithmetic() {
        let (ix, doc) = setup(&["x y"], &[], "one two three four five");
        // entity distinct len 2, τ=0.8 → E⊥=1, E⊤=3; n=5.
        let mut stats = ExtractStats::default();
        run(&ix, &doc, 0.8, Strategy::Skip, &mut stats);
        // p=0..4: lmax = min(3, 5-p) → 3,3,3,2,1 → substrings 3+3+3+2+1 = 12.
        assert_eq!(stats.windows, 5);
        assert_eq!(stats.substrings, 12);
        assert_eq!(stats.prefix_builds, 12);
    }
}
