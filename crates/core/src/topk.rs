//! Top-k extraction (extension): the k best-scoring pairs above a floor.
//!
//! A `top_k` request ([`crate::ExtractRequest::top_k`]) does not extract
//! everything at the floor and truncate. It runs a *bound-pruned* scan: a
//! max-size-k heap keeps the best matches seen so far, and the effective
//! threshold τ ratchets up from `tau_floor` to the k-th best score as the
//! heap fills. The per-metric filter bounds ([`Metric::prefix_len`],
//! [`Metric::length_bounds`]) are re-derived at the ratcheted τ, so windows
//! of too many distinct tokens — and eventually whole document suffixes —
//! are skipped once they cannot beat the current k-th best score. Which
//! token lengths are windows at all stays what [`metric_window_bounds`]
//! says at `tau_floor`, because that is what the thresholded answer
//! enumerates, so that is what the maintained [`WindowWalk`] is started on.
//!
//! Soundness: the heap's k-th best score is always ≤ the true k-th best
//! score, so any pair that belongs in the final top-k scores ≥ the ratcheted
//! τ at the moment its start position is scanned — the thresholded
//! extraction at that τ finds it (the τ-filters admit every pair scoring
//! ≥ τ, and verification is exact). Window starts are visited left to
//! right and each span is generated only at its own start position, so no
//! pair is seen twice. The result is therefore *identical* to "extract all
//! at `tau_floor`, sort by (score desc, span, entity), truncate to k" — the
//! naive oracle kept in the test module — while examining strictly fewer
//! candidates whenever the ratchet rises above the floor.

use crate::backend::{ExtractBackend, ExtractRequest};
use crate::candidates::scan_segment;
use crate::extractor::Aeetes;
use crate::limits::Budget;
use crate::matches::Match;
use crate::scratch::ExtractScratch;
use crate::segment::Segment;
use crate::stage::Stage;
use crate::stats::ExtractStats;
use crate::verify::verify_candidates;
use crate::walk::WindowWalk;
use aeetes_index::metric_window_bounds;
use aeetes_sim::Metric;
use aeetes_text::Document;
use std::cmp::Ordering;

/// The canonical top-k order: score descending, ties by `(span, entity)`
/// ascending. Scores are exact similarity values in (0, 1] — never NaN.
fn best_first(a: &Match, b: &Match) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.sort_key().cmp(&b.sort_key()))
}

/// Heap entry ordered by [`best_first`], so that the heap maximum is the
/// *worst* match kept: the one the canonical order would truncate first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Worst(Match);

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Worst {}
impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        best_first(&self.0, &other.0)
    }
}

/// Sorts `matches` into the canonical top-k order — score descending, ties
/// by `(span, entity)` ascending — and truncates to `k`. This is the exact
/// post-filter the pruned scan is equivalent to; servers use it to apply a
/// `top_k` request field over an already-extracted result.
pub fn select_top_k(matches: &mut Vec<Match>, k: usize) {
    matches.sort_by(best_first);
    matches.truncate(k);
}

/// The `k` highest-scoring `(entity, substring)` pairs of `engine` with
/// `score ≥ tau_floor` under `metric`, plus the work counters of the pruned
/// scan: a `top_k` [`ExtractRequest`] spelled positionally, with an owned
/// result.
///
/// # Panics
/// Panics when `tau_floor` is not in `(0, 1]`.
pub fn extract_top_k_with(engine: &Aeetes, doc: &Document, k: usize, tau_floor: f64, metric: Metric) -> (Vec<Match>, ExtractStats) {
    let req = ExtractRequest { metric: Some(metric), top_k: Some(k), ..ExtractRequest::new(tau_floor) };
    let mut scratch = ExtractScratch::new();
    let out = engine.extract_request(doc, &req, &mut scratch);
    (out.matches.to_vec(), out.stats)
}

/// The pruned scan over one index segment: leaves the `k` best pairs
/// scoring ≥ `tau_floor` in `seg.matches`, in [`select_top_k`] order.
/// `set_bounds` is the window-bounding set-length range, as for
/// [`crate::strategy::generate`]. A spent `budget` stops the scan with the
/// best of what was examined.
#[allow(clippy::too_many_arguments)]
pub(crate) fn top_k_segment(
    segment: Segment<'_>,
    doc: &Document,
    k: usize,
    tau_floor: f64,
    metric: Metric,
    weighted: bool,
    set_bounds: (Option<usize>, Option<usize>),
    seg: &mut ExtractScratch,
    stats: &mut ExtractStats,
    budget: &mut Budget,
) {
    // `matches` holds one position's verified pairs during the scan and the
    // result after it.
    let ExtractScratch { walk, sink, s_keys, pool_keys, hits, heap, matches, stages, .. } = seg;
    matches.clear();
    stages.clear();
    if k == 0 {
        return;
    }
    // Which windows exist is the floor's decision: the thresholded answer at
    // `tau_floor` enumerates token lengths up to the floor's bound, and a
    // window with repeated tokens can be longer than the ratcheted bound
    // yet hold few enough *distinct* tokens to beat the ratcheted τ. So the
    // walk maintains every length of the floor's bounds, whatever τ becomes.
    let (Some(floor), Some(min_set), Some(max_set)) =
        (metric_window_bounds(set_bounds.0, set_bounds.1, tau_floor, metric), set_bounds.0, set_bounds.1)
    else {
        return; // empty dictionary
    };
    let Some(mut walk) = WindowWalk::start(segment.order(), doc, floor, walk, stages) else {
        return;
    };
    heap.clear();

    loop {
        // The ratcheted threshold: once the heap holds k matches, nothing
        // scoring below (or tying above, by sort key) the worst of them can
        // enter — so the worst score is a sound extraction threshold. The
        // comparison stays inclusive (≥) to keep equal-score, smaller-key
        // pairs discoverable.
        let tau_cur = match heap.peek() {
            Some(worst) if heap.len() == k => tau_floor.max(worst.0.score),
            _ => tau_floor,
        };
        // The shortest admissible window only grows as τ rises, so once it
        // no longer fits in the remaining suffix, no later position can
        // produce a match.
        let lmin = metric.length_bounds(min_set, tau_cur, usize::MAX).0;
        if walk.next_longest(lmin).is_none() || !budget.keep_generating(stats.candidates as usize) {
            break;
        }
        // No window of more distinct tokens than this can reach the
        // ratcheted τ against any entity.
        let distinct_max = metric.length_bounds(max_set, tau_cur, usize::MAX).1;
        walk.advance(stats);
        sink.clear();
        for w in walk.windows(lmin) {
            stats.substrings += 1;
            let s_len = w.set.len();
            if s_len > distinct_max {
                break; // the distinct size only grows with the window
            }
            for r in walk.valid(&w.set[..metric.prefix_len(s_len, tau_cur)]) {
                scan_segment(segment, walk.token(r), s_len, tau_cur, metric, true, stats, |origin| {
                    sink.push(w.span, origin);
                });
            }
        }
        walk.lap(Stage::CandidateGen);
        // Verify this position's candidates immediately so the ratchet can
        // rise before the next position is scanned. Weighted scores are ≤
        // unweighted ones, so the unweighted filters at the ratcheted τ
        // stay sound for them.
        verify_candidates(segment, doc, tau_cur, metric, &mut sink.pairs, stats, weighted, budget, s_keys, pool_keys, hits, matches);
        walk.lap(Stage::Verify);
        for &m in matches.iter() {
            if heap.len() < k {
                heap.push(Worst(m));
            } else if let Some(mut worst) = heap.peek_mut() {
                if Worst(m) < *worst {
                    *worst = Worst(m);
                }
            }
        }
    }
    walk.finish(&[Stage::CandidateGen, Stage::Verify]);

    matches.clear();
    matches.extend(heap.drain().map(|w| w.0));
    select_top_k(matches, k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AeetesConfig;
    use crate::strategy::Strategy;
    use aeetes_rules::RuleSet;
    use aeetes_text::{Dictionary, Interner, Tokenizer};

    /// The pruned scan under the engine's configured metric, matches only.
    fn extract_top_k(engine: &Aeetes, doc: &Document, k: usize, tau_floor: f64) -> Vec<Match> {
        extract_top_k_with(engine, doc, k, tau_floor, engine.config().metric).0
    }

    /// The pre-pruning implementation, kept verbatim as the equivalence
    /// oracle: extract everything at the floor, sort, truncate.
    fn naive_top_k(engine: &Aeetes, doc: &Document, k: usize, tau_floor: f64) -> Vec<Match> {
        let mut matches = engine.extract(doc, tau_floor);
        select_top_k(&mut matches, k);
        matches
    }

    fn engine() -> (Aeetes, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("machine learning systems", &tok, &mut int);
        dict.push("learning systems", &tok, &mut int);
        let engine = Aeetes::build(dict, &RuleSet::new(), &int, AeetesConfig::default());
        (engine, int, tok)
    }

    #[test]
    fn returns_at_most_k_best_first() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems conference", &tok, &mut int);
        let top = extract_top_k(&e, &doc, 2, 0.5);
        assert_eq!(top.len(), 2);
        assert!(top[0].score >= top[1].score);
        assert_eq!(top[0].score, 1.0);
    }

    #[test]
    fn k_zero_is_empty() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems", &tok, &mut int);
        assert!(extract_top_k(&e, &doc, 0, 0.5).is_empty());
    }

    #[test]
    fn k_larger_than_matches_returns_all() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("machine learning systems", &tok, &mut int);
        let all = e.extract(&doc, 0.5);
        let top = extract_top_k(&e, &doc, 100, 0.5);
        assert_eq!(top.len(), all.len());
    }

    /// A window longer than the ratcheted bound admits can still beat the
    /// ratcheted τ when it repeats tokens: here "machine systems systems
    /// learning systems" (5 tokens, 3 distinct) scores 1.0 after two weaker
    /// matches have already filled the heap.
    #[test]
    fn pruned_keeps_long_windows_of_repeated_tokens() {
        let (e, mut int, tok) = engine();
        let doc = Document::parse("other machine systems systems learning systems", &tok, &mut int);
        assert_eq!(extract_top_k(&e, &doc, 2, 0.5), naive_top_k(&e, &doc, 2, 0.5));
    }

    #[test]
    fn small_k_examines_fewer_candidates() {
        let (e, mut int, tok) = engine();
        let text = "machine learning systems and other learning systems in machine learning \
                    plus machine learning systems again and yet more learning systems"
            .to_string();
        let doc = Document::parse(&text, &tok, &mut int);
        let (_, full) = e.extract_with(&doc, 0.3, Strategy::Simple);
        let (_, pruned) = extract_top_k_with(&e, &doc, 1, 0.3, Metric::Jaccard);
        assert!(
            pruned.candidates < full.candidates,
            "pruned ({}) should examine fewer candidates than full ({})",
            pruned.candidates,
            full.candidates
        );
    }
}
