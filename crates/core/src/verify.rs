//! Exact JaccAR verification of candidate pairs (paper Algorithm 1, lines
//! 6–9).

use crate::limits::Budget;
use crate::matches::Match;
use crate::stats::ExtractStats;
use aeetes_index::ClusteredIndex;
use aeetes_rules::{DerivedId, VariantTable};
use aeetes_sim::Metric;
use aeetes_text::{Document, EntityId, Span};

/// Intersection size of two sorted distinct key slices, aborting as
/// soon as the remaining elements cannot reach `required` overlaps.
/// Returns `None` on abort (the overlap is `< required`).
fn intersect_keys_at_least(a: &[u32], b: &[u32], required: usize) -> Option<usize> {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        if n + (a.len() - i).min(b.len() - j) < required {
            return None;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (n >= required).then_some(n)
}

/// Whether two short sorted slices share an element (prefix-filter check).
fn prefixes_overlap(a: &[u32], b: &[u32]) -> bool {
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Verifies each candidate pair into `out` (cleared first): the matches
/// with `JaccAR ≥ τ` (or weighted JaccAR when `weighted` is set), sorted by
/// `(span, entity)` because `pairs` is sorted in place first. The budget is
/// consulted between candidates: an exhausted deadline or match cap stops
/// verification with the (exact, verified) matches found so far. `s_keys`
/// is span-local scratch; both buffers retain capacity across calls.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidates(
    index: &ClusteredIndex,
    dd: &VariantTable,
    doc: &Document,
    tau: f64,
    metric: Metric,
    pairs: &mut [(Span, EntityId)],
    stats: &mut ExtractStats,
    weighted: bool,
    budget: &mut Budget,
    s_keys: &mut Vec<u32>,
    out: &mut Vec<Match>,
) {
    out.clear();
    // Group by span so the substring key set — and the length bounds that
    // depend only on it — are built once per span.
    pairs.sort_unstable_by_key(|(sp, e)| (sp.start, sp.len, e.0));
    let order = index.order();
    let mut s_prefix = 0usize;
    let mut lo = 0usize;
    let mut hi = 0usize;
    let mut cur: Option<Span> = None;
    for &(span, e) in pairs.iter() {
        if !budget.keep_verifying(out.len()) {
            break;
        }
        if cur != Some(span) {
            s_keys.clear();
            s_keys.extend(doc.slice(span).iter().map(|&t| order.key(t)));
            s_keys.sort_unstable();
            s_keys.dedup();
            s_prefix = metric.prefix_len(s_keys.len(), tau);
            (lo, hi) = metric.length_bounds(s_keys.len(), tau, usize::MAX);
            cur = Some(span);
        }
        stats.candidates += 1;
        let mut best_score = 0.0f64;
        let mut best_variant: Option<DerivedId> = None;
        // Variants are pre-sorted by set length: binary-search to the first
        // admitted length, stop at the first beyond it (§8 future-work (i)).
        let variants = index.variants_sorted(e);
        let start = variants.partition_point(|&id| index.set_len(id) < lo);
        for &id in &variants[start..] {
            let set = index.derived_set(id);
            if set.len() > hi {
                break;
            }
            // Per-variant prefix filter (Lemma 3.1): a variant similar to
            // the substring must share a token inside both τ-prefixes.
            let v_prefix = metric.prefix_len(set.len(), tau);
            if !prefixes_overlap(&set[..v_prefix], &s_keys[..s_prefix]) {
                continue;
            }
            stats.verifications += 1;
            // Only variants that can reach τ matter for the output; the
            // merge aborts once the required overlap is unreachable.
            let required = metric.required_overlap(set.len(), s_keys.len(), tau);
            let Some(inter) = intersect_keys_at_least(set, s_keys, required) else {
                continue;
            };
            let mut score = metric.score(set.len(), s_keys.len(), inter);
            if weighted {
                score *= dd.weight_of(id);
            }
            if score > best_score {
                best_score = score;
                best_variant = Some(id);
                if score >= 1.0 {
                    break;
                }
            }
        }
        if best_score >= tau {
            if let Some(best_variant) = best_variant {
                stats.matches += 1;
                out.push(Match { entity: e, span, score: best_score, best_variant });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet};
    use aeetes_text::{Dictionary, Interner, Tokenizer};

    struct Fix {
        int: Interner,
        tok: Tokenizer,
        dict: Dictionary,
        rules: RuleSet,
    }

    impl Fix {
        fn new() -> Self {
            Self {
                int: Interner::new(),
                tok: Tokenizer::default(),
                dict: Dictionary::new(),
                rules: RuleSet::new(),
            }
        }
        fn built(&self) -> (DerivedDictionary, ClusteredIndex) {
            let dd = DerivedDictionary::build(&self.dict, &self.rules, &DeriveConfig::default());
            let ix = ClusteredIndex::build(&dd, &self.int);
            (dd, ix)
        }
    }

    /// Owned-result wrapper over the buffer-reusing signature.
    #[allow(clippy::too_many_arguments)]
    fn run_verify(
        index: &ClusteredIndex,
        dd: &DerivedDictionary,
        doc: &Document,
        tau: f64,
        metric: Metric,
        mut pairs: Vec<(Span, EntityId)>,
        stats: &mut ExtractStats,
        weighted: bool,
        budget: &mut Budget,
    ) -> Vec<Match> {
        let mut s_keys = Vec::new();
        let mut out = Vec::new();
        verify_candidates(index, dd, doc, tau, metric, &mut pairs, stats, weighted, budget, &mut s_keys, &mut out);
        out
    }

    #[test]
    fn intersect_keys_at_least_basics() {
        assert_eq!(intersect_keys_at_least(&[1, 3, 5], &[2, 3, 5, 7], 1), Some(2));
        assert_eq!(intersect_keys_at_least(&[1, 3, 5], &[2, 3, 5, 7], 2), Some(2));
        assert_eq!(intersect_keys_at_least(&[1, 3, 5], &[2, 3, 5, 7], 3), None, "only 2 overlaps exist");
        assert_eq!(intersect_keys_at_least(&[], &[1], 1), None);
        assert_eq!(intersect_keys_at_least(&[4], &[4], 1), Some(1));
        assert_eq!(intersect_keys_at_least(&[1, 9], &[2, 8], 1), None, "aborts with zero overlap");
    }

    #[test]
    fn required_overlap_matches_formula() {
        // τ=0.8, |a|=|b|=5 → o ≥ ⌈0.8·10/1.8⌉ = ⌈4.44⌉ = 5.
        assert_eq!(Metric::Jaccard.required_overlap(5, 5, 0.8), 5);
        // τ=0.7, 3+4 → ⌈0.7·7/1.7⌉ = ⌈2.88⌉ = 3.
        assert_eq!(Metric::Jaccard.required_overlap(3, 4, 0.7), 3);
        assert_eq!(Metric::Jaccard.required_overlap(1, 1, 1.0), 1);
    }

    #[test]
    fn prefixes_overlap_basics() {
        assert!(prefixes_overlap(&[1, 5], &[5, 9]));
        assert!(!prefixes_overlap(&[1, 5], &[2, 9]));
        assert!(!prefixes_overlap(&[], &[1]));
    }

    #[test]
    fn verifies_true_match_and_rejects_false() {
        let mut f = Fix::new();
        let e = f.dict.push("uq au", &f.tok, &mut f.int);
        f.rules.push_str("uq", "university of queensland", &f.tok, &mut f.int).unwrap();
        let (dd, ix) = f.built();
        let doc = Document::parse("university of queensland au versus something else", &f.tok, &mut f.int);
        let good = (Span::new(0, 4), e);
        let bad = (Span::new(4, 3), e);
        let mut stats = ExtractStats::default();
        let out = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, vec![good, bad], &mut stats, false, &mut Budget::unlimited());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].span, Span::new(0, 4));
        assert_eq!(out[0].score, 1.0);
        assert_eq!(stats.candidates, 2);
        assert_eq!(stats.matches, 1);
    }

    #[test]
    fn weighted_verification_scales() {
        let mut f = Fix::new();
        let e = f.dict.push("nyc marathon", &f.tok, &mut f.int);
        f.rules.push_weighted_str("nyc", "new york city", 0.5, &f.tok, &mut f.int).unwrap();
        let (dd, ix) = f.built();
        let doc = Document::parse("new york city marathon", &f.tok, &mut f.int);
        let pair = vec![(Span::new(0, 4), e)];
        let mut stats = ExtractStats::default();
        let plain = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, pair.clone(), &mut stats, false, &mut Budget::unlimited());
        assert_eq!(plain.len(), 1);
        let weighted = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, pair.clone(), &mut stats, true, &mut Budget::unlimited());
        assert!(weighted.is_empty(), "0.5-weighted score falls below 0.9");
        let weighted_low = run_verify(&ix, &dd, &doc, 0.4, Metric::Jaccard, pair, &mut stats, true, &mut Budget::unlimited());
        assert_eq!(weighted_low.len(), 1);
        assert!((weighted_low[0].score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn results_sorted_by_span_then_entity() {
        let mut f = Fix::new();
        let a = f.dict.push("alpha beta", &f.tok, &mut f.int);
        let b = f.dict.push("beta gamma", &f.tok, &mut f.int);
        let (dd, ix) = f.built();
        let doc = Document::parse("alpha beta gamma", &f.tok, &mut f.int);
        let pairs = vec![(Span::new(1, 2), b), (Span::new(0, 2), a)];
        let mut stats = ExtractStats::default();
        let out = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, pairs, &mut stats, false, &mut Budget::unlimited());
        assert_eq!(out.len(), 2);
        assert!(out[0].sort_key() < out[1].sort_key());
    }

    #[test]
    fn length_filter_skips_impossible_variants() {
        let mut f = Fix::new();
        let e = f.dict.push("a b c d e f g h", &f.tok, &mut f.int);
        let (dd, ix) = f.built();
        let doc = Document::parse("a b", &f.tok, &mut f.int);
        let mut stats = ExtractStats::default();
        let out = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, vec![(Span::new(0, 2), e)], &mut stats, false, &mut Budget::unlimited());
        assert!(out.is_empty());
        assert_eq!(stats.verifications, 0, "variant skipped by length filter");
    }
}
