//! Fuzzy Jaccard (Wang et al., ICDE 2011 "Fast-Join"), the syntactic
//! baseline metric of the paper's Table 2.
//!
//! Two token *strings* match fuzzily when their normalized edit similarity
//! reaches `delta`; the fuzzy overlap of two token sequences is the weight of
//! a matching between their tokens. Fast-Join computes a maximum weight
//! matching; like most implementations we use the standard greedy
//! approximation (sort candidate pairs by weight, take while disjoint),
//! which is exact whenever weights are distinct enough and is the variant
//! commonly benchmarked.

use crate::edit::edit_similarity;

/// Fuzzy overlap of two token lists: greedy maximum-weight matching over
/// token pairs with `edit_similarity ≥ delta`.
fn fuzzy_overlap(a: &[&str], b: &[&str], delta: f64) -> f64 {
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for (i, ta) in a.iter().enumerate() {
        for (j, tb) in b.iter().enumerate() {
            let s = if ta == tb { 1.0 } else { edit_similarity(ta, tb) };
            if s >= delta {
                pairs.push((s, i, j));
            }
        }
    }
    // Highest similarity first; ties broken by position for determinism.
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal).then((x.1, x.2).cmp(&(y.1, y.2))));
    let mut used_a = vec![false; a.len()];
    let mut used_b = vec![false; b.len()];
    let mut total = 0.0;
    for (s, i, j) in pairs {
        if !used_a[i] && !used_b[j] {
            used_a[i] = true;
            used_b[j] = true;
            total += s;
        }
    }
    total
}

/// Fuzzy Jaccard: `overlap / (|a| + |b| − overlap)` with fuzzy overlap.
///
/// `delta` is the token-level edit-similarity threshold (Fast-Join uses
/// `0.8` in its experiments; the paper's FJ column follows suit).
pub fn fuzzy_jaccard(a: &[&str], b: &[&str], delta: f64) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let o = fuzzy_overlap(a, b, delta);
    let denom = a.len() as f64 + b.len() as f64 - o;
    if denom <= 0.0 {
        1.0
    } else {
        o / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tokens_reduce_to_jaccard() {
        let a = ["new", "york", "university"];
        let b = ["york", "university", "press"];
        // overlap = 2, denom = 3 + 3 - 2 = 4
        assert!((fuzzy_jaccard(&a, &b, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn typo_tokens_match_fuzzily() {
        // paper Figure 8 (DBWorld): "Aukland" vs "Auckland" has ed 1.
        let a = ["the", "university", "of", "aukland"];
        let b = ["the", "university", "of", "auckland"];
        let fj = fuzzy_jaccard(&a, &b, 0.8);
        let j_exact_only = fuzzy_jaccard(&a, &b, 1.0);
        assert!(fj > j_exact_only);
        assert!(fj > 0.9);
    }

    #[test]
    fn disjoint_is_zero() {
        assert_eq!(fuzzy_jaccard(&["aaa"], &["zzz"], 0.8), 0.0);
    }

    #[test]
    fn identical_is_one() {
        let a = ["a", "b"];
        assert_eq!(fuzzy_jaccard(&a, &a, 0.8), 1.0);
        assert_eq!(fuzzy_jaccard(&[], &[], 0.8), 1.0);
    }

    #[test]
    fn greedy_matching_is_one_to_one() {
        // One token in `a` cannot match two tokens in `b`.
        let a = ["abcd"];
        let b = ["abcd", "abcd"];
        let o = fuzzy_overlap(&a, &b, 0.8);
        assert_eq!(o, 1.0);
    }

    #[test]
    fn overlap_bounded_by_min_len() {
        let a = ["aa", "ab", "ac"];
        let b = ["aa", "ab"];
        assert!(fuzzy_overlap(&a, &b, 0.5) <= 2.0 + 1e-12);
    }

    #[test]
    fn empty_vs_nonempty() {
        assert_eq!(fuzzy_jaccard(&[], &["x"], 0.8), 0.0);
    }
}
