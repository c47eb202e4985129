//! Token-set similarity metrics over sorted distinct token slices.

use aeetes_text::TokenId;

/// Returns the sorted, deduplicated token set of `tokens`.
pub fn sorted_set(tokens: &[TokenId]) -> Vec<TokenId> {
    let mut v = tokens.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Size of the intersection of two sorted distinct slices (linear merge).
pub fn intersection_size(a: &[TokenId], b: &[TokenId]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "lhs must be sorted distinct");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "rhs must be sorted distinct");
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
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
    n
}

/// Jaccard similarity `|a ∩ b| / |a ∪ b|` of two sorted distinct slices.
///
/// Two empty sets are defined as similarity `1.0` (they are equal).
pub fn jaccard(a: &[TokenId], b: &[TokenId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = intersection_size(a, b);
    inter as f64 / (a.len() + b.len() - inter) as f64
}

/// Length filter bounds (paper §3.1): a set of size `n` can only reach
/// Jaccard ≥ τ against sets whose size lies in `[⌊n·τ⌋ max 1, ⌈n/τ⌉]`.
pub(crate) fn jaccard_length_bounds(n: usize, tau: f64) -> (usize, usize) {
    debug_assert!((0.0..=1.0).contains(&tau) && tau > 0.0);
    let lo = ((n as f64 * tau + 1e-9).floor() as usize).max(1);
    let hi = (n as f64 / tau - 1e-9).ceil() as usize;
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[u32]) -> Vec<TokenId> {
        v.iter().map(|&x| TokenId(x)).collect()
    }

    #[test]
    fn intersection_basics() {
        assert_eq!(intersection_size(&s(&[1, 2, 3]), &s(&[2, 3, 4])), 2);
        assert_eq!(intersection_size(&s(&[]), &s(&[1])), 0);
        assert_eq!(intersection_size(&s(&[1, 5, 9]), &s(&[2, 6, 10])), 0);
        assert_eq!(intersection_size(&s(&[1, 2]), &s(&[1, 2])), 2);
    }

    #[test]
    fn jaccard_known_values() {
        assert_eq!(jaccard(&s(&[1, 2, 3]), &s(&[1, 2, 3])), 1.0);
        assert_eq!(jaccard(&s(&[1, 2]), &s(&[3, 4])), 0.0);
        assert!((jaccard(&s(&[1, 2, 3]), &s(&[2, 3, 4])) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[], &s(&[1])), 0.0);
    }

    #[test]
    fn sorted_set_dedups() {
        assert_eq!(sorted_set(&s(&[3, 1, 3, 2, 1])), s(&[1, 2, 3]));
        assert!(sorted_set(&[]).is_empty());
    }

    #[test]
    fn length_bounds_match_paper() {
        // τ=0.8, n=5 → sizes in [4, 7]
        assert_eq!(jaccard_length_bounds(5, 0.8), (4, 7));
        // n=1 lower bound clamps to 1
        assert_eq!(jaccard_length_bounds(1, 0.7), (1, 2));
    }

    #[test]
    fn length_bounds_are_sound() {
        // Any pair violating the bounds must have jaccard < τ.
        for n in 1usize..10 {
            for m in 1usize..10 {
                let a: Vec<TokenId> = (0..n as u32).map(TokenId).collect();
                // best case: maximal overlap
                let b: Vec<TokenId> = (0..m as u32).map(TokenId).collect();
                let tau = 0.7;
                let (lo, hi) = jaccard_length_bounds(n, tau);
                if m < lo || m > hi {
                    assert!(jaccard(&a, &b) < tau, "n={n} m={m}");
                }
            }
        }
    }
}
