//! Filter arithmetic: prefix lengths and window bounds (paper §3.1, §4).

use aeetes_sim::Metric;

/// Rounding guard: `(1−τ)·n` and friends are mathematically integral at
/// common thresholds (e.g. τ=0.8, n=5) but land just below the integer in
/// floating point; nudging up before `floor` keeps the formulas exact.
const EPS: f64 = 1e-9;

/// τ-prefix length for a set of `n` distinct tokens: `⌊(1−τ)·n⌋ + 1`
/// (Lemma 3.1). Zero for an empty set.
#[inline]
pub fn prefix_len(n: usize, tau: f64) -> usize {
    if n == 0 {
        return 0;
    }
    ((((1.0 - tau) * n as f64 + EPS).floor()) as usize + 1).min(n)
}

/// Substring-length bounds for a document given the derived dictionary's
/// minimum/maximum entity lengths (paper §3.1): only substrings with
/// `|s| ∈ [E⊥, E⊤]` can be similar to any entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowBounds {
    /// Minimum candidate substring token length (`E⊥`, ≥ 1).
    pub min: usize,
    /// Maximum candidate substring token length (`E⊤`).
    pub max: usize,
}

/// Metric-generic window bounds: the substring token-length range that can
/// reach `tau` under `metric` against any entity with distinct size in
/// `[|e|⊥, |e|⊤]`. For Overlap (whose admissible partner size is unbounded
/// above) the range is clamped by the mention-length cap `⌈|e|⊤/τ⌉` — the
/// same cap every metric's window enumeration uses.
pub fn metric_window_bounds(min_entity_len: Option<usize>, max_entity_len: Option<usize>, tau: f64, metric: Metric) -> Option<WindowBounds> {
    let lo = min_entity_len?;
    let hi = max_entity_len?;
    debug_assert!(lo <= hi);
    let cap = (hi as f64 / tau - EPS).ceil() as usize;
    let min = metric.length_bounds(lo, tau, cap).0;
    let max = metric.length_bounds(hi, tau, cap).1;
    Some(WindowBounds { min, max })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_len_examples_from_paper() {
        // §4.1 Example 4.1: τ=0.8, |s|=3 → 1; |s|=4 → 1; |s|=5 → 2.
        assert_eq!(prefix_len(3, 0.8), 1);
        assert_eq!(prefix_len(4, 0.8), 1);
        assert_eq!(prefix_len(5, 0.8), 2);
    }

    #[test]
    fn prefix_len_never_exceeds_set_size() {
        for n in 0..20 {
            for tau in [0.1, 0.5, 0.7, 0.9, 1.0] {
                let p = prefix_len(n, tau);
                assert!(p <= n);
                if n > 0 {
                    assert!(p >= 1);
                }
            }
        }
    }

    #[test]
    fn prefix_len_zero_for_empty() {
        assert_eq!(prefix_len(0, 0.8), 0);
    }

    #[test]
    fn window_bounds_basic() {
        let b = metric_window_bounds(Some(1), Some(5), 0.8, Metric::Jaccard).unwrap();
        assert_eq!(b, WindowBounds { min: 1, max: 7 });
        let b = metric_window_bounds(Some(2), Some(4), 0.9, Metric::Jaccard).unwrap();
        assert_eq!(b, WindowBounds { min: 1, max: 5 });
    }

    #[test]
    fn window_bounds_empty_dictionary() {
        assert!(metric_window_bounds(None, None, 0.8, Metric::Jaccard).is_none());
    }

    #[test]
    fn window_min_clamped_to_one() {
        let b = metric_window_bounds(Some(1), Some(1), 0.7, Metric::Jaccard).unwrap();
        assert_eq!(b.min, 1);
        assert_eq!(b.max, 2);
    }
}
