//! Sample arithmetic: medians, percentiles, the "ten samples beyond" tail
//! rule and the quartile spread `repeat.sh` judges a metric by.

/// Sorts `samples` ascending (timings are always finite).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Median of an ascending slice; the mean of the two middle values when the
/// count is even.
///
/// # Panics
/// Panics on an empty slice: a metric without samples must fail loudly
/// rather than print 0.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted samples (sorts them in place).
pub fn median(samples: &mut [f64]) -> f64 {
    sort(samples);
    median_sorted(samples)
}

/// Nearest-rank percentile `q ∈ (0, 1]` of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q)]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A tail statistic and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// Samples strictly after that rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q` percentile, lowered to the highest rank that still has
/// [`MIN_BEYOND`] samples after it: with fewer than `10 / (1 − q)` samples
/// the nominal percentile is one or two outliers, not a statistic. With ten
/// samples or fewer the maximum is returned with `beyond = 0`, which the
/// reader takes as "no tail estimate".
pub fn tail_sorted(sorted: &[f64], q: f64) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let r = if n > MIN_BEYOND { rank(n, q).min(n - 1 - MIN_BEYOND) } else { n - 1 };
    Tail { value: sorted[r], beyond: n - 1 - r }
}

/// Quartiles `(q1, median, q3)` as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the contract's spread statistic.
pub fn quartiles(samples: &mut [f64]) -> (f64, f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    sort(samples);
    let n = samples.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based order statistics, interpolated.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        samples[j - 1] + frac * (samples[j] - samples[j - 1])
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn median_of_passes_ignores_a_burst() {
        // Fifteen passes of 100 ms, three of them hit by a neighbour: the
        // median pass — and so docs_per_s — does not move; the mean would.
        let mut passes = vec![0.100; 12];
        passes.extend([0.180, 0.250, 0.140]);
        let docs = 60.0;
        assert_eq!(docs / median(&mut passes), 600.0);
        let mean = passes.iter().sum::<f64>() / passes.len() as f64;
        assert!(docs / mean < 530.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2 000 samples: p99 is rank 1980 with 20 beyond — reported as is.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_sorted(&v, 0.99), Tail { value: 1980.0, beyond: 20 });
        // Exactly 1 000: p99 has ten beyond — the smallest count that does.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_sorted(&v, 0.99), Tail { value: 990.0, beyond: 10 });
        // 200 samples: nominal p99 has two beyond; lowered until ten are.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_sorted(&v, 0.99), Tail { value: 190.0, beyond: 10 });
        // Too few samples for any tail: the maximum, flagged by beyond = 0.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail_sorted(&v, 0.99), Tail { value: 8.0, beyond: 0 });
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        let mut v = vec![50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quartiles(&mut v), (15.0, 30.0, 45.0));
    }
}
