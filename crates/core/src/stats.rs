//! Extraction statistics (drives the paper's Figure 11 metric) and serving
//! telemetry ([`LatencyRing`] for bounded-memory percentile estimates).

use std::ops::AddAssign;

/// Counters recorded during one (or more, when accumulated) extractions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Index entries read during candidate generation — the paper's "number
    /// of accessed entries" (Figure 11). An entry is one `(token, set length,
    /// origin)` cluster, decided by one compare, however many of the origin's
    /// variants it stands for.
    pub accessed_entries: u64,
    /// Candidate `(substring, entity)` pairs sent to verification.
    pub candidates: u64,
    /// Derived-entity similarity computations performed during verification:
    /// one per variant whose overlap with the window was computed. A
    /// candidate's variants past the length and prefix filters count, unless
    /// the candidate was settled for its whole origin at once — all its
    /// variants' keys together share too few with the window — and none was
    /// looked at.
    pub verifications: u64,
    /// Result pairs with `JaccAR ≥ τ`.
    pub matches: u64,
    /// Prefixes computed from scratch (Simple / Skip).
    pub prefix_builds: u64,
    /// Incremental prefix updates — Window Extend / Migrate (Dynamic / Lazy).
    pub prefix_updates: u64,
    /// Substrings enumerated.
    pub substrings: u64,
    /// Windows (start positions) visited.
    pub windows: u64,
}

impl AddAssign for ExtractStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accessed_entries += rhs.accessed_entries;
        self.candidates += rhs.candidates;
        self.verifications += rhs.verifications;
        self.matches += rhs.matches;
        self.prefix_builds += rhs.prefix_builds;
        self.prefix_updates += rhs.prefix_updates;
        self.substrings += rhs.substrings;
        self.windows += rhs.windows;
    }
}

/// Fixed-capacity ring of the most recent latency samples (microseconds),
/// for percentile estimates with bounded memory — a long-lived server must
/// never let telemetry grow with traffic. Not thread-safe by itself; wrap
/// in a lock (the write path is a single slot store, so contention is
/// negligible next to extraction work).
#[derive(Debug, Clone)]
pub struct LatencyRing {
    slots: Vec<u64>,
    /// Ring size (`Vec::with_capacity` may over-allocate, so the bound is
    /// kept explicitly).
    cap: usize,
    /// Total samples ever recorded; `min(count, cap)` are live.
    count: u64,
}

impl LatencyRing {
    /// A ring keeping the last `capacity` samples (`capacity` is clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        LatencyRing { slots: Vec::with_capacity(cap), cap, count: 0 }
    }

    /// Records one sample, evicting the oldest once full.
    pub fn record(&mut self, micros: u64) {
        if self.slots.len() < self.cap {
            self.slots.push(micros);
        } else {
            self.slots[(self.count % self.cap as u64) as usize] = micros;
        }
        self.count += 1;
    }

    /// Total samples ever recorded (not just the retained window).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`, e.g. `0.5` / `0.99`) of the
    /// retained window via nearest-rank; `None` while empty. O(n log n) in
    /// the (fixed) window size — fine for a stats endpoint, not for a hot
    /// loop.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.slots.is_empty() {
            return None;
        }
        let mut sorted = self.slots.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = ExtractStats { accessed_entries: 1, candidates: 2, ..Default::default() };
        let b = ExtractStats { accessed_entries: 10, matches: 3, ..Default::default() };
        a += b;
        assert_eq!(a.accessed_entries, 11);
        assert_eq!(a.candidates, 2);
        assert_eq!(a.matches, 3);
    }

    #[test]
    fn empty_ring_has_no_quantiles() {
        let r = LatencyRing::new(8);
        assert!(r.is_empty());
        assert_eq!(r.quantile(0.5), None);
    }

    #[test]
    fn quantiles_over_small_window() {
        let mut r = LatencyRing::new(100);
        for v in [10, 20, 30, 40] {
            r.record(v);
        }
        assert_eq!(r.count(), 4);
        assert_eq!(r.quantile(0.0), Some(10)); // clamped to first rank
        assert_eq!(r.quantile(0.5), Some(20));
        assert_eq!(r.quantile(0.99), Some(40));
        assert_eq!(r.quantile(1.0), Some(40));
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let mut r = LatencyRing::new(4);
        for v in 1..=100u64 {
            r.record(v);
        }
        assert_eq!(r.count(), 100);
        // Window is the last four samples: 97..=100.
        assert_eq!(r.quantile(0.0), Some(97));
        assert_eq!(r.quantile(1.0), Some(100));
    }

    #[test]
    fn zero_capacity_is_clamped_not_division_by_zero() {
        let mut r = LatencyRing::new(0);
        r.record(5);
        r.record(7);
        assert_eq!(r.quantile(0.5), Some(7));
    }
}
