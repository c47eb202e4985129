//! The sharded metric registry.
//!
//! Hot-path writes (counter increments, histogram observations) land in a
//! per-thread *stripe*: each metric owns `STRIPES` cache-line-aligned
//! atomic blocks, and every thread is assigned a stripe round-robin on
//! first use. Two worker threads therefore never bounce the same cache
//! line on an increment; a scrape (rare) sums all stripes with relaxed
//! loads. Monotonic counters tolerate relaxed ordering because scrapes are
//! point-in-time snapshots, not synchronization points.
//!
//! Registration is `Mutex`-guarded and idempotent: asking for the same
//! `(name, labels)` pair again returns the existing handle, so workers and
//! reload paths can re-register freely. Handles are `Arc`s — recording
//! never touches the registry lock.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of write stripes per metric. Spacious enough that a typical
/// worker pool maps 1:1, small enough that scrape-time merges stay cheap.
const STRIPES: usize = 16;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The calling thread's stripe index, assigned round-robin on first use.
#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(v);
        }
        v
    })
}

/// One cache line of counter state: stripes never share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A monotonic counter.
#[derive(Default)]
pub struct Counter {
    cells: [PaddedU64; STRIPES],
}

impl Counter {
    /// Adds `by` (relaxed, striped — never contends across workers).
    #[inline]
    pub fn inc(&self, by: u64) {
        self.cells[stripe()].0.fetch_add(by, Ordering::Relaxed);
    }

    /// Point-in-time total across all stripes.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A gauge: a signed last-write/delta value (queue depths, generation ids).
/// Gauges are scraped and set rarely, so a single atomic suffices.
#[derive(Default)]
pub struct Gauge {
    cell: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `by` (may be negative).
    #[inline]
    pub fn add(&self, by: i64) {
        self.cell.fetch_add(by, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Histogram bucket count: log₂-scale over nanoseconds. Bucket `i` has the
/// upper bound `1µs × 2^i` (the last bucket is `+Inf`), spanning ~1µs to
/// ~67s — the full range of a document extraction.
pub(crate) const BUCKETS: usize = 27;

/// Upper bound of bucket `i` in nanoseconds (`u64::MAX` for the last).
pub(crate) fn bucket_bound_nanos(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        1_000u64 << i
    }
}

/// Bucket `i` covers `(bound(i-1), bound(i)]`, matching Prometheus `le`.
#[inline]
fn bucket_index(nanos: u64) -> usize {
    let q = nanos.saturating_sub(1) / 1_000;
    ((64 - q.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// One stripe of histogram state, padded to its own cache-line start.
#[repr(align(64))]
#[derive(Default)]
struct HistStripe {
    buckets: [AtomicU64; BUCKETS],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log-scale duration histogram (nanosecond samples,
/// exported in seconds).
#[derive(Default)]
pub struct Histogram {
    stripes: [HistStripe; STRIPES],
}

impl Histogram {
    /// Records one duration sample (relaxed, striped).
    #[inline]
    pub fn observe_nanos(&self, nanos: u64) {
        let s = &self.stripes[stripe()];
        s.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        s.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.stripes.iter().map(|s| s.count.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples in nanoseconds.
    pub(crate) fn sum_nanos(&self) -> u64 {
        self.stripes.iter().map(|s| s.sum_nanos.load(Ordering::Relaxed)).sum()
    }

    /// Per-bucket counts merged across stripes (not cumulative).
    pub(crate) fn merged_buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for s in &self.stripes {
            for (o, b) in out.iter_mut().zip(s.buckets.iter()) {
                *o += b.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Upper-bound estimate of the `q`-quantile in nanoseconds (nearest
    /// rank over the merged buckets), or `None` when empty. Resolution is
    /// one log₂ bucket — good enough for p50/p99 dashboards, free of
    /// per-sample storage.
    pub fn quantile_nanos(&self, q: f64) -> Option<u64> {
        let buckets = self.merged_buckets();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_bound_nanos(i));
            }
        }
        Some(bucket_bound_nanos(BUCKETS - 1))
    }
}

/// The value of one metric at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram: `(upper_bound_nanos, cumulative_count)` per bucket, plus
    /// sum and count. The last bound is `u64::MAX` (+Inf).
    Histogram {
        /// Cumulative bucket counts with their nanosecond upper bounds.
        buckets: Vec<(u64, u64)>,
        /// Sum of samples in nanoseconds.
        sum_nanos: u64,
        /// Number of samples.
        count: u64,
    },
}

/// One scraped metric instance: family name, help, label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Family name (e.g. `aeetes_candidates_total`).
    pub name: String,
    /// Family help text.
    pub help: String,
    /// Label pairs, e.g. `[("shard", "3")]`.
    pub labels: Vec<(String, String)>,
    /// The merged value.
    pub value: MetricValue,
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// The metric registry: owns every registered instance, hands out `Arc`
/// handles, and renders merged snapshots on scrape.
#[derive(Default)]
pub struct MetricRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, help: &str, labels: &[(&str, &str)], make: impl FnOnce() -> Handle) -> Handle {
        let mut entries = self.entries.lock().expect("metric registry poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels.len() == labels.len() && e.labels.iter().zip(labels).all(|(a, b)| a.0 == b.0 && a.1 == b.1))
        {
            return match &e.handle {
                Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
                Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
                Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
            };
        }
        let handle = make();
        let cloned = match &handle {
            Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
            Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
            Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
        };
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            handle,
        });
        cloned
    }

    /// Registers (or re-acquires) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Registers (or re-acquires) a labeled counter instance.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || Handle::Counter(Arc::new(Counter::default()))) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or re-acquires) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or re-acquires) a labeled gauge instance.
    pub(crate) fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || Handle::Gauge(Arc::new(Gauge::default()))) {
            Handle::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or re-acquires) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or re-acquires) a labeled histogram instance.
    pub(crate) fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || Handle::Histogram(Arc::new(Histogram::default()))) {
            Handle::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Point-in-time snapshot of every registered instance, in registration
    /// order (instances of one family stay adjacent for exporters).
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.entries.lock().expect("metric registry poisoned");
        entries
            .iter()
            .map(|e| {
                let value = match &e.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.value()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.value()),
                    Handle::Histogram(h) => {
                        let merged = h.merged_buckets();
                        let mut cum = 0u64;
                        let buckets = merged
                            .iter()
                            .enumerate()
                            .map(|(i, &c)| {
                                cum += c;
                                (bucket_bound_nanos(i), cum)
                            })
                            .collect();
                        MetricValue::Histogram { buckets, sum_nanos: h.sum_nanos(), count: h.count() }
                    }
                };
                MetricSnapshot { name: e.name.clone(), help: e.help.clone(), labels: e.labels.clone(), value }
            })
            .collect()
    }

    /// Number of distinct family names registered.
    #[cfg(test)]
    fn family_count(&self) -> usize {
        let entries = self.entries.lock().expect("metric registry poisoned");
        let mut names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let reg = MetricRegistry::new();
        let c = reg.counter("t_total", "help");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::default();
        g.set(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn bucket_index_is_monotonic_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(999), 0); // < 1µs
        assert_eq!(bucket_index(1_000), 0, "le bounds are inclusive");
        assert_eq!(bucket_index(1_001), 1);
        assert_eq!(bucket_index(2_000), 1);
        assert_eq!(bucket_index(2_001), 2);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for n in [1u64, 500, 1_000, 3_000, 1_000_000, 1_000_000_000] {
            let i = bucket_index(n);
            assert!(n <= bucket_bound_nanos(i), "{n}ns must fall under its bucket bound");
            if i > 0 {
                assert!(n > bucket_bound_nanos(i - 1), "{n}ns must be above the previous bound");
            }
        }
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        assert_eq!(h.quantile_nanos(0.5), None);
        for micros in [10u64, 20, 30, 40, 1000] {
            h.observe_nanos(micros * 1_000);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_nanos(0.5).unwrap();
        assert!((20_000..=64_000).contains(&p50), "p50 bucket bound {p50}ns should bracket the 30µs median");
        let p99 = h.quantile_nanos(0.99).unwrap();
        assert!(p99 >= 1_000_000, "p99 must land in the 1ms sample's bucket, got {p99}ns");
    }

    #[test]
    fn registry_snapshot_merges_and_orders() {
        let reg = MetricRegistry::new();
        let c = reg.counter_with("s_total", "h", &[("shard", "0")]);
        let c1 = reg.counter_with("s_total", "h", &[("shard", "1")]);
        let g = reg.gauge("g", "h");
        let h = reg.histogram("lat", "h");
        c.inc(2);
        c1.inc(3);
        g.set(7);
        h.observe_nanos(5_000);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].value, MetricValue::Counter(2));
        assert_eq!(snap[1].labels, vec![("shard".to_string(), "1".to_string())]);
        assert_eq!(reg.family_count(), 3);
        match &snap[3].value {
            MetricValue::Histogram { buckets, count, .. } => {
                assert_eq!(*count, 1);
                assert_eq!(buckets.last().unwrap().1, 1, "+Inf bucket is cumulative total");
            }
            v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn same_name_different_labels_are_distinct_instances() {
        let reg = MetricRegistry::new();
        let a = reg.counter_with("x_total", "h", &[("shard", "0")]);
        let b = reg.counter_with("x_total", "h", &[("shard", "1")]);
        a.inc(1);
        assert_eq!(b.value(), 0);
        let again = reg.counter_with("x_total", "h", &[("shard", "0")]);
        again.inc(1);
        assert_eq!(a.value(), 2, "same (name, labels) returns the same instance");
    }
}
