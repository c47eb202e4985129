//! Zero-overhead observability for the aeetes extraction stack.
//!
//! Three pieces, all dependency-free:
//!
//! - [`Stage`] / [`StageSlots`]: a fixed-size, allocation-free
//!   per-pipeline-stage timing accumulator. The extraction hot path records
//!   into slots resident in its reusable scratch, so steady-state extraction
//!   stays zero-allocation (guarded by the counting-allocator test in
//!   `aeetes-core`).
//! - [`MetricRegistry`] with [`Counter`] / [`Gauge`] / [`Histogram`]: striped
//!   (per-thread-shard) atomics, merged only on scrape — increments on the
//!   hot path never contend on a shared cache line.
//! - [`prometheus_text`] / [`json`]: Prometheus text-format and JSON renderers over a registry
//!   snapshot.
//!
//! The crate deliberately has no dependency on the engine crates; engine
//! types flush their counters into it through plain integers (see
//! [`ExtractCounts`]).

mod export;
mod fleet;
mod pool;
mod registry;
mod stage;
mod stream;
mod wal;

pub use export::{json, prometheus_text};
pub use fleet::{FleetMetrics, ReplicaMetrics};
pub use pool::PoolMetrics;
pub use registry::{Counter, Gauge, Histogram, MetricRegistry, MetricSnapshot, MetricValue};
pub use stage::{Stage, StageSlots, SAMPLE_MASK};
pub use stream::StreamMetrics;
pub use wal::WalMetrics;

/// Work counters of one extraction, mirrored as plain integers so engine
/// crates can flush their stats into an [`ExtractMetrics`] bundle without
/// this crate depending on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractCounts {
    /// Index entries (clusters) read during candidate generation.
    pub accessed_entries: u64,
    /// Candidate `(span, entity)` pairs handed to verification.
    pub candidates: u64,
    /// Candidate pairs that survived the cheap filters and were scored.
    pub verifications: u64,
    /// Verified matches reported.
    pub matches: u64,
}

/// The standard extraction metric bundle: per-stage duration histograms plus
/// the work counters every aeetes pipeline reports. Handles are pre-registered
/// `Arc`s, so recording does no registry lookup and no allocation.
pub struct ExtractMetrics {
    /// `aeetes_stage_duration_seconds{stage=...}`, one histogram per stage,
    /// indexed by `Stage as usize`. Observed per document with the stage's
    /// estimated total nanos.
    pub stage: [std::sync::Arc<Histogram>; Stage::COUNT],
    /// `aeetes_docs_total`: documents whose extraction was observed.
    pub docs: std::sync::Arc<Counter>,
    /// `aeetes_accessed_entries_total`.
    pub accessed_entries: std::sync::Arc<Counter>,
    /// `aeetes_candidates_total`.
    pub candidates: std::sync::Arc<Counter>,
    /// `aeetes_verifications_total`.
    pub verifications: std::sync::Arc<Counter>,
    /// `aeetes_matches_total`.
    pub matches: std::sync::Arc<Counter>,
    /// `aeetes_truncated_total`: extractions cut short by a budget.
    pub truncated: std::sync::Arc<Counter>,
}

impl ExtractMetrics {
    /// Registers (or re-acquires) the bundle's families in `registry`.
    pub fn register(registry: &MetricRegistry) -> Self {
        let stage = Stage::ALL.map(|s| {
            registry.histogram_with(
                "aeetes_stage_duration_seconds",
                "Estimated per-document time spent in each extraction pipeline stage",
                &[("stage", s.name())],
            )
        });
        ExtractMetrics {
            stage,
            docs: registry.counter("aeetes_docs_total", "Documents extracted"),
            accessed_entries: registry.counter("aeetes_accessed_entries_total", "Index entries (clusters) read during candidate generation"),
            candidates: registry.counter("aeetes_candidates_total", "Candidate (span, entity) pairs generated"),
            verifications: registry.counter("aeetes_verifications_total", "Derived-entity similarity computations run by the verifier"),
            matches: registry.counter("aeetes_matches_total", "Verified matches reported"),
            truncated: registry.counter("aeetes_truncated_total", "Extractions truncated by a budget or cancellation"),
        }
    }

    /// Flushes one document's outcome: stage slots become histogram samples
    /// (estimated totals), counters accumulate. Allocation-free.
    pub fn observe(&self, slots: &StageSlots, counts: &ExtractCounts, truncated: bool) {
        for s in Stage::ALL {
            let est = slots.estimated_nanos(s);
            if est > 0 {
                self.stage[s as usize].observe_nanos(est);
            }
        }
        self.docs.inc(1);
        self.accessed_entries.inc(counts.accessed_entries);
        self.candidates.inc(counts.candidates);
        self.verifications.inc(counts.verifications);
        self.matches.inc(counts.matches);
        if truncated {
            self.truncated.inc(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_metrics_observe_accumulates() {
        let reg = MetricRegistry::new();
        let m = ExtractMetrics::register(&reg);
        let mut slots = StageSlots::default();
        slots.record(Stage::Verify, 1_000);
        m.observe(&slots, &ExtractCounts { accessed_entries: 7, candidates: 5, verifications: 4, matches: 2 }, false);
        m.observe(&slots, &ExtractCounts { accessed_entries: 1, candidates: 2, verifications: 1, matches: 1 }, true);
        assert_eq!(m.docs.value(), 2);
        assert_eq!(m.candidates.value(), 7);
        assert_eq!(m.matches.value(), 3);
        assert_eq!(m.truncated.value(), 1);
        assert_eq!(m.stage[Stage::Verify as usize].count(), 2);
        assert_eq!(m.stage[Stage::Tokenize as usize].count(), 0);
    }

    #[test]
    fn register_is_idempotent() {
        let reg = MetricRegistry::new();
        let a = ExtractMetrics::register(&reg);
        let b = ExtractMetrics::register(&reg);
        a.candidates.inc(3);
        b.candidates.inc(4);
        assert_eq!(a.candidates.value(), 7, "same family name must yield the same instance");
    }
}
