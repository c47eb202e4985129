//! Pipeline stages and the allocation-free timing slots they record into.
//!
//! The extraction hot path cannot afford a histogram update — or any shared
//! write — per window position. Instead each [`ExtractScratch`-resident]
//! [`StageSlots`] accumulates plain `u64`s: summed nanoseconds of the spans
//! that were actually timed, how many were timed, and how many happened in
//! total. Inner-loop stages are *sampled* (one position in
//! `SAMPLE_MASK + 1` is timed, the rest only counted), so the estimator
//! `nanos × spans / timed` scales the measured time back to the full run
//! while the steady-state cost stays at two `Instant` reads per ~64
//! positions. Document-level stages (remap, verify, …) are timed exactly:
//! for them `timed == spans` and the estimator is the identity.

/// Sampling mask for inner-loop stage timing: a window position `p` is
/// timed when `p & SAMPLE_MASK == 0` (1 in 64).
pub const SAMPLE_MASK: usize = 63;

/// One stage of the extraction pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Document text → token ids (recorded by callers that parse).
    Tokenize = 0,
    /// Global-order keys → dense per-document ranks (`DenseRemap::build`).
    Remap = 1,
    /// Initial window-state construction (the Window Extend chain, or the
    /// per-substring prefix sort of the Simple/Skip strategies).
    PrefixBuild = 2,
    /// Incremental prefix maintenance (Window Migrate operations).
    PrefixUpdate = 3,
    /// The sliding-window enumeration loop, *inclusive* of the per-position
    /// sub-stages — the per-document wall time of candidate generation.
    WindowSlide = 4,
    /// Posting-list scans and candidate emission.
    CandidateGen = 5,
    /// Candidate verification (filters + similarity scoring).
    Verify = 6,
}

impl Stage {
    /// Number of stages (slot-array length).
    pub(crate) const COUNT: usize = 7;

    /// All stages, in execution order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Tokenize,
        Stage::Remap,
        Stage::PrefixBuild,
        Stage::PrefixUpdate,
        Stage::WindowSlide,
        Stage::CandidateGen,
        Stage::Verify,
    ];

    /// The stable label used by exporters and the profile table.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Tokenize => "tokenize",
            Stage::Remap => "remap",
            Stage::PrefixBuild => "prefix_build",
            Stage::PrefixUpdate => "prefix_update",
            Stage::WindowSlide => "window_slide",
            Stage::CandidateGen => "candidate_gen",
            Stage::Verify => "verify",
        }
    }
}

/// Fixed-size per-stage timing accumulator. Plain `Copy` data — no heap,
/// no atomics — meant to live inside a reusable extraction scratch and be
/// merged/flushed after the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSlots {
    nanos: [u64; Stage::COUNT],
    timed: [u64; Stage::COUNT],
    spans: [u64; Stage::COUNT],
}

impl StageSlots {
    /// Zeroes every slot (start of a new document).
    #[inline]
    pub fn clear(&mut self) {
        *self = StageSlots::default();
    }

    /// Records one timed span of `stage`.
    #[inline]
    pub fn record(&mut self, stage: Stage, nanos: u64) {
        let i = stage as usize;
        self.nanos[i] += nanos;
        self.timed[i] += 1;
        self.spans[i] += 1;
    }

    /// Counts one span of `stage` that was *not* timed (sampled out).
    #[inline]
    pub fn skip(&mut self, stage: Stage) {
        self.spans[stage as usize] += 1;
    }

    /// Raises the span total of `stage` to `total` (no-op when already
    /// there). Hot loops whose span count is known in bulk — one span per
    /// window position, say — call this once after the loop instead of
    /// paying a [`StageSlots::skip`] per sampled-out iteration; only the
    /// sampled positions touch the slots inside the loop.
    #[inline]
    pub fn account_spans(&mut self, stage: Stage, total: u64) {
        let i = stage as usize;
        self.spans[i] = self.spans[i].max(total);
    }

    /// Accumulates another slot set (profile runs).
    #[inline]
    pub fn merge(&mut self, other: &StageSlots) {
        for i in 0..Stage::COUNT {
            self.nanos[i] += other.nanos[i];
            self.timed[i] += other.timed[i];
            self.spans[i] += other.spans[i];
        }
    }

    /// Summed nanoseconds of the spans actually timed.
    #[inline]
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage as usize]
    }

    /// Spans timed.
    #[inline]
    pub fn timed(&self, stage: Stage) -> u64 {
        self.timed[stage as usize]
    }

    /// Spans total (timed + sampled out).
    #[inline]
    pub fn spans(&self, stage: Stage) -> u64 {
        self.spans[stage as usize]
    }

    /// Estimated total nanoseconds: measured time scaled by the sampling
    /// ratio (`nanos × spans / timed`). Exact for stages timed on every
    /// span; 0 when nothing was timed.
    #[inline]
    pub fn estimated_nanos(&self, stage: Stage) -> u64 {
        let i = stage as usize;
        if self.timed[i] == 0 {
            return 0;
        }
        // 128-bit intermediate: nanos × spans can exceed u64 on long runs;
        // the final estimate saturates instead of wrapping.
        let est = (self.nanos[i] as u128 * self.spans[i] as u128) / self.timed[i] as u128;
        est.min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_scales_by_sampling_ratio() {
        let mut s = StageSlots::default();
        s.record(Stage::PrefixUpdate, 100);
        s.record(Stage::PrefixUpdate, 300);
        for _ in 0..6 {
            s.skip(Stage::PrefixUpdate);
        }
        assert_eq!(s.nanos(Stage::PrefixUpdate), 400);
        assert_eq!(s.timed(Stage::PrefixUpdate), 2);
        assert_eq!(s.spans(Stage::PrefixUpdate), 8);
        // 400ns over 2 timed spans, 8 spans total → 1600ns estimated.
        assert_eq!(s.estimated_nanos(Stage::PrefixUpdate), 1600);
    }

    #[test]
    fn account_spans_raises_to_bulk_total() {
        let mut s = StageSlots::default();
        s.record(Stage::CandidateGen, 500);
        s.record(Stage::CandidateGen, 300);
        // Bulk accounting after a 100-position loop with 2 timed samples.
        s.account_spans(Stage::CandidateGen, 100);
        assert_eq!(s.spans(Stage::CandidateGen), 100);
        assert_eq!(s.timed(Stage::CandidateGen), 2);
        // 800ns over 2 timed of 100 spans → 40µs estimated.
        assert_eq!(s.estimated_nanos(Stage::CandidateGen), 40_000);
        // Idempotent, and never lowers an already-larger count.
        s.account_spans(Stage::CandidateGen, 50);
        assert_eq!(s.spans(Stage::CandidateGen), 100);
    }

    #[test]
    fn exact_stages_estimate_exactly() {
        let mut s = StageSlots::default();
        s.record(Stage::Verify, 12_345);
        assert_eq!(s.estimated_nanos(Stage::Verify), 12_345);
        assert_eq!(s.estimated_nanos(Stage::Remap), 0, "untimed stage estimates to zero");
    }

    #[test]
    fn merge_sums_all_slots() {
        let mut a = StageSlots::default();
        let mut b = StageSlots::default();
        a.record(Stage::Remap, 10);
        b.record(Stage::Remap, 20);
        b.skip(Stage::CandidateGen);
        a.merge(&b);
        assert_eq!(a.nanos(Stage::Remap), 30);
        assert_eq!(a.timed(Stage::Remap), 2);
        assert_eq!(a.spans(Stage::CandidateGen), 1);
    }

    #[test]
    fn estimator_survives_large_products() {
        let mut s = StageSlots::default();
        s.record(Stage::CandidateGen, u64::MAX / 4);
        for _ in 0..7 {
            s.skip(Stage::CandidateGen);
        }
        // nanos × spans overflows u64; the estimate saturates, not wraps.
        assert_eq!(s.estimated_nanos(Stage::CandidateGen), u64::MAX);
    }
}
