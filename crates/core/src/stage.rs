//! Stage-timing glue between the hot path and `aeetes-obs`.
//!
//! [`Stage`] and [`StageSlots`] are the `aeetes-obs` types; [`SpanClock`]
//! reads the monotonic clock into them, so the strategies contain no timing
//! arithmetic of their own.
//!
//! Inner-loop stages are sampled: [`SpanClock::sampled`] only arms the
//! clock on one window position in [`SAMPLE_MASK`]` + 1`. Un-armed laps do
//! **nothing** — not even a counter bump, so sampled-out positions pay only
//! the arming mask test — and each strategy accounts the total span count
//! in bulk after its loop via [`StageSlots::account_spans`], which is what
//! lets [`StageSlots::estimated_nanos`] scale the measured time back up.

use aeetes_obs::SAMPLE_MASK;
pub use aeetes_obs::{Stage, StageSlots};

use std::time::Instant;

/// A possibly-armed span clock. `lap` records the time since the previous
/// lap into a stage slot and re-arms; on an un-armed clock it does nothing
/// at all (callers bulk-account untimed spans after their loops).
#[derive(Debug)]
pub(crate) struct SpanClock(Option<Instant>);

impl SpanClock {
    /// An armed clock: every lap is timed.
    #[inline]
    pub(crate) fn always() -> Self {
        SpanClock(Some(Instant::now()))
    }

    /// Armed only when `i` lands on the sampling grid (`i & SAMPLE_MASK == 0`).
    #[inline]
    pub(crate) fn sampled(i: usize) -> Self {
        if i & SAMPLE_MASK == 0 {
            Self::always()
        } else {
            SpanClock(None)
        }
    }

    /// Records the span since start/previous lap and re-arms; free when
    /// un-armed.
    #[inline]
    pub(crate) fn lap(&mut self, stage: Stage, slots: &mut StageSlots) {
        if let Some(t) = self.0 {
            let now = Instant::now();
            slots.record(stage, (now - t).as_nanos() as u64);
            self.0 = Some(now);
        }
    }

    /// Records the final span and consumes the clock; free when un-armed.
    #[inline]
    pub(crate) fn stop(self, stage: Stage, slots: &mut StageSlots) {
        if let Some(t) = self.0 {
            slots.record(stage, t.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_clock_sampling_grid() {
        let mut slots = StageSlots::default();
        for p in 0..128usize {
            let mut clk = SpanClock::sampled(p);
            clk.lap(Stage::PrefixUpdate, &mut slots);
        }
        // Sampled-out positions touch nothing; the loop's span total is
        // accounted in bulk afterwards, exactly like the strategies do.
        slots.account_spans(Stage::PrefixUpdate, 128);
        assert_eq!(slots.spans(Stage::PrefixUpdate), 128);
        assert_eq!(slots.timed(Stage::PrefixUpdate), 2, "positions 0 and 64 are on the grid");
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["tokenize", "remap", "prefix_build", "prefix_update", "window_slide", "candidate_gen", "verify"]);
    }
}
