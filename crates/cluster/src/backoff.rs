//! Capped exponential backoff with deterministic jitter.
//!
//! Retry delays grow `base * 2^attempt` up to `cap`, and each delay is
//! jittered into `[delay/2, delay]` so a burst of requests failing over
//! from one dead replica does not re-arrive at the next one in lockstep.
//! The jitter is a pure function of `(seed, attempt)` — no clock, no
//! global RNG — so tests can assert exact schedules.

use std::time::Duration;

/// Retry delay policy: capped exponential growth, half-width jitter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Backoff {
    /// Delay before the first retry (attempt 0), pre-jitter.
    pub(crate) base: Duration,
    /// Upper bound on the pre-jitter delay.
    pub(crate) cap: Duration,
}

impl Backoff {
    /// The delay before retry number `attempt` (0-based) of the request
    /// identified by `seed`. Always in `[exp/2, exp]` where
    /// `exp = min(base * 2^attempt, cap)`.
    pub(crate) fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.base.as_nanos() as u64;
        let cap = self.cap.as_nanos() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap).max(1);
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix(seed.wrapping_add(u64::from(attempt))) % (half + 1)
        };
        Duration::from_nanos(exp - half + jitter)
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of the seed — enough to
/// decorrelate retry schedules, deterministic by construction.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_grows_then_caps() {
        let b = Backoff { base: Duration::from_millis(10), cap: Duration::from_millis(100) };
        // Pre-jitter schedule: 10, 20, 40, 80, 100, 100, ... — every
        // jittered delay lands in [exp/2, exp].
        let exp = [10u64, 20, 40, 80, 100, 100, 100];
        for (attempt, ms) in exp.iter().enumerate() {
            let d = b.delay(attempt as u32, 7).as_millis() as u64;
            assert!(d >= ms / 2 && d <= *ms, "attempt {attempt}: {d}ms outside [{}, {ms}]", ms / 2);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let b = Backoff { base: Duration::from_millis(25), cap: Duration::from_secs(2) };
        assert_eq!(b.delay(3, 42), b.delay(3, 42));
        let distinct: std::collections::HashSet<u128> = (0..32u64).map(|seed| b.delay(3, seed).as_nanos()).collect();
        assert!(distinct.len() > 16, "jitter must actually spread schedules, got {} distinct", distinct.len());
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let b = Backoff { base: Duration::from_secs(1), cap: Duration::from_secs(3) };
        assert!(b.delay(u32::MAX, 1) <= Duration::from_secs(3));
    }
}
