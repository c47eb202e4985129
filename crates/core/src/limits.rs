//! Resource governance for extraction: wall-clock and output budgets.
//!
//! Extraction cost is input-dependent (documents and dictionaries are often
//! untrusted), so callers that serve traffic need a way to bound a single
//! call. [`ExtractLimits`] declares the budget; the engine checks it at
//! window-advance boundaries inside every strategy and between candidate
//! verifications, degrading to a *partial, well-formed* result instead of
//! running away. [`ExtractOutcome`] reports whether truncation happened.
//!
//! With no limits set (the default) the checks are branch-only — no clock
//! reads — and results are bit-for-bit identical to the unbudgeted engine.

use crate::matches::Match;
use crate::stats::ExtractStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag.
///
/// Clones share the flag; `cancel()` from any clone (e.g. a signal-handler,
/// watchdog thread, or a draining server) stops cooperating work. Batch
/// extraction consults it between documents, and an extraction whose
/// request carries it ([`crate::ExtractRequest::cancel`]) additionally checks
/// it at window-advance and verification boundaries — so cancellation stops
/// a long extraction *mid-document*, reporting `truncated = true` with the
/// exact matches found so far.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Caps applied to one extraction run. `None` fields are unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractLimits {
    /// Wall-clock budget. Checked at window-advance and verification
    /// boundaries, so overruns are bounded by the cost of one window /
    /// one verification, not detected "eventually".
    pub deadline: Option<Duration>,
    /// Maximum candidate `(substring, entity)` pairs to generate.
    pub max_candidates: Option<usize>,
    /// Maximum matches to return from verification.
    pub max_matches: Option<usize>,
    /// Ignored: it chose between running a request's shards one after
    /// another or across the worker pool, and a generation now answers every
    /// request with one window walk. Kept so that callers which set it still
    /// compile.
    pub fanout_threshold: Option<u64>,
}

impl ExtractLimits {
    /// No limits; extraction behaves exactly like the unbudgeted engine.
    pub const UNLIMITED: ExtractLimits = ExtractLimits { deadline: None, max_candidates: None, max_matches: None, fanout_threshold: None };

    /// Whether every field is unlimited.
    #[cfg(test)]
    pub(crate) fn is_unlimited(&self) -> bool {
        *self == Self::UNLIMITED
    }
}

/// An owned extraction result ([`crate::ScratchOutcome::to_outcome`], batch
/// extraction).
#[derive(Debug, Clone)]
pub struct ExtractOutcome {
    /// Matches found before any budget ran out, sorted by `(span, entity)`.
    /// When `truncated` is set this is a sound prefix of the work done —
    /// every reported match is exact and verified — but not exhaustive.
    pub matches: Vec<Match>,
    /// Whether any budget in [`ExtractLimits`] cut the run short.
    pub truncated: bool,
    /// Work counters for the (possibly partial) run.
    pub stats: ExtractStats,
    /// Per-stage timing slots of the run.
    pub stages: crate::stage::StageSlots,
}

/// Live budget state threaded through candidate generation and
/// verification. Constructed once per extraction from [`ExtractLimits`]
/// (resolving the relative deadline to an absolute [`Instant`]).
#[derive(Debug, Clone)]
pub(crate) struct Budget {
    deadline: Option<Instant>,
    max_candidates: usize,
    max_matches: usize,
    cancel: Option<CancelToken>,
    truncated: bool,
}

impl Budget {
    /// A budget that never trips (test fixtures only).
    #[cfg(test)]
    pub(crate) fn unlimited() -> Self {
        Self::start(&ExtractLimits::UNLIMITED, None)
    }

    /// Starts the clock on `limits` now. With a `cancel` token the budget
    /// additionally trips (permanently, as truncation) as soon as the token
    /// fires — checked at the same window-advance / verification boundaries
    /// as the deadline.
    pub(crate) fn start(limits: &ExtractLimits, cancel: Option<&CancelToken>) -> Self {
        Budget {
            deadline: limits.deadline.map(|d| Instant::now() + d),
            max_candidates: limits.max_candidates.unwrap_or(usize::MAX),
            max_matches: limits.max_matches.unwrap_or(usize::MAX),
            cancel: cancel.cloned(),
            truncated: false,
        }
    }

    /// Budget check at a window-advance boundary (or other unit of
    /// generation work). `produced` is the number of candidates generated
    /// so far; returns `false` — permanently — once any budget is spent.
    pub(crate) fn keep_generating(&mut self, produced: usize) -> bool {
        if self.truncated {
            return false;
        }
        if produced >= self.max_candidates || self.interrupted() {
            self.truncated = true;
            return false;
        }
        true
    }

    /// Budget check between candidate verifications. `matched` is the
    /// number of matches emitted so far.
    pub(crate) fn keep_verifying(&mut self, matched: usize) -> bool {
        if self.truncated {
            return false;
        }
        if matched >= self.max_matches || self.interrupted() {
            self.truncated = true;
            return false;
        }
        true
    }

    /// Deadline expiry or cancellation — the two asynchronous trip causes.
    /// The cancellation check is one relaxed atomic load, so cancellable
    /// extraction costs nothing measurable on the hot path.
    fn interrupted(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d) || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Whether any check tripped during this run.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut b = Budget::unlimited();
        assert!(b.keep_generating(usize::MAX - 1));
        assert!(b.keep_verifying(usize::MAX - 1));
        assert!(!b.truncated());
    }

    #[test]
    fn candidate_cap_trips_permanently() {
        let mut b = Budget::start(&ExtractLimits { max_candidates: Some(10), ..Default::default() }, None);
        assert!(b.keep_generating(9));
        assert!(!b.keep_generating(10));
        assert!(b.truncated());
        // Once tripped, stays tripped even for a smaller count.
        assert!(!b.keep_generating(0));
        assert!(!b.keep_verifying(0));
    }

    #[test]
    fn zero_candidate_budget_trips_immediately() {
        let mut b = Budget::start(&ExtractLimits { max_candidates: Some(0), ..Default::default() }, None);
        assert!(!b.keep_generating(0));
        assert!(b.truncated());
    }

    #[test]
    fn expired_deadline_trips() {
        let mut b = Budget::start(&ExtractLimits { deadline: Some(Duration::ZERO), ..Default::default() }, None);
        assert!(!b.keep_generating(0));
        assert!(b.truncated());
    }

    #[test]
    fn match_cap_only_affects_verification() {
        let mut b = Budget::start(&ExtractLimits { max_matches: Some(3), ..Default::default() }, None);
        assert!(b.keep_generating(1_000_000));
        assert!(b.keep_verifying(2));
        assert!(!b.keep_verifying(3));
        assert!(b.truncated());
    }

    #[test]
    fn cancellation_trips_mid_run() {
        let token = CancelToken::new();
        let mut b = Budget::start(&ExtractLimits::UNLIMITED, Some(&token));
        assert!(b.keep_generating(100));
        assert!(b.keep_verifying(100));
        token.cancel();
        assert!(!b.keep_generating(0), "cancellation must stop generation");
        assert!(b.truncated(), "cancellation reports as truncation");
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let token = CancelToken::new();
        let mut b = Budget::start(&ExtractLimits::UNLIMITED, Some(&token));
        assert!(b.keep_generating(usize::MAX - 1));
        assert!(b.keep_verifying(usize::MAX - 1));
        assert!(!b.truncated());
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn unlimited_constant_matches_default() {
        assert_eq!(ExtractLimits::default(), ExtractLimits::UNLIMITED);
        assert!(ExtractLimits::default().is_unlimited());
        assert!(!ExtractLimits { max_matches: Some(1), ..Default::default() }.is_unlimited());
    }
}
