//! Shared types of parallel batch extraction.
//!
//! The paper's motivating systems "receive many consumer reviews" (§1) —
//! extraction is embarrassingly parallel across documents because the
//! engine is immutable after the off-line phase. The batch *executor*
//! lives in `aeetes-pool` (persistent work-stealing workers, one resident
//! scratch each); this module keeps the types both sides of that boundary
//! share: the per-document error taxonomy, the batch options, and the
//! panic-payload formatter.

use crate::backend::ExtractRequest;
use crate::limits::{CancelToken, ExtractLimits};
use aeetes_sim::Metric;

/// Why a single document in a batch produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// Extraction of this document panicked; the payload message is
    /// preserved. Other documents in the batch are unaffected.
    Panicked(String),
    /// The batch's [`CancelToken`] fired before this document started.
    Cancelled,
}

impl std::fmt::Display for DocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DocError::Panicked(msg) => write!(f, "extraction panicked: {msg}"),
            DocError::Cancelled => write!(f, "batch cancelled before this document started"),
        }
    }
}

impl std::error::Error for DocError {}

/// Knobs for fault-isolated batch extraction (`extract_batch_with` in
/// `aeetes-pool`): the worker count plus the [`ExtractRequest`] every
/// document of the batch is answered under.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Maximum concurrent workers; `0` or `1` runs inline on the caller's
    /// thread. Clamped to the number of documents and the pool size.
    pub threads: usize,
    /// Token-set metric (default: the engine's configured one).
    pub metric: Option<Metric>,
    /// Only the `k` best matches of each document, by the bound-pruned
    /// scan (default: all of them).
    pub top_k: Option<usize>,
    /// Per-document resource limits (default: unlimited).
    pub limits: ExtractLimits,
    /// Shared cancellation flag (default: never fires). Keep a clone to
    /// cancel the batch from another thread.
    pub cancel: CancelToken,
}

impl BatchOptions {
    /// The request each document of a batch at `tau` runs.
    pub fn request(&self, tau: f64) -> ExtractRequest<'_> {
        ExtractRequest {
            metric: self.metric,
            top_k: self.top_k,
            limits: self.limits,
            cancel: Some(&self.cancel),
            ..ExtractRequest::new(tau)
        }
    }
}

/// Renders a caught panic payload as a message, preserving `&str` and
/// `String` payloads (the overwhelmingly common cases).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
