//! The extraction backend abstraction.
//!
//! [`ExtractRequest`] is everything that can differ between two extractions
//! over the same engine, and [`ExtractBackend::extract_request`] — one
//! method, running inside a caller-owned scratch — is how every engine
//! answers it. [`extract_segment_scratched`] is the single code path
//! underneath: the paper's generate → verify pipeline (or the bound-pruned
//! top-k scan) over one [`Segment`] — a clustered index + variant table
//! pair, and after deltas the tail that supersedes part of it. The
//! monolithic [`Aeetes`] engine runs it over its index; a generation (crate
//! `aeetes-shard`) runs it once over its index and tail.
//! Everything else that extracts — [`Aeetes::extract`], batches, streams,
//! the CLI, the server — is a wrapper that fills in a request.

use crate::config::AeetesConfig;
use crate::extractor::Aeetes;
use crate::limits::{Budget, CancelToken, ExtractLimits, ExtractOutcome};
use crate::matches::Match;
use crate::scratch::{ExtractScratch, ScratchOutcome};
use crate::segment::Segment;
use crate::stage::{SpanClock, Stage};
use crate::stats::ExtractStats;
use crate::strategy::{generate, Strategy};
use crate::topk::top_k_segment;
use crate::verify::verify_candidates;
use aeetes_index::ClusteredIndex;
use aeetes_rules::VariantTable;
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document};

/// One extraction request. Build it with [`ExtractRequest::new`] and
/// struct-update syntax:
/// `ExtractRequest { metric: Some(Metric::Dice), ..ExtractRequest::new(0.8) }`.
#[derive(Debug, Clone, Copy)]
pub struct ExtractRequest<'a> {
    /// Similarity threshold in `(0, 1]`: every reported pair scores at
    /// least this.
    pub tau: f64,
    /// Candidate-generation strategy; `None` uses the engine's configured
    /// one. All four return identical matches (paper Fig. 10/11 ablation).
    pub strategy: Option<Strategy>,
    /// Token-set metric (paper §2.2 extension): `max over variants of
    /// metric(variant, substring) ≥ tau`. `None` uses the engine's
    /// configured one.
    pub metric: Option<Metric>,
    /// Weighted-rule scoring (paper §8 extension): a variant produced by
    /// rules with weight product `w` contributes `w · score`. With all-1.0
    /// weights this changes nothing.
    pub weighted: bool,
    /// Only the `k` best-scoring pairs, in canonical top-k order (score
    /// descending, ties by `(span, entity)`) instead of `(span, entity)`
    /// order. Found by a bound-pruned scan — the running k-th best score
    /// ratchets the threshold up from `tau` — that returns exactly what
    /// extracting everything at `tau` and keeping the best `k` would; the
    /// scan is its own strategy, so `strategy` is not consulted.
    pub top_k: Option<usize>,
    /// Resource budgets; a spent budget yields a partial (still exact)
    /// result with `truncated` set.
    pub limits: ExtractLimits,
    /// Stops the run — at the same window-advance / verification
    /// boundaries the deadline uses — when the token fires, reporting
    /// `truncated`. This is what lets a draining server or a watchdog stop
    /// a long extraction *mid-document*.
    pub cancel: Option<&'a CancelToken>,
}

impl ExtractRequest<'_> {
    /// Everything at `tau` with the engine's configured strategy and
    /// metric, unweighted, unlimited, not cancellable.
    pub fn new(tau: f64) -> Self {
        ExtractRequest {
            tau,
            strategy: None,
            metric: None,
            weighted: false,
            top_k: None,
            limits: ExtractLimits::UNLIMITED,
            cancel: None,
        }
    }
}

/// [`extract_segment_scratched`] with the request spelled positionally and
/// an owned result.
///
/// # Panics
/// Panics when `tau` is not in `(0, 1]`.
#[allow(clippy::too_many_arguments)]
pub fn extract_segment(
    index: &ClusteredIndex,
    dd: &VariantTable,
    doc: &Document,
    tau: f64,
    strategy: Strategy,
    metric: Metric,
    weighted: bool,
    set_len_bounds: Option<(usize, usize)>,
    limits: &ExtractLimits,
    cancel: Option<&CancelToken>,
) -> ExtractOutcome {
    let req = ExtractRequest {
        strategy: Some(strategy),
        metric: Some(metric),
        weighted,
        limits: *limits,
        cancel,
        ..ExtractRequest::new(tau)
    };
    let mut scratch = ExtractScratch::new();
    let (truncated, stats) = extract_segment_scratched(Segment::new(index, dd), doc, &req, &AeetesConfig::default(), set_len_bounds, &mut scratch);
    ExtractOutcome {
        matches: std::mem::take(&mut scratch.matches),
        truncated,
        stats,
        stages: scratch.stages,
    }
}

/// Answers `req` over a single index segment, entirely inside `seg`'s
/// reusable buffers: the matches land in [`ExtractScratch::matches`] —
/// sorted by `(span, entity)`, or in top-k order for a `top_k` request —
/// and, once the scratch has reached its high-water capacity, a
/// thresholded pass performs no heap allocation. This is the one window
/// walk behind every extraction API.
/// The budget derived from `req.limits`/`req.cancel` is checked at
/// window-advance and verification boundaries, so deadlines and
/// cancellation land mid-document.
///
/// `config` supplies the strategy and metric the request leaves unset.
///
/// `set_len_bounds` overrides the `(min, max)` distinct-set length range
/// that bounds window enumeration. A monolithic engine passes `None` (use
/// the base index's own range); a generation passes the range of its live
/// variants, because a tailed segment's base range still counts superseded
/// variants and misses the tail's.
///
/// # Panics
/// Panics when `req.tau` is not in `(0, 1]`.
pub fn extract_segment_scratched(
    segment: Segment<'_>,
    doc: &Document,
    req: &ExtractRequest<'_>,
    config: &AeetesConfig,
    set_len_bounds: Option<(usize, usize)>,
    seg: &mut ExtractScratch,
) -> (bool, ExtractStats) {
    let tau = req.tau;
    assert!(tau > 0.0 && tau <= 1.0, "similarity threshold must be in (0, 1], got {tau}");
    let metric = req.metric.unwrap_or(config.metric);
    let set_bounds = match set_len_bounds {
        Some((lo, hi)) => (Some(lo), Some(hi)),
        None => (segment.index.min_set_len(), segment.index.max_set_len()),
    };
    let mut stats = ExtractStats::default();
    let mut budget = Budget::start(&req.limits, req.cancel);
    if let Some(k) = req.top_k {
        top_k_segment(segment, doc, k, tau, metric, req.weighted, set_bounds, seg, &mut stats, &mut budget);
    } else {
        generate(segment, doc, tau, metric, req.strategy.unwrap_or(config.strategy), set_bounds, seg, &mut stats, &mut budget);
        // Weighted scores are ≤ unweighted scores (weights ≤ 1), so the
        // unweighted candidate filters remain sound for the weighted verify.
        let ExtractScratch { sink, s_keys, pool_keys, hits, matches, stages, .. } = seg;
        let clk = SpanClock::always();
        verify_candidates(segment, doc, tau, metric, &mut sink.pairs, &mut stats, req.weighted, &mut budget, s_keys, pool_keys, hits, matches);
        matches.sort_unstable_by_key(Match::sort_key);
        clk.stop(Stage::Verify, stages);
    }
    (budget.truncated(), stats)
}

/// An extraction engine: something that can answer similarity queries over
/// a fixed dictionary. Implemented by the monolithic [`Aeetes`] engine and
/// by the generations of crate `aeetes-shard`.
pub trait ExtractBackend: Send + Sync {
    /// The origin dictionary matches refer into.
    fn dictionary(&self) -> &Dictionary;

    /// The engine configuration.
    fn config(&self) -> &AeetesConfig;

    /// The `(min, max)` distinct token-set length range of the indexed
    /// dictionary, or `None` when it is empty. This is the range that
    /// bounds window enumeration; streaming extraction derives its tail
    /// retention from it. A generation reports the range of its live
    /// variants, for the reason [`extract_segment_scratched`] takes it.
    fn set_len_range(&self) -> Option<(usize, usize)>;

    /// Answers `req` on `doc` inside the caller-owned `scratch`, returning
    /// the matches as a slice borrowing it (valid until the scratch is used
    /// again). Matches are sorted by `(span, entity)` — or in top-k order
    /// for a `top_k` request; `truncated` reports whether any budget (or
    /// the token) cut the run short. A caller that keeps one scratch per
    /// worker and feeds it document after document gets a steady-state hot
    /// path with zero heap allocations (every buffer retains its
    /// high-water capacity between calls).
    ///
    /// # Panics
    /// Panics when `req.tau` is not in `(0, 1]`.
    fn extract_request<'s>(&self, doc: &Document, req: &ExtractRequest<'_>, scratch: &'s mut ExtractScratch) -> ScratchOutcome<'s>;

    /// [`ExtractBackend::extract_request`] for the common request: the
    /// configured strategy and metric under explicit limits and an optional
    /// cancellation token.
    fn extract_scratched<'s>(
        &self,
        doc: &Document,
        tau: f64,
        limits: &ExtractLimits,
        cancel: Option<&CancelToken>,
        scratch: &'s mut ExtractScratch,
    ) -> ScratchOutcome<'s> {
        self.extract_request(doc, &ExtractRequest { limits: *limits, cancel, ..ExtractRequest::new(tau) }, scratch)
    }

    /// Convenience: unlimited extraction into a fresh scratch, matches only.
    fn extract_all(&self, doc: &Document, tau: f64) -> Vec<Match> {
        self.extract_request(doc, &ExtractRequest::new(tau), &mut ExtractScratch::new()).matches.to_vec()
    }
}

impl ExtractBackend for Aeetes {
    fn dictionary(&self) -> &Dictionary {
        Aeetes::dictionary(self)
    }

    fn config(&self) -> &AeetesConfig {
        Aeetes::config(self)
    }

    fn set_len_range(&self) -> Option<(usize, usize)> {
        self.index().min_set_len().zip(self.index().max_set_len())
    }

    fn extract_request<'s>(&self, doc: &Document, req: &ExtractRequest<'_>, scratch: &'s mut ExtractScratch) -> ScratchOutcome<'s> {
        let (truncated, stats) = extract_segment_scratched(Segment::new(self.index(), self.derived()), doc, req, self.config(), None, scratch);
        ScratchOutcome { matches: scratch.matches(), truncated, stats, stages: scratch.stages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::RuleSet;
    use aeetes_text::{Interner, Tokenizer};

    fn engine() -> (Aeetes, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("purdue university usa", &tok, &mut int);
        dict.push("uq au", &tok, &mut int);
        let engine = Aeetes::build(dict, &RuleSet::new(), &int, AeetesConfig::default());
        (engine, int, tok)
    }

    #[test]
    fn segment_run_equals_engine_run() {
        let (engine, mut int, tok) = engine();
        let doc = Document::parse("purdue university usa then uq au", &tok, &mut int);
        let via_engine = engine.extract(&doc, 0.8);
        let via_segment = extract_segment(
            engine.index(),
            engine.derived(),
            &doc,
            0.8,
            engine.config().strategy,
            engine.config().metric,
            false,
            None,
            &ExtractLimits::UNLIMITED,
            None,
        );
        assert_eq!(via_engine, via_segment.matches);
        assert!(!via_segment.truncated);
    }

    #[test]
    fn trait_object_dispatch_works() {
        let (engine, mut int, tok) = engine();
        let doc = Document::parse("uq au", &tok, &mut int);
        let backend: &dyn ExtractBackend = &engine;
        let got = backend.extract_all(&doc, 0.9);
        assert_eq!(got, engine.extract(&doc, 0.9));
        assert_eq!(backend.dictionary().len(), 2);
        let mut scratch = ExtractScratch::new();
        let out = backend.extract_scratched(&doc, 0.9, &ExtractLimits::UNLIMITED, None, &mut scratch);
        assert_eq!(out.matches, got);
    }

    #[test]
    fn unset_request_fields_mean_the_engine_config() {
        let (engine, mut int, tok) = engine();
        let doc = Document::parse("purdue university then uq au", &tok, &mut int);
        let mut scratch = ExtractScratch::new();
        let plain = engine.extract_request(&doc, &ExtractRequest::new(0.6), &mut scratch).to_outcome();
        let spelled = ExtractRequest {
            strategy: Some(engine.config().strategy),
            metric: Some(engine.config().metric),
            ..ExtractRequest::new(0.6)
        };
        assert_eq!(engine.extract_request(&doc, &spelled, &mut scratch).matches, plain.matches);
        assert_eq!(plain.matches, engine.extract(&doc, 0.6));
        // An explicit metric is honoured: overlap scores the partial mention 1.0.
        let overlap = ExtractRequest { metric: Some(Metric::Overlap), ..ExtractRequest::new(1.0) };
        assert!(engine.extract_request(&doc, &overlap, &mut scratch).matches.len() > engine.extract(&doc, 1.0).len());
    }

    #[test]
    fn cancelled_token_truncates_via_trait() {
        let (engine, mut int, tok) = engine();
        let doc = Document::parse("purdue university usa", &tok, &mut int);
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut scratch = ExtractScratch::new();
        for top_k in [None, Some(2)] {
            let req = ExtractRequest { top_k, cancel: Some(&cancel), ..ExtractRequest::new(0.8) };
            let out = engine.extract_request(&doc, &req, &mut scratch);
            assert!(out.truncated, "top_k={top_k:?}");
            assert!(out.matches.is_empty());
        }
    }
}
