//! Batch-extraction correctness over the persistent pool: bit-identity
//! with the sequential oracle, input ordering, panic isolation and
//! cancellation. These tests migrated here from `aeetes-core` when the
//! executor moved out of that crate.

use aeetes_core::{
    Aeetes, AeetesConfig, BatchOptions, CancelToken, DocError, ExtractBackend, ExtractLimits, ExtractRequest, ExtractScratch, Match, Strategy,
};
use aeetes_pool::{extract_batch_with, run_batch, Pool};
use aeetes_rules::RuleSet;
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document, Interner, TokenId, Tokenizer};
use proptest::prelude::*;

fn sample_engine(config: AeetesConfig) -> (Aeetes, Interner, Tokenizer) {
    let mut int = Interner::new();
    let tok = Tokenizer::default();
    let mut dict = Dictionary::new();
    dict.push("purdue university usa", &tok, &mut int);
    dict.push("uq au", &tok, &mut int);
    dict.push("university of wisconsin madison", &tok, &mut int);
    let mut rules = RuleSet::new();
    rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
    let engine = Aeetes::build(dict, &rules, &int, config);
    (engine, int, tok)
}

fn sample_docs(int: &mut Interner, tok: &Tokenizer) -> Vec<Document> {
    [
        "purdue university usa hosts a workshop",
        "she studied at uq au last year",
        "nothing relevant here at all",
        "university of wisconsin madison and purdue university usa",
        "",
    ]
    .iter()
    .map(|t| Document::parse(t, tok, int))
    .collect()
}

/// The matches of a default-request batch on `threads` workers.
fn extract_batch(engine: &Aeetes, docs: &[Document], tau: f64, threads: usize) -> Vec<Vec<Match>> {
    let opts = BatchOptions { threads, ..BatchOptions::default() };
    extract_batch_with(engine, docs, tau, &opts)
        .into_iter()
        .map(|r| r.expect("healthy batch").matches)
        .collect()
}

#[test]
fn parallel_matches_serial() {
    let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
    let docs = sample_docs(&mut int, &tok);
    let serial: Vec<_> = docs.iter().map(|d| engine.extract(d, 0.8)).collect();
    for threads in [1, 2, 4, 7] {
        let batched = extract_batch(&engine, &docs, 0.8, threads);
        assert_eq!(serial, batched, "threads={threads}");
    }
}

#[test]
fn empty_docs() {
    let (engine, _, _) = sample_engine(AeetesConfig::default());
    assert!(extract_batch(&engine, &[], 0.8, 4).is_empty());
}

#[test]
fn zero_threads_runs_inline() {
    let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
    let docs = sample_docs(&mut int, &tok);
    let serial: Vec<_> = docs.iter().map(|d| engine.extract(d, 0.8)).collect();
    assert_eq!(serial, extract_batch(&engine, &docs, 0.8, 0));
}

#[test]
fn extract_batch_with_matches_plain_extract() {
    let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
    let docs = sample_docs(&mut int, &tok);
    let opts = BatchOptions { threads: 3, ..BatchOptions::default() };
    let results = extract_batch_with(&engine, &docs, 0.8, &opts);
    assert_eq!(results.len(), docs.len());
    for (doc, r) in docs.iter().zip(&results) {
        let out = r.as_ref().expect("healthy batch");
        assert!(!out.truncated);
        assert_eq!(out.matches, engine.extract(doc, 0.8));
    }
}

/// A batch answers every document under the request its options carry.
#[test]
fn batch_carries_metric_and_top_k() {
    let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
    let docs = sample_docs(&mut int, &tok);
    let mut scratch = ExtractScratch::new();
    for (metric, top_k) in [(Some(Metric::Dice), None), (None, Some(1)), (Some(Metric::Overlap), Some(2))] {
        let opts = BatchOptions { threads: 2, metric, top_k, ..BatchOptions::default() };
        let req = ExtractRequest { metric, top_k, ..ExtractRequest::new(0.6) };
        for (doc, r) in docs.iter().zip(extract_batch_with(&engine, &docs, 0.6, &opts)) {
            assert_eq!(r.expect("healthy batch").matches, engine.extract_request(doc, &req, &mut scratch).matches, "{metric:?} {top_k:?}");
        }
    }
}

/// tau outside (0, 1] panics the extractor per document; fault isolation
/// reports every document instead of aborting, the batch path stays usable
/// afterwards, and the pool's workers survive.
#[test]
fn panicking_document_in_a_batch_is_isolated() {
    let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
    let docs = sample_docs(&mut int, &tok);
    for threads in [1, 2, 4] {
        let opts = BatchOptions { threads, ..BatchOptions::default() };
        let results = extract_batch_with(&engine, &docs, 2.0, &opts);
        assert_eq!(results.len(), docs.len());
        for r in &results {
            assert!(matches!(r, Err(DocError::Panicked(msg)) if msg.contains("similarity threshold")), "{r:?}");
        }
    }
    // A healthy batch through the same path (and the same workers) still
    // works afterwards.
    let opts = BatchOptions { threads: 2, ..BatchOptions::default() };
    let ok = extract_batch_with(&engine, &docs, 0.8, &opts);
    assert!(ok.iter().all(|r| r.is_ok()));
    assert!(!ok[0].as_ref().unwrap().matches.is_empty());
}

#[test]
fn cancelled_batch_reports_every_document() {
    let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
    let docs = sample_docs(&mut int, &tok);
    let cancel = CancelToken::new();
    cancel.cancel();
    let opts = BatchOptions { threads: 4, cancel, ..BatchOptions::default() };
    let results = extract_batch_with(&engine, &docs, 0.8, &opts);
    assert_eq!(results.len(), docs.len());
    for r in &results {
        assert_eq!(r.as_ref().unwrap_err(), &DocError::Cancelled);
    }
}

#[test]
fn zero_candidate_budget_truncates_every_document() {
    let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
    let docs = sample_docs(&mut int, &tok);
    let limits = ExtractLimits { max_candidates: Some(0), ..ExtractLimits::UNLIMITED };
    let opts = BatchOptions { threads: 2, limits, ..BatchOptions::default() };
    for r in extract_batch_with(&engine, &docs, 0.8, &opts) {
        let out = r.expect("budget truncation is not an error");
        assert!(out.truncated);
        assert!(out.matches.is_empty());
    }
}

/// `run_batch` failure injection: one panicking item neither poisons the
/// batch nor kills the worker that ran it.
#[test]
fn one_panicking_item_does_not_poison_the_batch() {
    let pool = Pool::new(3);
    let results = run_batch(&pool, 16, 3, &CancelToken::new(), |i, _scratch| {
        assert!(i != 7, "injected failure at item 7");
        i * 2
    });
    assert_eq!(results.len(), 16);
    for (i, r) in results.iter().enumerate() {
        if i == 7 {
            assert!(matches!(r, Err(DocError::Panicked(msg)) if msg.contains("injected failure")), "{r:?}");
        } else {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
    }
    // The pool still has all three workers executing afterwards.
    let again = run_batch(&pool, 8, 3, &CancelToken::new(), |i, _| i);
    assert!(again.iter().enumerate().all(|(i, r)| *r.as_ref().unwrap() == i));
}

/// A fired token cancels items not yet started while items already done
/// keep their results (input-order reporting).
#[test]
fn fired_token_cancels_remaining_items() {
    let pool = Pool::new(2);
    let cancel = CancelToken::new();
    let trip = cancel.clone();
    let results = run_batch(&pool, 12, 2, &cancel, move |i, _| {
        if i == 0 {
            trip.cancel();
        }
        i
    });
    assert_eq!(results.len(), 12);
    // At least one item ran (whichever claimed before the trip) and at
    // least one was cancelled; every slot is one or the other.
    assert!(results.iter().any(|r| r.is_ok()));
    assert!(results.iter().any(|r| matches!(r, Err(DocError::Cancelled))));
    for r in &results {
        assert!(matches!(r, Ok(_) | Err(DocError::Cancelled)));
    }
}

/// What the retired batch-scaling gate existed to catch, asserted without a
/// clock: batch extraction starting threads per call (a `thread::scope`
/// around every batch once made 8 workers 0.13x as fast as one). Every
/// document of 100 batches on one persistent pool must run on a thread
/// `/proc/self/task` listed before the first of them. The check sits inside
/// the work because scoped threads are joined — gone from the listing — by
/// the time a call returns, and compares ids, not counts, because sibling
/// tests of this binary start and stop threads of their own meanwhile.
#[cfg(target_os = "linux")]
mod no_thread_per_batch {
    use super::*;
    use aeetes_core::ScratchOutcome;
    use aeetes_pool::{extract_batch_into, BatchBuf};
    use std::collections::BTreeSet;
    use std::ffi::OsString;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts the extractions that ran on a thread not in `known`.
    struct OnKnownThreads<'a> {
        engine: &'a Aeetes,
        known: BTreeSet<OsString>,
        strangers: AtomicUsize,
    }

    impl ExtractBackend for OnKnownThreads<'_> {
        fn dictionary(&self) -> &Dictionary {
            self.engine.dictionary()
        }

        fn config(&self) -> &AeetesConfig {
            self.engine.config()
        }

        fn set_len_range(&self) -> Option<(usize, usize)> {
            self.engine.set_len_range()
        }

        fn extract_request<'s>(&self, doc: &Document, req: &ExtractRequest<'_>, scratch: &'s mut ExtractScratch) -> ScratchOutcome<'s> {
            // `/proc/thread-self` -> `<pid>/task/<tid>`
            let me = std::fs::read_link("/proc/thread-self").expect("procfs");
            if !self.known.contains(me.file_name().expect("tid")) {
                self.strangers.fetch_add(1, Ordering::Relaxed);
            }
            self.engine.extract_request(doc, req, scratch)
        }
    }

    #[test]
    fn batches_start_no_thread() {
        let (engine, mut int, tok) = sample_engine(AeetesConfig::default());
        let docs = sample_docs(&mut int, &tok);
        let want: Vec<_> = docs.iter().map(|d| engine.extract(d, 0.8)).collect();
        let pool = Pool::new(2);
        let opts = BatchOptions { threads: 2, ..BatchOptions::default() };
        let mut buf = BatchBuf::new();
        extract_batch_into(&pool, &engine, &docs, 0.8, &opts, &mut buf);
        let known = std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .map(|e| e.expect("task entry").file_name())
            .collect();
        let watched = OnKnownThreads { engine: &engine, known, strangers: AtomicUsize::new(0) };
        for _ in 0..100 {
            extract_batch_into(&pool, &watched, &docs, 0.8, &opts, &mut buf);
            assert!(buf.slots().iter().map(|s| &s.matches).eq(&want));
        }
        let strangers = watched.strangers.into_inner();
        assert_eq!(strangers, 0, "{strangers} of {} extractions ran on a thread started after warm-up", 100 * docs.len());
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];
const STRATEGIES: [Strategy; 4] = [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy];

fn strategy_engine(strategy: Strategy) -> (Aeetes, Interner, Vec<TokenId>) {
    let mut interner = Interner::new();
    let ids: Vec<TokenId> = (0..8).map(|i| interner.intern(&format!("tok{i}"))).collect();
    let mut dict = Dictionary::new();
    dict.push_tokens("e0".into(), vec![ids[0], ids[1]]);
    dict.push_tokens("e1".into(), vec![ids[2], ids[3], ids[4]]);
    let config = AeetesConfig { strategy, ..AeetesConfig::default() };
    let engine = Aeetes::build(dict, &RuleSet::new(), &interner, config);
    (engine, interner, ids)
}

proptest! {
    /// Pooled batch output is bit-identical to the sequential oracle and
    /// input-ordered, across thread counts and strategies.
    #[test]
    fn pooled_batch_matches_sequential_oracle(
        doc_tokens in proptest::collection::vec(proptest::collection::vec(0u8..8, 0..20), 0..5),
        threads_idx in 0usize..3,
        strategy_idx in 0usize..4,
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let (engine, _, ids) = strategy_engine(STRATEGIES[strategy_idx]);
        let docs: Vec<Document> = doc_tokens
            .iter()
            .map(|t| Document::from_tokens(t.iter().map(|&i| ids[i as usize]).collect()))
            .collect();
        let serial: Vec<_> = docs.iter().map(|d| engine.extract(d, 0.7)).collect();
        let batched = extract_batch(&engine, &docs, 0.7, threads);
        prop_assert_eq!(serial, batched);
    }

    /// A worker panicking mid-batch (on an arbitrary document) never
    /// perturbs any other document's result, for any thread count.
    #[test]
    fn worker_panic_mid_batch_is_isolated_and_ordered(
        doc_tokens in proptest::collection::vec(proptest::collection::vec(0u8..8, 0..12), 1..6),
        threads_idx in 0usize..3,
        panic_at in 0usize..6,
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let (engine, _, ids) = strategy_engine(Strategy::Lazy);
        let docs: Vec<Document> = doc_tokens
            .iter()
            .map(|t| Document::from_tokens(t.iter().map(|&i| ids[i as usize]).collect()))
            .collect();
        let panic_at = panic_at % docs.len();
        let pool = Pool::new(threads.max(1));
        let results = run_batch(&pool, docs.len(), threads, &CancelToken::new(), |i, scratch| {
            assert!(i != panic_at, "injected panic at document {i}");
            engine.extract_scratched(&docs[i], 0.7, &ExtractLimits::UNLIMITED, None, scratch).matches.to_vec()
        });
        prop_assert_eq!(results.len(), docs.len());
        for (i, r) in results.iter().enumerate() {
            if i == panic_at {
                prop_assert!(matches!(r, Err(DocError::Panicked(_))), "{:?}", r);
            } else {
                prop_assert_eq!(r.as_ref().unwrap(), &engine.extract(&docs[i], 0.7), "document {}", i);
            }
        }
    }
}
