//! Proves the zero-allocation hot-path claim: once an [`ExtractScratch`]
//! has warmed up to its high-water capacity, repeat extraction over the
//! same document mix performs **zero** heap allocations per document, for
//! both incremental strategies (`Dynamic` and `Lazy`) and for a top-k request
//! (the ratcheted scan over the same maintained windows, its heap pooled in
//! the scratch) interleaved with them — on the monolithic engine and on a
//! sharded generation whose shard has a tail (the second probe per token, the
//! superseded-bit test and the id remap of the merge ride the same gate).
//!
//! The proof is a counting `#[global_allocator]`: every `alloc` /
//! `realloc` / `alloc_zeroed` bumps an atomic counter, and the steady-state
//! rounds assert the counter does not move. This file holds exactly one
//! test so no concurrent test can perturb the counter.
//!
//! Every steady-state outcome is additionally flushed into a registered
//! [`aeetes_obs::ExtractMetrics`] bundle — stage histograms and work
//! counters — proving the observability layer rides the hot path without
//! adding a single allocation. Handle registration happens before the
//! warm-up, exactly like a long-running server does it.
//!
//! The document-parallel batch path has the same guarantee over the
//! persistent pool; see `aeetes-pool/tests/zero_alloc_batch.rs` (its own
//! binary, for the same one-test-per-allocator reason).

use aeetes_core::{open_frozen_bytes, Aeetes, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch, Strategy};
use aeetes_rules::RuleSet;
use aeetes_shard::{DictDelta, RuleDelta, ShardedEngine};
use aeetes_text::{Dictionary, Document, EntityId, Interner, Tokenizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Flushes an outcome's stats and stage slots into the metric bundle the
/// way serve/batch workers do; must stay allocation-free.
fn flush_obs(metrics: &aeetes_obs::ExtractMetrics, out: &aeetes_core::ScratchOutcome<'_>) {
    let counts = aeetes_obs::ExtractCounts {
        accessed_entries: out.stats.accessed_entries,
        candidates: out.stats.candidates,
        verifications: out.stats.verifications,
        matches: out.stats.matches,
    };
    metrics.observe(&out.stages, &counts, out.truncated);
}

#[test]
fn steady_state_extraction_allocates_nothing() {
    let registry = aeetes_obs::MetricRegistry::new();
    let metrics = aeetes_obs::ExtractMetrics::register(&registry);
    for strategy in [Strategy::Dynamic, Strategy::Lazy] {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("purdue university usa", &tok, &mut int);
        dict.push("uq au", &tok, &mut int);
        dict.push("university of wisconsin madison", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
        rules.push_str("usa", "united states", &tok, &mut int).unwrap();
        let config = AeetesConfig { strategy, ..AeetesConfig::default() };
        let engine = Aeetes::build(dict.clone(), &rules, &int, config.clone());
        // The same dictionary with filler beside it in one shard, then a delta
        // small against that base: it splices into a tail — one added origin
        // and one whose new rule re-derives it — and supersedes two base
        // origins, one of them removed.
        for filler in ["national university of singapore", "eth zurich", "tu delft", "mit usa", "cmu usa", "ucl london uk"] {
            dict.push(filler, &tok, &mut int);
        }
        let sharded = ShardedEngine::build(dict, &rules, &int, config, 1);
        let delta = DictDelta {
            add_entities: vec!["uq madison".into()],
            remove_entities: vec![EntityId(4)],
            add_rules: vec![RuleDelta { lhs: "delft".into(), rhs: "delft university".into(), weight: 0.9 }],
        };
        let tailed = sharded.apply_update(&delta, &tok).expect("delta applies");
        // The delta must leave a tail for the gate to cover it: a tail's
        // superseded base clusters stay stored, so the tailed generation holds
        // more index entries than the rebuild it freezes to.
        let rebuilt = ShardedEngine::from_frozen(open_frozen_bytes(&tailed.freeze()).expect("open"), None).expect("adopt");
        assert!(tailed.index_entries() > rebuilt.snapshot().index_entries(), "the delta must leave a tail");
        // A mix of matching, partially-matching and irrelevant documents of
        // different lengths, parsed up front (parsing may intern).
        let docs: Vec<Document> = [
            "a visit to purdue university usa was scheduled after the university of queensland au talks",
            "nothing relevant in this one at all just plain words",
            "purdue university united states and the university of wisconsin madison and uq au",
            "uq au",
            "from tu delft university to the university of queensland madison",
            "",
        ]
        .iter()
        .map(|t| Document::parse(t, &tok, &mut int))
        .collect();
        let backends: [(&str, &dyn ExtractBackend); 2] = [("monolithic", &engine), ("tailed", &*tailed)];
        for (name, backend) in backends {
            let mut scratch = ExtractScratch::new();
            // One round: every document under the thresholded request, then
            // under a top-k one. Returns the (thresholded, top-k) match counts.
            let requests = [ExtractRequest::new(0.8), ExtractRequest { top_k: Some(3), ..ExtractRequest::new(0.6) }];
            let mut round = || {
                let mut matches = [0usize; 2];
                for doc in &docs {
                    for (req, found) in requests.iter().zip(&mut matches) {
                        let out = backend.extract_request(doc, req, &mut scratch);
                        *found += out.matches.len();
                        flush_obs(&metrics, &out);
                    }
                }
                matches
            };
            let mut warm_matches = [0; 2];
            for _ in 0..3 {
                warm_matches = round();
            }
            assert!(
                warm_matches.iter().all(|&m| m > 0),
                "{name}: fixture must produce matches for the test to mean anything: {warm_matches:?}"
            );
            let before = ALLOCS.load(Ordering::Relaxed);
            let mut steady_matches = [0; 2];
            for _ in 0..5 {
                steady_matches = round();
            }
            let delta = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(steady_matches, warm_matches, "{name}: steady-state rounds must reproduce the warmed-up result");
            assert_eq!(delta, 0, "{name}, strategy {strategy}: allocated {delta} time(s) across 5 steady-state rounds");
        }
    }
}
