//! The pooled twin of `aeetes-core/tests/zero_alloc.rs`: once the pool's
//! worker scratches, the result buffer ([`BatchBuf`]) and the task queues
//! have warmed to their high-water capacity, a document-parallel batch
//! over the persistent pool performs **zero** heap allocations end to
//! end — submission, claim-counter distribution, extraction, result
//! copy-out and retirement included.
//!
//! Work distribution is nondeterministic (whichever worker claims a
//! document first wins), so warm-up runs *every* document on *every*
//! worker's resident scratch via [`Pool::on_each_worker`]; after that no
//! claim order can touch a cold buffer. This file holds exactly one test
//! so no concurrent test can perturb the counting allocator.

use aeetes_core::{Aeetes, AeetesConfig, BatchOptions, ExtractBackend, ExtractLimits, Strategy};
use aeetes_pool::{extract_batch_into, BatchBuf, Pool};
use aeetes_rules::RuleSet;
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
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

#[test]
fn steady_state_pooled_batch_allocates_nothing() {
    let pool = Pool::new(2);
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
        let engine = Aeetes::build(dict, &rules, &int, config);
        let docs: Vec<Document> = [
            "a visit to purdue university usa was scheduled after the university of queensland au talks",
            "nothing relevant in this one at all just plain words",
            "purdue university united states and the university of wisconsin madison and uq au",
            "uq au",
            "",
        ]
        .iter()
        .map(|t| Document::parse(t, &tok, &mut int))
        .collect();
        // One options value for the whole run: `BatchOptions::default()`
        // mints a fresh CancelToken (an Arc — an allocation).
        let opts = BatchOptions { threads: 2, ..BatchOptions::default() };
        let mut buf = BatchBuf::new();

        // Warm-up: every worker's resident scratch sees every document, so
        // no later claim order can hit a cold buffer; then full batches warm
        // the result slots and the task queues to their high-water marks.
        pool.on_each_worker(|_, scratch| {
            for doc in &docs {
                engine.extract_scratched(doc, 0.8, &ExtractLimits::UNLIMITED, None, scratch);
            }
        });
        let mut warm_matches = 0usize;
        for _ in 0..3 {
            extract_batch_into(&pool, &engine, &docs, 0.8, &opts, &mut buf);
            warm_matches = buf.slots().iter().map(|s| s.matches.len()).sum();
        }
        assert!(warm_matches > 0, "fixture must produce matches for the test to mean anything");

        let before = ALLOCS.load(Ordering::Relaxed);
        let mut steady_matches = 0usize;
        for _ in 0..5 {
            extract_batch_into(&pool, &engine, &docs, 0.8, &opts, &mut buf);
            steady_matches = buf.slots().iter().map(|s| s.matches.len()).sum();
            assert!(buf.slots().iter().all(|s| s.error.is_none()));
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(steady_matches, warm_matches, "steady-state rounds must reproduce the warmed-up result");
        assert_eq!(delta, 0, "strategy {strategy} allocated {delta} time(s) across 5 steady-state pooled batches");
    }
}
