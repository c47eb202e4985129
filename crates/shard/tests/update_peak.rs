//! An update's transient memory is the delta's, not the index's: across one
//! `apply_update` the peak of live heap bytes exceeds what the new generation
//! retains by at most a tenth.
//!
//! The next generation is its spliced shards plus copies of the small META
//! structures; everything else an update allocates — the changed origins'
//! derivations and their index, the flags — is sized by the delta. The
//! whole-shard rebuild this replaced also held a sort record per posting
//! (8 bytes against the ~9 a posting then cost at rest) and dictionary arenas
//! grown by doubling, and peaked half a generation above what it kept.
//!
//! The proof is a `#[global_allocator]` that tracks live bytes and their
//! high-water mark. This file holds exactly one test so no concurrent test
//! can perturb the counters.

use aeetes_core::{open_frozen_bytes, AeetesConfig};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::{DictDelta, ShardedEngine};
use aeetes_text::EntityId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct LiveBytes;

// SAFETY: delegates every operation to `System` unchanged; the counters are
// a side effect only.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn an_update_peaks_within_a_tenth_of_what_it_retains() {
    const CHURN: usize = 4;
    // The shape of the benchmark's `usjob_batch`: ~23 rules per entity, two
    // shards adopted from the artifact, deltas that add a few entities made
    // of dictionary vocabulary and tombstone the ones added before.
    let data = generate(&DatasetProfile::usjob_like().scaled(0.05).with_docs(1), 12);
    let built = ShardedEngine::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default(), 2);
    let engine = ShardedEngine::from_frozen(open_frozen_bytes(&built.freeze()).expect("open"), None).expect("adopt");
    let n = data.dictionary.len();
    let adds = |round: usize| -> Vec<String> {
        (round * CHURN..(round + 1) * CHURN)
            .map(|k| {
                let (a, b) = (data.dictionary.entity(EntityId((k * 7 % n) as u32)), data.dictionary.entity(EntityId(((k * 13 + 5) % n) as u32)));
                data.interner.render(&[&a[..a.len().div_ceil(2)], &b[b.len() / 2..]].concat())
            })
            .collect()
    };
    engine
        .apply_update(&DictDelta { add_entities: adds(0), ..Default::default() }, &data.tokenizer)
        .expect("priming delta applies");
    let delta = DictDelta {
        add_entities: adds(1),
        remove_entities: (n..n + CHURN).map(|id| EntityId(id as u32)).collect(),
        add_rules: Vec::new(),
    };

    // Held across the update, so that what stays allocated afterwards is the
    // new generation in full and nothing of the old one is given back.
    let old = engine.snapshot();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let new = engine.apply_update(&delta, &data.tokenizer).expect("delta applies");
    let (peak, after) = (PEAK.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));

    assert_eq!((old.id() + 1, old.shard_count()), (new.id(), 2));
    let (retained, transient) = (after - before, peak - before);
    assert!(retained > 2 << 20, "corpus too small to price an update: the generation retains {retained} bytes");
    assert!(
        transient as f64 <= retained as f64 * 1.10,
        "the update peaked {transient} bytes above where it started but retains {retained}: {:.1} % over",
        (transient as f64 / retained as f64 - 1.0) * 100.0
    );
}
