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
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{open_frozen_bytes, AeetesConfig};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::{DictDelta, ShardedEngine};
use aeetes_text::EntityId;

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
    let (new, retained, transient) = live_bytes::measured(|| engine.apply_update(&delta, &data.tokenizer).expect("delta applies"));

    assert_eq!((old.id() + 1, old.shard_count()), (new.id(), 2));
    assert!(retained > 2 << 20, "corpus too small to price an update: the generation retains {retained} bytes");
    assert!(
        transient as f64 <= retained as f64 * 1.10,
        "the update peaked {transient} bytes above where it started but retains {retained}: {:.1} % over",
        (transient as f64 / retained as f64 - 1.0) * 100.0
    );
}
