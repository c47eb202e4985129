//! An update allocates what it changes: across one `apply_update` on the
//! benchmark-shaped usjob engine adopted from its artifact, the new generation
//! retains its copy of the dictionary arenas and its tails of changed origins
//! — the latter under 5 % of the parent's shard arrays, which it shares — and
//! the update's transient peak beyond that is the token-id-sized tables of the
//! delta's drafts, not the index.
//!
//! Until each shard held a read-only base plus a tail, a delta copied every
//! shard it touched: on the benchmark's `usjob_batch` a generation retained
//! 12.6 MiB for 64 changed origins of ~7 560, and the process peaked at two
//! such copies.
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{open_frozen_bytes, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::{DictDelta, ShardedEngine};
use aeetes_text::EntityId;

#[test]
fn an_update_allocates_its_tail_and_draft_tables_not_the_index() {
    const CHURN: usize = 4;
    // The shape of the benchmark's `usjob_batch`: ~23 rules per entity, two
    // shards adopted from the artifact, deltas that add a few entities made
    // of dictionary vocabulary and tombstone the ones added before.
    let data = generate(&DatasetProfile::usjob_like().scaled(0.05).with_docs(1), 12);
    let built = ShardedEngine::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default(), 2);
    let engine = ShardedEngine::from_frozen(open_frozen_bytes(&built.freeze()).expect("open"), None).expect("adopt");
    let n = data.dictionary.len();
    // The shards' bases, shared by every generation below.
    let bases = engine.snapshot().index_size_bytes();
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
    // new generation's own and nothing of the old one is given back.
    let old = engine.snapshot();
    let (new, retained, transient) = live_bytes::measured(|| engine.apply_update(&delta, &data.tokenizer).expect("delta applies"));
    assert_eq!(old.id() + 1, new.id());

    let shard_arrays = old.index_size_bytes();
    assert!(shard_arrays > 1 << 20, "corpus too small to price an update: the shards hold {shard_arrays} bytes");
    let tails = new.index_size_bytes() - bases;
    let (raws, raw_off, tokens, tok_off) = new.dictionary().raw_arenas();
    let dictionary = raws.len() + 4 * (raw_off.len() + tokens.len() + tok_off.len());
    // Per origin: the generation's global id base and, per touched shard, the
    // tail's variant prefix.
    let (origins, token_ids) = (new.dictionary().len(), new.interner().len());
    let per_origin = 16 * origins;
    assert!(
        retained <= dictionary + tails + per_origin && (retained - dictionary) * 20 < shard_arrays,
        "the update retains {retained} bytes for a {dictionary}-byte dictionary, {tails} bytes of tail index and \
         {per_origin} bytes of per-origin tables, beside {shard_arrays} bytes of shared shard arrays"
    );
    // Per touched shard, side by side: a draft counts one `u32` frequency and
    // keeps one `u16` key → bit entry per token id, its clustering one `u32`
    // start and cursor per token, and the delta's derivations — the fresh one
    // and the two that price what departs — one `u32` variant prefix entry
    // per origin each.
    let draft_tables = 2 * (14 * token_ids + 12 * origins);
    assert!(
        transient - retained <= draft_tables,
        "the update peaked {} bytes above what it retains, beyond {draft_tables} bytes of draft tables",
        transient - retained
    );
}
