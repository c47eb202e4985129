//! An update allocates what it changes: across one `apply_update` on an
//! engine adopted from its artifact file, the new generation retains the
//! entities it appended, its tails of changed origins and its per-origin
//! tables — beyond the appended entities and the prefixes over the origin and
//! token spaces, under 5 % of the parent's index arrays, which it shares;
//! where the index dwarfs those spaces, under 5 % with the prefixes counted —
//! and the update's transient peak beyond that is the token-id-sized tables
//! of the delta's drafts. Neither the index nor the dictionary is copied:
//! both stay in the mapped file.
//!
//! Until each shard held a read-only base plus a tail, a delta copied every
//! shard it touched: on the benchmark's `usjob_batch` a generation retained
//! 12.6 MiB for 64 changed origins of ~7 560, and the process peaked at two
//! such copies. Until the dictionary was held in shared parts, every
//! generation retained a heap copy of it: 975 kB of the 1.40 MB a delta's
//! generation kept on the benchmark's pubmed corpus.
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{open_frozen, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::{DictDelta, ShardedEngine};
use aeetes_text::EntityId;

/// What one update kept, beside what it shares.
struct Priced {
    /// Heap bytes the new generation retains beyond the entities it appended.
    kept: usize,
    /// The parent generation's index arrays, which the new one shares.
    shard_arrays: usize,
}

/// Builds `profile`'s corpus in two parts, adopts it from an artifact file
/// and prices one delta past a priming one.
fn price_an_update(name: &str, profile: DatasetProfile) -> Priced {
    const CHURN: usize = 4;
    let data = generate(&profile.with_docs(1), 12);
    let built = ShardedEngine::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default(), 2);
    let path = std::env::temp_dir().join(format!("aeetes-update-peak-{name}-{}.aeet", std::process::id()));
    std::fs::write(&path, built.freeze()).expect("write the artifact");
    drop(built);
    let parts = open_frozen(&path).expect("open");
    assert!(cfg!(not(unix)) || parts.mmapped, "{name}: the artifact is mapped");
    let engine = ShardedEngine::from_frozen(parts, None).expect("adopt");
    let n = data.dictionary.len();
    // The base index, shared by every generation below.
    let bases = engine.snapshot().index_size_bytes();
    // Deltas that add a few entities made of dictionary vocabulary and
    // tombstone the ones added before.
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
    assert!(shard_arrays > 1 << 20, "{name}: corpus too small to price an update: the index holds {shard_arrays} bytes");
    let tails = new.index_size_bytes() - bases;
    let (origins, token_ids) = (new.dictionary().len(), new.interner().len());
    // Per origin: the generation's global id base and the tail's variant
    // prefix, with as much again to spare.
    let per_origin = 16 * origins;
    // The dictionary's heap bytes are the entities the two deltas appended
    // (the part the priming delta made is shared with the old generation, or
    // merged into this one's): the rest stays in the mapped file.
    let dictionary: usize = new
        .dictionary()
        .arena_runs()
        .map(|(raws, raw_off, tokens, tok_off)| raws.len() + 4 * (raw_off.len() + tokens.len() + tok_off.len()))
        .sum();
    let appended = new.dictionary().owned_bytes();
    assert!(
        appended * 100 < dictionary,
        "{name}: the dictionary owns {appended} heap bytes of its {dictionary}, beyond the {} entities the deltas added",
        2 * CHURN
    );
    assert!(
        retained <= appended + tails + per_origin,
        "{name}: the update retains {retained} bytes for {appended} bytes of appended entities, {tails} bytes of tail \
         index and {per_origin} bytes of per-origin tables"
    );
    // What a generation with a tail costs whatever the tail holds: the
    // global id base (a `u32` per origin), the tail's variant prefix and its
    // index's block and variant-id prefixes (a `u32` per origin and one more
    // each), and its index's group prefix (at most a `u32` per token id and
    // one more). The rest — the changed origins' variants, clusters and
    // blocks, the superseded bits — must stay small beside the shared index.
    let kept = retained - appended;
    let prefixes = 4 * origins + 3 * 4 * (origins + 1) + 4 * (token_ids + 1);
    assert!(
        kept.saturating_sub(prefixes) * 20 < shard_arrays,
        "{name}: the update keeps {kept} bytes beyond its appended entities: beyond {prefixes} bytes of per-origin and \
         per-token prefixes, not under 5 % of {shard_arrays} bytes of shared index arrays"
    );
    // Side by side: a draft counts one `u32` frequency and keeps one `u16`
    // key → bit entry per token id, its clustering one `u32` start and cursor
    // per token, and the delta's derivations — the fresh one and the two
    // that price what departs — one `u32` variant prefix entry per origin
    // each.
    let draft_tables = 2 * (14 * token_ids + 12 * origins);
    assert!(
        transient - retained <= draft_tables,
        "{name}: the update peaked {} bytes above what it retains, beyond {draft_tables} bytes of draft tables",
        transient - retained
    );
    println!(
        "update_peak {name}: retains {retained} bytes of {} budgeted; keeps {kept} beside {shard_arrays} shared; peaks {} above it of {draft_tables} budgeted",
        appended + tails + per_origin,
        transient - retained
    );
    drop((new, old, engine));
    std::fs::remove_file(&path).expect("remove the artifact");
    Priced { kept, shard_arrays }
}

#[test]
fn an_update_allocates_its_tail_and_appended_entities_not_the_index_or_the_dictionary() {
    // The shape of the benchmark's `usjob_batch` (~23 rules per entity, the
    // index dwarfing the dictionary) and of its two pubmed workloads (the
    // dictionary the larger part of the artifact).
    let usjob = price_an_update("usjob", DatasetProfile::usjob_like().scaled(0.05));
    // There the prefixes fit in the 5 % too: all the update keeps beyond its
    // appended entities, per-origin tables included.
    assert!(
        usjob.kept * 20 < usjob.shard_arrays,
        "usjob: the update keeps {} bytes beyond its appended entities, not under 5 % of {} bytes of shared index arrays",
        usjob.kept,
        usjob.shard_arrays
    );
    price_an_update("pubmed", DatasetProfile::pubmed_like());
}
