//! An update allocates what it changes: across one `apply_update` on an
//! engine adopted from its artifact file, the new generation retains the
//! entities it appended and its tail of changed origins — a listed index over
//! them and the tokens they hold, and the variant table over its slots —
//! and nothing per origin or per token of the dictionary; the update's
//! transient peak beyond that is sized by the origins the delta changes.
//! Neither the index nor the dictionary is copied: both stay in the mapped
//! file. Ten deltas of the benchmark's shape in a row, each built while the
//! generation before it is still held, leave behind what the last one
//! retains and peak at that, the generation before and one delta's drafts.
//!
//! Until each shard held a read-only base plus a tail, a delta copied every
//! shard it touched: on the benchmark's `usjob_batch` a generation retained
//! 12.6 MiB for 64 changed origins of ~7 560, and the process peaked at two
//! such copies. Until the dictionary was held in shared parts, every
//! generation retained a heap copy of it: 975 kB of the 1.40 MB a delta's
//! generation kept on the benchmark's pubmed corpus. Until the tail was
//! listed, a generation kept four `u32`s per origin (a global variant id
//! base, the tail's variant prefix and its index's two block prefixes) and
//! one per token id: 427 591 bytes of the 430 kB a pubmed delta's generation
//! kept.
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{open_frozen, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, Dataset, DatasetProfile};
use aeetes_shard::{DictDelta, Generation, ShardedEngine};
use aeetes_text::EntityId;

/// What a generation holds beside its tail's arrays and its appended
/// entities, whatever the corpus: the generation's own fields, `Arc`
/// headers, the dictionary's and the rule table's part lists, the tail's
/// superseded-origin bookkeeping while no base origin is superseded.
const BOOKKEEPING: usize = 2 << 10;

/// A delta's transient beyond what it keeps, per variant of the origins it
/// derives (now and as they were): an enumerated variant in the derivation's
/// scratch (its tokens, rules and bookkeeping), its mask and its clusters in
/// the draft, and its share of the merges' outputs.
const PER_VARIANT: usize = 256;

/// A delta's transient beyond what it keeps, whatever it changes: the
/// derivations' and the drafts' buffers at their smallest.
const PER_DELTA: usize = 16 << 10;

/// Heap bytes `generation` retains for its tail and its appended entities:
/// the tail's index (`bases` being the shared base's), its variant table —
/// a prefix entry per slot, at most one per live added origin, and a weight
/// per variant — and the tombstone list; and the global order's overlay of
/// the tokens deltas admitted (a rule can rewrite an added entity into a
/// token no variant held before), beside the flat arrays it shares.
fn tail_budget(generation: &Generation, bases: usize, base_variants: usize, added: usize) -> usize {
    let tail_index = generation.index_size_bytes() - bases;
    let tail_variants = generation.variants() - base_variants;
    let extended = generation.order().overlay_bytes();
    generation.dictionary().owned_bytes() + tail_index + 4 * (added + 1) + 8 * tail_variants + 4 * generation.removed().len() + extended + BOOKKEEPING
}

/// `count` entities of dictionary vocabulary, the `round`th such set: the
/// first half of one entity and the second half of another.
fn adds(data: &Dataset, round: usize, count: usize) -> Vec<String> {
    let n = data.dictionary.len();
    (round * count..(round + 1) * count)
        .map(|k| {
            let (a, b) = (data.dictionary.entity(EntityId((k * 7 % n) as u32)), data.dictionary.entity(EntityId(((k * 13 + 5) % n) as u32)));
            data.interner.render(&[&a[..a.len().div_ceil(2)], &b[b.len() / 2..]].concat())
        })
        .collect()
}

/// Builds `profile`'s corpus in two parts, adopts it from an artifact file,
/// prices one delta past a priming one and, when `harness` is set, ten
/// deltas of the benchmark's shape after it.
fn price_updates(name: &str, profile: DatasetProfile, harness: bool) {
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
    // The base index, shared by every generation below, and its variants.
    let (bases, base_variants) = (engine.snapshot().index_size_bytes(), engine.snapshot().variants());
    engine
        .apply_update(&DictDelta { add_entities: adds(&data, 0, CHURN), ..Default::default() }, &data.tokenizer)
        .expect("priming delta applies");
    let delta = DictDelta {
        add_entities: adds(&data, 1, CHURN),
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
    let budget = tail_budget(&new, bases, base_variants, CHURN);
    assert!(
        retained <= budget,
        "{name}: the update retains {retained} bytes, beyond {budget} bytes of appended entities, tail and bookkeeping"
    );
    // All of it stays small beside the shared index: nothing is sized by the
    // origin or the token id space.
    let kept = retained - appended;
    assert!(
        kept * 20 < shard_arrays,
        "{name}: the update keeps {kept} bytes beyond its appended entities, not under 5 % of {shard_arrays} bytes of shared index arrays"
    );
    // The delta derives its added origins now and its removed ones as they
    // were, and prices what departs from the tail.
    let delta_variants = (new.variants() - base_variants) + (old.variants() - base_variants);
    let draft_tables = PER_VARIANT * delta_variants + PER_DELTA;
    assert!(
        transient - retained <= draft_tables,
        "{name}: the update peaked {} bytes above what it retains, beyond {draft_tables} bytes for {delta_variants} variants",
        transient - retained
    );
    println!(
        "update_peak {name}: retains {retained} bytes of {budget} budgeted; keeps {kept} beside {shard_arrays} shared; peaks {} above it of \
         {draft_tables} budgeted",
        transient - retained
    );
    drop((new, old));

    if harness {
        // The benchmark's deltas: 32 adds tombstoning the 32 before, each
        // built while the generation before it is held, as a request in
        // flight holds it across a reload.
        const SET: usize = 32;
        let mut first = n + 2 * CHURN;
        engine
            .apply_update(&DictDelta { add_entities: adds(&data, 2, SET), ..Default::default() }, &data.tokenizer)
            .expect("priming delta applies");
        let mut held = engine.snapshot();
        let shared = engine.snapshot();
        let (last, retained, peak) = live_bytes::measured(|| {
            let mut last_variants = held.variants() - base_variants;
            let mut worst = 0;
            for round in 3..13 {
                let delta = DictDelta {
                    add_entities: adds(&data, round, SET),
                    remove_entities: (first..first + SET).map(|id| EntityId(id as u32)).collect(),
                    add_rules: Vec::new(),
                };
                first += SET;
                let next = engine.apply_update(&delta, &data.tokenizer).expect("delta applies");
                let variants = next.variants() - base_variants;
                worst = worst.max(variants + last_variants);
                last_variants = variants;
                held = next;
            }
            (held, worst)
        });
        let (last, worst) = last;
        let budget = tail_budget(&last, bases, base_variants, SET);
        // What the ten leave behind is the last generation's; the old
        // generation's tail and appended part (no larger than the new one's)
        // and one delta's drafts stand beside it at the peak.
        let draft_tables = PER_VARIANT * worst + PER_DELTA;
        assert!(
            retained <= budget,
            "{name}: ten deltas retain {retained} bytes, beyond {budget} bytes of the last generation's appended entities, tail and \
             bookkeeping"
        );
        assert!(
            peak <= 2 * budget + draft_tables,
            "{name}: ten deltas peak {peak} bytes above where they started, beyond two generations' {budget} bytes and {draft_tables} bytes \
             of one delta's drafts"
        );
        println!(
            "update_peak {name}: ten deltas retain {retained} bytes of {budget} budgeted and peak at {peak} of {} budgeted",
            2 * budget + draft_tables
        );
        drop((last, shared));
    }
    drop(engine);
    std::fs::remove_file(&path).expect("remove the artifact");
}

#[test]
fn an_update_allocates_its_tail_and_appended_entities_not_the_index_or_the_dictionary() {
    // The shape of the benchmark's `usjob_batch` (~23 rules per entity, the
    // index dwarfing the dictionary), of its two pubmed workloads (the
    // dictionary the larger part of the artifact) and of `dbworld_engine`.
    price_updates("usjob", DatasetProfile::usjob_like().scaled(0.05), false);
    price_updates("pubmed", DatasetProfile::pubmed_like(), true);
    price_updates("dbworld", DatasetProfile::dbworld_like(), true);
}
