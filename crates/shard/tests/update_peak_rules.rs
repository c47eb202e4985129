//! A delta that adds rules allocates the rules it adds: across one
//! `apply_update` that adds eight rules to an engine adopted from its artifact
//! file on the benchmark's pubmed corpus, the new generation's rule table
//! shares every part of the old one and owns only a part of its own for the
//! rules it adds, and the update retains beyond that only the tail of the
//! origins the rules touch and a superseded bit per base origin.
//!
//! Until the rule table was held in shared parts, such a delta copied the
//! whole table (`Arc::make_mut`) and built a second table of just the fresh
//! rules to test which origins they touch.
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{open_frozen, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::{DictDelta, RuleDelta, ShardedEngine};
use aeetes_text::EntityId;

#[test]
fn a_rule_delta_allocates_its_rules_not_a_copy_of_the_table() {
    const RULES: usize = 8;
    let data = generate(&DatasetProfile::pubmed_like().with_docs(1), 12);
    let built = ShardedEngine::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default(), 2);
    let path = std::env::temp_dir().join(format!("aeetes-update-peak-rules-{}.aeet", std::process::id()));
    std::fs::write(&path, built.freeze()).expect("write the artifact");
    drop(built);
    let engine = ShardedEngine::from_frozen(open_frozen(&path).expect("open"), None).expect("adopt");
    let n = data.dictionary.len();
    let bases = engine.snapshot().index_size_bytes();
    // A priming delta derives its entities, which builds the adopted table's
    // first-token lookup: the measured delta finds it built.
    let render = |e: usize, tokens: std::ops::Range<usize>| {
        let entity = data.dictionary.entity(EntityId((e % n) as u32));
        data.interner.render(&entity[tokens.start.min(entity.len() - 1)..tokens.end.min(entity.len())])
    };
    engine
        .apply_update(
            &DictDelta {
                add_entities: (0..4).map(|k| render(k * 7, 0..3)).collect(),
                ..Default::default()
            },
            &data.tokenizer,
        )
        .expect("priming delta applies");
    // Rules between the opening bigrams of entities: dictionary vocabulary,
    // so the interner stays shared, and each touches a few origins.
    let delta = DictDelta {
        add_rules: (0..RULES)
            .map(|k| RuleDelta { lhs: render(k * 131 + 1, 0..2), rhs: render(k * 197 + 3, 0..2), weight: 1.0 })
            .collect(),
        ..Default::default()
    };

    let old = engine.snapshot();
    let (new, retained, _) = live_bytes::measured(|| engine.apply_update(&delta, &data.tokenizer).expect("delta applies"));
    assert_eq!(new.rules().len(), old.rules().len() + RULES);

    // Every part of the old table is shared; the new one adds one of its own.
    let parts = |g: &aeetes_shard::Generation| g.rules().part_sides().map(|(t, _)| t.as_ptr()).collect::<Vec<_>>();
    let (old_parts, new_parts) = (parts(&old), parts(&new));
    assert_eq!(new_parts[..old_parts.len()], old_parts[..], "the old table's parts are shared");
    assert_eq!(new_parts.len(), old_parts.len() + 1, "the added rules take one part of their own");
    let table = old.rules().owned_bytes();
    let added = new.rules().owned_bytes() - table;
    // The part: each rule's side tokens and two offsets, and its first-token
    // lookup (per side a 16-byte entry and at most four 12-byte slots).
    let side_tokens: usize = new.rules().part_sides().last().map_or(0, |(t, _)| t.len());
    let part_budget = 4 * (side_tokens + 2 * RULES + 1) + 2 * RULES * (16 + 4 * 12);
    assert!(added <= part_budget, "the added rules own {added} bytes, beyond {part_budget}");
    assert!(added * 100 < table, "the added rules own {added} bytes beside a {table}-byte table");

    // Beside the added rules, the tail: its listed index; its variant table
    // and the superseded base origins with their variant counts, each no
    // larger than that index's per-slot prefix; a superseded bit per base
    // origin up to the highest the rules reach, the one table a generation
    // keeps per origin, and only once a delta reaches a base origin.
    const BOOKKEEPING: usize = 2 << 10;
    let tails = new.index_size_bytes() - bases;
    let superseded = new.dictionary().len() / 8;
    let budget = added + 2 * tails + superseded + BOOKKEEPING;
    assert!(
        retained <= budget,
        "the update retains {retained} bytes for {added} bytes of added rules, {tails} bytes of tail index and \
         {superseded} bytes of superseded bits: the rule table ({table} bytes) was copied"
    );
    println!("update_peak_rules: the added rules own {added} bytes of {part_budget} budgeted; the update retains {retained} of {budget} budgeted");
    drop((new, old, engine));
    std::fs::remove_file(&path).expect("remove the artifact");
}
