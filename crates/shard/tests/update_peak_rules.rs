//! A delta that adds rules allocates the rules it adds: across one
//! `apply_update` that adds eight rules to an engine adopted from its artifact
//! file on the benchmark's pubmed corpus, the new generation's rule table
//! shares every part of the old one and owns only a part of its own for the
//! rules it adds, and the update retains beyond that only the tail of the
//! origins the rules touch and a superseded bit per base origin. The rule
//! lookups such a delta builds in passing are sized by the tokens and rules
//! they are built for, not by the token id range.
//!
//! Until the rule table was held in shared parts, such a delta copied the
//! whole table (`Arc::make_mut`) and built a second table of just the fresh
//! rules to test which origins they touch. Until a lookup numbered its
//! tokens densely, the added rules' lookup peaked at 55 432 bytes (a counter
//! per token id up to the largest side token) and one over five tokens at
//! 2 264 (a bit and a prefix count per 64 ids).
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::{open_frozen, AeetesConfig, ExtractBackend};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_rules::{RuleId, RuleSet};
use aeetes_shard::{DictDelta, RuleDelta, ShardedEngine};
use aeetes_text::{EntityId, TokenId};

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
    // A priming delta, so that the measured one builds on a tailed
    // generation.
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
    // The part: each rule's side tokens and two offsets, pushed one by one,
    // so its arrays may hold as much again spare. No first-token lookup:
    // each derive builds its own and drops it.
    let side_tokens: usize = new.rules().part_sides().last().map_or(0, |(t, _)| t.len());
    let part_budget = 2 * 4 * (side_tokens + 2 * RULES + 1);
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

    // Each lookup such a delta builds is sized by what it is handed, not by
    // the token ids: the added rules' own, for the scan of the origins they
    // reach, and one over a few origins' tokens under the whole table, as
    // the derive of those origins builds. Either peaks at a few slots and
    // counters per token and a head per side it files.
    const PER_ITEM: usize = 128;
    let mut fresh = RuleSet::new();
    for id in old.rules().len()..new.rules().len() {
        let rule = new.rules().rule(RuleId(id as u32));
        fresh.push_tokens(rule.lhs, rule.rhs, rule.weight).expect("a rule of the table");
    }
    let (_, _, reach) = live_bytes::measured(|| drop(fresh.lookup_all()));
    let reach_budget = PER_ITEM * 2 * RULES + 512;
    assert!(reach <= reach_budget, "the added rules' lookup peaks at {reach} bytes, beyond {reach_budget} for {RULES} rules");
    // The dictionary's last two entities: among the last interned, their
    // tokens have ids near the top of the range.
    let tokens: Vec<TokenId> = (n - 2..n).flat_map(|e| data.dictionary.entity(EntityId(e as u32)).to_vec()).collect();
    let (_, _, derive) = live_bytes::measured(|| drop(new.rules().lookup(tokens.iter().copied())));
    let derive_budget = PER_ITEM * tokens.len() + 1024;
    assert!(derive <= derive_budget, "a lookup of {} tokens peaks at {derive} bytes, beyond {derive_budget}", tokens.len());
    println!(
        "update_peak_rules: the added rules own {added} bytes of {part_budget} budgeted; the update retains {retained} of {budget} \
         budgeted; the added rules' lookup peaks at {reach} of {reach_budget}, a lookup of {} tokens at {derive} of {derive_budget}",
        tokens.len()
    );
    drop((new, old, engine));
    std::fs::remove_file(&path).expect("remove the artifact");
}
