//! Property tests: the sharded engine is observationally identical to the
//! monolithic engine — same matches, same scores, same variant ids — for
//! random dictionaries, rules and documents, across all four filtering
//! strategies and shard counts {1, 2, 7, 16}; updates applied as deltas
//! equal a fresh rebuild of the updated dictionary; the frozen artifact
//! round-trips.

use aeetes_core::{open_frozen_bytes, Aeetes, AeetesConfig, ExtractBackend, ShardedParts, Strategy};
use aeetes_rules::{DerivedDictionary, RuleSet};
use aeetes_shard::{DictDelta, RuleDelta, ShardedEngine};
use aeetes_text::{Dictionary, Document, EntityId, Interner, Tokenizer};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];
const STRATEGIES: [Strategy; 4] = [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy];

fn corpus(entities: &[String], rule_pairs: &[(String, String)]) -> (Dictionary, RuleSet, Interner, Tokenizer) {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut dict = Dictionary::new();
    for e in entities {
        dict.push(e, &tokenizer, &mut interner);
    }
    let mut rules = RuleSet::new();
    for (l, r) in rule_pairs {
        let _ = rules.push_str(l, r, &tokenizer, &mut interner);
    }
    (dict, rules, interner, tokenizer)
}

proptest! {
    /// The sharded engine returns bit-identical match sets to the single
    /// engine for every strategy and shard count.
    #[test]
    fn sharded_equals_monolithic(entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 1..8),
                                 rule_pairs in proptest::collection::vec(("[a-d]", "[e-h]( [e-h]){0,2}"), 0..4),
                                 doc_text in "[a-h]( [a-h]){0,25}") {
        let (dict, rules, mut interner, tokenizer) = corpus(&entities, &rule_pairs);
        let doc = Document::parse(&doc_text, &tokenizer, &mut interner);
        for strategy in STRATEGIES {
            let config = AeetesConfig { strategy, ..AeetesConfig::default() };
            let mono = Aeetes::build(dict.clone(), &rules, &interner, config.clone());
            for n in SHARD_COUNTS {
                let sharded = ShardedEngine::build(dict.clone(), &rules, &interner, config.clone(), n);
                let generation = sharded.snapshot();
                for tau in [0.6, 0.8, 1.0] {
                    prop_assert_eq!(
                        generation.extract_all(&doc, tau),
                        mono.extract(&doc, tau),
                        "strategy={:?} shards={} tau={}", strategy, n, tau
                    );
                }
            }
        }
    }

    /// Applying a delta (add entities + rules, remove an entity) equals
    /// rebuilding a fresh engine over the post-delta dictionary.
    #[test]
    fn delta_equals_fresh_rebuild(entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 2..6),
                                  added in proptest::collection::vec("[a-f]( [a-f]){0,3}", 0..3),
                                  new_rule in ("[a-d]", "[e-h]( [e-h]){0,2}"),
                                  remove_idx in 0usize..2,
                                  doc_text in "[a-h]( [a-h]){0,25}") {
        let (dict, rules, interner, tokenizer) = corpus(&entities, &[]);
        for n in [1, 3, 16] {
            let engine = ShardedEngine::build(dict.clone(), &rules, &interner, AeetesConfig::default(), n);
            let delta = DictDelta {
                add_entities: added.clone(),
                remove_entities: vec![EntityId(remove_idx as u32)],
                add_rules: vec![RuleDelta { lhs: new_rule.0.clone(), rhs: new_rule.1.clone(), weight: 1.0 }],
            };
            let generation = engine.apply_update(&delta, &tokenizer).expect("delta applies");

            // The oracle: a monolithic engine over the post-delta dictionary,
            // derived with the same tombstone filter the delta applies (the
            // removed origin keeps its id slot but contributes no variants).
            let mut fresh_interner = interner.clone();
            let mut fresh_dict = dict.clone();
            for e in &added {
                fresh_dict.push(e, &tokenizer, &mut fresh_interner);
            }
            let mut fresh_rules = rules.clone();
            let _ = fresh_rules.push_str(&new_rule.0, &new_rule.1, &tokenizer, &mut fresh_interner);
            let config = AeetesConfig::default();
            let removed_id = EntityId(remove_idx as u32);
            let dd = DerivedDictionary::build_filtered(&fresh_dict, &fresh_rules, &config.derive, |e| e != removed_id);
            let mono = Aeetes::from_parts(fresh_dict, dd, &fresh_interner, config);

            // The two interners assign different ids to the same strings
            // (different intern order), so each engine parses its own copy.
            let mut doc_int = generation.interner().clone();
            let doc = Document::parse(&doc_text, &tokenizer, &mut doc_int);
            let mut mono_doc_int = fresh_interner.clone();
            let mono_doc = Document::parse(&doc_text, &tokenizer, &mut mono_doc_int);
            for tau in [0.6, 0.9] {
                prop_assert_eq!(
                    generation.extract_all(&doc, tau),
                    mono.extract(&mono_doc, tau),
                    "shards={} tau={}", n, tau
                );
            }
        }
    }

    /// The frozen artifact round-trips the engine: reopened at the stored
    /// shard count, resharded, and collapsed to a single engine all extract
    /// identically.
    #[test]
    fn sharded_persistence_round_trip(entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 1..6),
                                      rule_pairs in proptest::collection::vec(("[a-d]", "[e-h]( [e-h]){0,2}"), 0..3),
                                      doc_text in "[a-h]( [a-h]){0,25}") {
        let (dict, rules, interner, tokenizer) = corpus(&entities, &rule_pairs);
        let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 4);
        let bytes = engine.freeze();
        let open = || open_frozen_bytes(&bytes).expect("open");
        let generation = engine.snapshot();
        let mut doc_int = generation.interner().clone();
        let doc = Document::parse(&doc_text, &tokenizer, &mut doc_int);
        let expected = generation.extract_all(&doc, 0.7);

        let same = ShardedEngine::from_frozen(open(), None).expect("same count");
        prop_assert_eq!(same.snapshot().extract_all(&doc, 0.7), expected.clone());

        let resharded = ShardedEngine::from_frozen(open(), Some(9)).expect("resharded");
        prop_assert_eq!(resharded.snapshot().extract_all(&doc, 0.7), expected.clone());

        let (single, mut single_int) = ShardedParts::from(open()).into_single().expect("collapse");
        let doc2 = Document::parse(&doc_text, &tokenizer, &mut single_int);
        prop_assert_eq!(single.extract(&doc2, 0.7), expected);
    }
}
