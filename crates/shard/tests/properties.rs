//! Property tests: updates applied as deltas — spliced into the tail and
//! compacted into the base — equal a one-index rebuild of the updated
//! dictionary byte for byte in what they store, and answer a few documents
//! as it does. (That they answer as a rebuild does for every request shape
//! is the root package's `conformance` harness.)

use aeetes_core::{freeze_to_bytes, open_frozen_bytes, AeetesConfig, ExtractBackend, FreezeSegment, FreezeSource};
use aeetes_index::{ClusteredIndex, GlobalOrder};
use aeetes_rules::{each_distinct_token, DerivedDictionary, RuleSet};
use aeetes_shard::{DictDelta, RuleDelta, ShardedEngine};
use aeetes_text::{Dictionary, Document, EntityId, Interner, TokenId, Tokenizer};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// The oracle of the splice: after every delta the live dictionary is
/// re-derived whole under the post-delta rules, the order is extended over
/// it, and one index is built from nothing. Built from public parts only, so
/// it shares no code with `build_next`.
struct Rebuilt {
    interner: Interner,
    dict: Dictionary,
    rules: RuleSet,
    removed: BTreeSet<u32>,
    config: AeetesConfig,
    generation: u64,
    order: Arc<GlobalOrder>,
    dd: DerivedDictionary,
    index: ClusteredIndex,
}

impl Rebuilt {
    fn build(dict: Dictionary, rules: RuleSet, interner: Interner) -> Self {
        let config = AeetesConfig::default();
        let dd = DerivedDictionary::build(&dict, &rules, &config.derive);
        let order = Arc::new(GlobalOrder::build(&dd, &interner));
        let index = ClusteredIndex::build_with_order(&dd, Arc::clone(&order));
        Rebuilt {
            interner,
            dict,
            rules,
            removed: BTreeSet::new(),
            config,
            generation: 1,
            order,
            dd,
            index,
        }
    }

    fn apply(&mut self, delta: &DictDelta, tokenizer: &Tokenizer) {
        for r in &delta.add_rules {
            self.rules
                .push_weighted_str(&r.lhs, &r.rhs, r.weight, tokenizer, &mut self.interner)
                .expect("generated rules are valid");
        }
        for raw in &delta.add_entities {
            self.dict.push(raw, tokenizer, &mut self.interner);
        }
        self.removed.extend(delta.remove_entities.iter().map(|e| e.0));
        self.dd = DerivedDictionary::build_filtered(&self.dict, &self.rules, &self.config.derive, |e| !self.removed.contains(&e.0));
        // The live dictionary's token frequencies, as a build of it counts them.
        let (mut live, mut sorted) = (Vec::new(), Vec::new());
        for (_, d) in self.dd.iter() {
            each_distinct_token(d.tokens, &mut sorted, |t| {
                if live.len() <= t.idx() {
                    live.resize(t.idx() + 1, 0);
                }
                live[t.idx()] += 1;
            });
        }
        if let Some(extended) = self.order.extend_with((0..).map(TokenId).zip(live), &self.interner) {
            self.order = Arc::new(extended);
        }
        self.index = ClusteredIndex::build_with_order(&self.dd, Arc::clone(&self.order));
        self.generation += 1;
    }

    /// Everything a generation stores — the variant table, all ten index
    /// arenas and the derivation statistics, the order, dictionary, rules,
    /// tombstones and strings — as the bytes `Generation::freeze` lays them
    /// out in.
    fn freeze(&self) -> Vec<u8> {
        let removed: Vec<EntityId> = self.removed.iter().copied().map(EntityId).collect();
        freeze_to_bytes(&FreezeSource {
            interner: &self.interner,
            dict: &self.dict,
            removed: &removed,
            rules: &self.rules,
            config: &self.config,
            generation: self.generation,
            order: &self.order,
            segments: vec![FreezeSegment { dd: &self.dd, index: &self.index }],
        })
    }

    /// The set-length range the artifact does not carry.
    fn set_len_range(&self) -> Option<(usize, usize)> {
        self.index.min_set_len().zip(self.index.max_set_len())
    }

    /// An origin holding a variant of the dictionary's longest set.
    fn longest_set_origin(&self) -> Option<EntityId> {
        let (_, longest) = self.set_len_range()?;
        (0..self.dd.origins() as u32).map(EntityId).find(|&e| {
            let block = self.index.block(e);
            (0..block.ids.len()).any(|slot| block.set_len(slot) == longest)
        })
    }

    /// Every origin not tombstoned.
    fn live(&self) -> Vec<EntityId> {
        (0..self.dict.len() as u32).filter(|e| !self.removed.contains(e)).map(EntityId).collect()
    }
}

type Steps = Vec<(Vec<String>, Vec<usize>, Vec<(String, String, u8)>)>;

/// Documents over the cases' vocabulary, extracted after every step beside
/// the step's added entities.
const DOCS: [&str; 4] = ["a b c d e f g h", "h g f e d c b a", "a ! b c a d e f", "e f a b c d h g a b"];

/// Replays `steps` as deltas on engines built in {1, 2, 7} parts, heap-built
/// and frozen-adopted, with two steps forced halfway: removing an origin
/// that holds the dictionary's longest set (the set-length range must shrink
/// as a rebuild's does), then removing every live origin beside two adds,
/// which supersedes the whole base and so crosses the compaction rule before
/// the second half builds a tail on the compacted base. After every step the
/// spliced generation freezes to the one-index rebuild's bytes, reports its
/// set-length range, variant count and derivation statistics, and answers a
/// few documents of the cases' vocabulary as the rebuild does.
fn replay_against_rebuild(entities: &[String], rule_pairs: &[(String, String)], steps: &Steps) -> Result<(), TestCaseError> {
    let (dict, rules, interner, tokenizer) = corpus(entities, rule_pairs);
    let half = steps.len() / 2;
    for n in [1, 2, 7] {
        let mut oracle = Rebuilt::build(dict.clone(), rules.clone(), interner.clone());
        let built = ShardedEngine::build(dict.clone(), &rules, &interner, AeetesConfig::default(), n);
        prop_assert_eq!(&built.freeze(), &oracle.freeze(), "parts={} fresh build", n);
        let adopted = ShardedEngine::from_frozen(open_frozen_bytes(&built.freeze()).expect("open"), None).expect("adopt");
        for step in 0..steps.len() + 2 {
            let delta = match step.checked_sub(half) {
                Some(0) => DictDelta {
                    remove_entities: oracle.longest_set_origin().into_iter().collect(),
                    ..Default::default()
                },
                Some(1) => DictDelta {
                    add_entities: vec!["a b c".into(), "d e".into()],
                    remove_entities: oracle.live(),
                    add_rules: Vec::new(),
                },
                _ => {
                    let (adds, removes, new_rules) = &steps[if step < half { step } else { step - 2 }];
                    let live = oracle.dict.len();
                    DictDelta {
                        add_entities: adds.clone(),
                        remove_entities: removes.iter().map(|r| EntityId((r % live) as u32)).collect(),
                        add_rules: new_rules
                            .iter()
                            .map(|(l, r, w)| RuleDelta { lhs: l.clone(), rhs: r.clone(), weight: 1.0 / f64::from(*w) })
                            .collect(),
                    }
                }
            };
            oracle.apply(&delta, &tokenizer);
            let expected = oracle.freeze();
            let rebuilt = ShardedEngine::from_frozen(open_frozen_bytes(&expected).expect("open"), None)
                .expect("adopt")
                .snapshot();
            for (engine, origin) in [(&built, "heap-built"), (&adopted, "frozen-adopted")] {
                let generation = engine.apply_update(&delta, &tokenizer).expect("delta applies");
                let what = format!("parts={n} step={step} {origin}: {delta:?}");
                prop_assert!(generation.freeze() == expected, "{}", what);
                prop_assert_eq!(generation.set_len_range(), oracle.set_len_range(), "{}", what);
                prop_assert_eq!(generation.set_len_range(), rebuilt.set_len_range(), "{}", what);
                prop_assert_eq!(generation.variants(), rebuilt.variants(), "{}", what);
                prop_assert_eq!(generation.derive_stats(), rebuilt.derive_stats(), "{}", what);
                // What it answers: spans, entities, scores and the best
                // variant's id, which a tail's generation maps from its
                // tiers' ids to the build's.
                let mut interner = generation.interner().clone();
                for text in DOCS.iter().copied().chain(delta.add_entities.iter().map(String::as_str)) {
                    let doc = Document::parse(text, &tokenizer, &mut interner);
                    for tau in [0.5, 0.8, 1.0] {
                        prop_assert_eq!(generation.extract_all(&doc, tau), rebuilt.extract_all(&doc, tau), "{} doc={:?} tau={}", what, text, tau);
                    }
                }
            }
        }
    }
    Ok(())
}

fn delta_steps() -> impl proptest::Strategy<Value = Steps> {
    proptest::collection::vec(
        (
            proptest::collection::vec("[a-f!]( [a-f!]){0,3}", 0..3),
            proptest::collection::vec(0usize..64, 0..3),
            proptest::collection::vec(("[a-d]( [a-d]){0,1}", "[e-h]( [e-h]){0,2}", 1u8..3), 0..2),
        ),
        2..9,
    )
}

proptest! {
    /// Random delta sequences — adds (some tokenizing to nothing), removals
    /// of base, tail, added and already-removed ids, weighted rules that
    /// reach base and tail origins, or none — replayed against the rebuild
    /// (see [`replay_against_rebuild`]) in every build at the default case
    /// count.
    #[test]
    fn spliced_generation_equals_rebuilt_generation(
        entities in proptest::collection::vec("[a-f!]( [a-f!]){0,3}", 1..24),
        rule_pairs in proptest::collection::vec(("[a-d]( [a-d]){0,1}", "[e-h]( [e-h]){0,2}"), 0..4),
        steps in delta_steps(),
    ) {
        replay_against_rebuild(&entities, &rule_pairs, &steps)?;
    }
}
