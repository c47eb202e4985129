//! Property tests: the engine is observationally identical to the monolithic
//! engine — same matches, same scores, same variant ids — for random
//! dictionaries, rules and documents, across every request shape (strategy ×
//! metric × weighted × top-k) and build part counts {1, 2, 3, 7}, heap-built
//! and frozen-adopted; updates applied as deltas — spliced into the tail and
//! compacted into the base — equal a one-index rebuild of the updated
//! dictionary, in what they extract and byte for byte in what they store;
//! the frozen artifact round-trips.

use aeetes_core::{
    freeze_to_bytes, open_frozen_bytes, select_top_k, Aeetes, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch, FreezeSegment,
    FreezeSource, Strategy,
};
use aeetes_index::{ClusteredIndex, GlobalOrder};
use aeetes_rules::{DerivedDictionary, RuleSet};
use aeetes_shard::{DictDelta, RuleDelta, ShardedEngine};
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document, EntityId, Interner, Tokenizer};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const PART_COUNTS: [usize; 4] = [1, 2, 3, 7];
const METRICS: [Metric; 4] = [Metric::Jaccard, Metric::Dice, Metric::Cosine, Metric::Overlap];

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
        if let Some(extended) = self.order.extend(&[&self.dd], &self.interner) {
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

/// Every request shape: strategy × metric × weighted × top-k ∈ {none, 1, 3}.
fn request_shapes() -> Vec<ExtractRequest<'static>> {
    let shapes = METRICS.iter().flat_map(|&metric| Strategy::ALL.map(|strategy| (metric, strategy)));
    shapes
        .flat_map(|(metric, strategy)| [false, true].map(|weighted| (metric, strategy, weighted)))
        .flat_map(|(metric, strategy, weighted)| {
            [None, Some(1), Some(3)].map(|top_k| ExtractRequest {
                strategy: Some(strategy),
                metric: Some(metric),
                weighted,
                top_k,
                ..ExtractRequest::new(0.6)
            })
        })
        .collect()
}

type Steps = Vec<(Vec<String>, Vec<usize>, Vec<(String, String, u8)>)>;

/// Replays `steps` as deltas on engines built in {1, 2, 7} parts, heap-built
/// and frozen-adopted, with two steps forced halfway: removing an origin
/// that holds the dictionary's longest set (the set-length range must shrink
/// as a rebuild's does), then removing every live origin beside two adds,
/// which supersedes the whole base and so crosses the compaction rule before
/// the second half builds a tail on the compacted base. After every step the
/// spliced generation freezes to the one-index rebuild's bytes, reports its
/// set-length range, variant count
/// and derivation statistics, and answers `doc_text` (plus the step's adds)
/// with the rebuild's matches, scores and variant ids for the request shapes
/// `shapes(step)` picks.
fn replay_against_rebuild(
    entities: &[String],
    rule_pairs: &[(String, String)],
    steps: &Steps,
    doc_text: &str,
    shapes: impl Fn(usize) -> Vec<ExtractRequest<'static>>,
) -> Result<(), TestCaseError> {
    let (dict, rules, interner, tokenizer) = corpus(entities, rule_pairs);
    let half = steps.len() / 2;
    let mut scratch = ExtractScratch::new();
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
            let mut doc_interner = rebuilt.interner().clone();
            let doc = Document::parse(&format!("{doc_text} {}", delta.add_entities.join(" ")), &tokenizer, &mut doc_interner);
            let requests = shapes(step);
            for (engine, origin) in [(&built, "heap-built"), (&adopted, "frozen-adopted")] {
                let generation = engine.apply_update(&delta, &tokenizer).expect("delta applies");
                let what = format!("parts={n} step={step} {origin}: {delta:?}");
                prop_assert!(generation.freeze() == expected, "{}", what);
                prop_assert_eq!(generation.set_len_range(), oracle.set_len_range(), "{}", what);
                prop_assert_eq!(generation.set_len_range(), rebuilt.set_len_range(), "{}", what);
                prop_assert_eq!(generation.variants(), rebuilt.variants(), "{}", what);
                prop_assert_eq!(generation.derive_stats(), rebuilt.derive_stats(), "{}", what);
                for request in &requests {
                    let want = rebuilt.extract_request(&doc, request, &mut scratch).matches.to_vec();
                    prop_assert_eq!(generation.extract_request(&doc, request, &mut scratch).matches, want.as_slice(), "{}: {:?}", what, request);
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
    /// reach base and tail origins, or none — replayed against the rebuild (see [`replay_against_rebuild`]) in
    /// every build at the default case count. Each step compares the answers
    /// of an eighth of the request shapes, a different eighth per step; the
    /// next property compares them all.
    #[test]
    fn spliced_generation_equals_rebuilt_generation(
        entities in proptest::collection::vec("[a-f!]( [a-f!]){0,3}", 1..24),
        rule_pairs in proptest::collection::vec(("[a-d]( [a-d]){0,1}", "[e-h]( [e-h]){0,2}"), 0..4),
        steps in delta_steps(),
        doc_text in "[a-h]( [a-h]){0,15}",
        offset in 0usize..8,
    ) {
        let all = request_shapes();
        replay_against_rebuild(&entities, &rule_pairs, &steps, &doc_text, |step| {
            all.iter().enumerate().filter(|(i, _)| i % 8 == (step + offset) % 8).map(|(_, r)| *r).collect()
        })?;
    }
}

proptest! {
    // Every step answers all 96 request shapes at three part counts on two
    // engines: the default 64 cases in release (CI's `shard-equivalence`
    // job), 8 in debug builds. The property above keeps the default count in
    // every build and samples the shapes instead.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 64 }))]
    /// Delta sequences drawn as for
    /// `spliced_generation_equals_rebuilt_generation`, with every request
    /// shape compared after every step.
    #[test]
    fn spliced_generation_answers_every_request_shape_as_rebuilt(
        entities in proptest::collection::vec("[a-f!]( [a-f!]){0,3}", 1..24),
        rule_pairs in proptest::collection::vec(("[a-d]( [a-d]){0,1}", "[e-h]( [e-h]){0,2}"), 0..4),
        steps in delta_steps(),
        doc_text in "[a-h]( [a-h]){0,15}",
    ) {
        let all = request_shapes();
        replay_against_rebuild(&entities, &rule_pairs, &steps, &doc_text, |_| all.clone())?;
    }
}

proptest! {
    /// A generation — built on the heap or adopted from its own frozen
    /// image, in every part count — answers every request shape with the
    /// matches, scores and variant ids the single engine returns; and a
    /// top-k request returns what keeping the k best of the thresholded
    /// answer would.
    #[test]
    fn sharded_equals_monolithic(entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 1..8),
                                 rule_triples in proptest::collection::vec(("[a-d]", "[e-h]( [e-h]){0,2}", 1u8..3), 0..4),
                                 doc_text in "[a-h]( [a-h]){0,25}",
                                 tau_idx in 0usize..3) {
        let (dict, mut rules, mut interner, tokenizer) = corpus(&entities, &[]);
        for (l, r, w) in &rule_triples {
            let _ = rules.push_weighted_str(l, r, 1.0 / f64::from(*w), &tokenizer, &mut interner);
        }
        let doc = Document::parse(&doc_text, &tokenizer, &mut interner);
        let tau = [0.6, 0.8, 1.0][tau_idx];
        let mono = Aeetes::build(dict.clone(), &rules, &interner, AeetesConfig::default());
        let generations: Vec<_> = PART_COUNTS
            .iter()
            .flat_map(|&n| {
                let built = ShardedEngine::build(dict.clone(), &rules, &interner, AeetesConfig::default(), n);
                let adopted = ShardedEngine::from_frozen(open_frozen_bytes(&built.freeze()).expect("open"), None).expect("adopt");
                [(n, "heap-built", built.snapshot()), (n, "frozen-adopted", adopted.snapshot())]
            })
            .collect();
        let mut scratch = ExtractScratch::new();
        let shapes = METRICS.iter().flat_map(|&metric| Strategy::ALL.map(|strategy| (metric, strategy)));
        for ((metric, strategy), weighted) in shapes.flat_map(|shape| [(shape, false), (shape, true)]) {
            let all = ExtractRequest { strategy: Some(strategy), metric: Some(metric), weighted, ..ExtractRequest::new(tau) };
            let everything = mono.extract_request(&doc, &all, &mut scratch).matches.to_vec();
            for top_k in [None, Some(1), Some(3)] {
                let request = ExtractRequest { top_k, ..all };
                let expected = mono.extract_request(&doc, &request, &mut scratch).matches.to_vec();
                if let Some(k) = top_k {
                    let mut naive = everything.clone();
                    select_top_k(&mut naive, k);
                    prop_assert_eq!(&expected, &naive, "pruned != naive: {:?}", request);
                }
                for (n, origin, generation) in &generations {
                    prop_assert_eq!(
                        generation.extract_request(&doc, &request, &mut scratch).matches, expected.as_slice(),
                        "parts={} {} {:?}", n, origin, request
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
                    "parts={} tau={}", n, tau
                );
            }
        }
    }

    /// The frozen artifact round-trips the engine: reopened, it extracts
    /// identically.
    #[test]
    fn sharded_persistence_round_trip(entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 1..6),
                                      rule_pairs in proptest::collection::vec(("[a-d]", "[e-h]( [e-h]){0,2}"), 0..3),
                                      doc_text in "[a-h]( [a-h]){0,25}") {
        let (dict, rules, interner, tokenizer) = corpus(&entities, &rule_pairs);
        let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 4);
        let bytes = engine.freeze();
        let generation = engine.snapshot();
        let mut doc_int = generation.interner().clone();
        let doc = Document::parse(&doc_text, &tokenizer, &mut doc_int);
        let expected = generation.extract_all(&doc, 0.7);

        let reopened = ShardedEngine::from_frozen(open_frozen_bytes(&bytes).expect("open"), None).expect("same count");
        prop_assert_eq!(reopened.snapshot().extract_all(&doc, 0.7), expected);
    }
}
