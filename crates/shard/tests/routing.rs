//! Cost-threshold routing: the sharded engine's choice between the
//! shard-sequential path and pool fan-out is routing-only — results are
//! bit-identical to the monolithic engine either way — and the routing
//! counters record which path ran and survive generation turnover.
//!
//! Every test requests a 4-worker global pool up front so the fan-out
//! branch is reachable even on a single-core runner (first use wins, so
//! all tests in this binary must agree on the count).

use aeetes_core::{Aeetes, AeetesConfig, ExtractBackend, ExtractLimits, ExtractRequest, ExtractScratch, Strategy};
use aeetes_pool::Pool;
use aeetes_rules::RuleSet;
use aeetes_shard::{DictDelta, ShardedEngine};
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use proptest::prelude::*;

const STRATEGIES: [Strategy; 4] = [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy];

/// Always fan out / never fan out / default cost threshold.
const THRESHOLDS: [Option<u64>; 3] = [Some(0), Some(u64::MAX), None];

fn pool() -> &'static Pool {
    Pool::configure_global(4);
    Pool::global()
}

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

#[test]
fn threshold_routes_by_cost_and_counts() {
    assert!(pool().workers() > 1, "fan-out branch must be reachable");
    let (dict, rules, mut interner, tokenizer) = corpus(&["a b".into(), "c d e".into(), "b c".into()], &[("a".into(), "f g".into())]);
    let doc = Document::parse("a b c d e f g a b c", &tokenizer, &mut interner);
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 4);
    let generation = engine.snapshot();
    let expected = generation.extract_all(&doc, 0.7);

    let fan_out = ExtractLimits { fanout_threshold: Some(0), ..ExtractLimits::UNLIMITED };
    let sequential = ExtractLimits { fanout_threshold: Some(u64::MAX), ..ExtractLimits::UNLIMITED };

    let mut scratch = ExtractScratch::new();
    let (seq0, fan0) = generation.routing_stats();
    assert_eq!(generation.extract_scratched(&doc, 0.7, &fan_out, None, &mut scratch).matches, expected);
    let (seq1, fan1) = generation.routing_stats();
    assert_eq!((seq1, fan1), (seq0, fan0 + 1), "threshold 0 must fan out");

    assert_eq!(generation.extract_scratched(&doc, 0.7, &sequential, None, &mut scratch).matches, expected);
    let (seq2, fan2) = generation.routing_stats();
    assert_eq!((seq2, fan2), (seq1 + 1, fan1), "threshold MAX must stay sequential");
}

#[test]
fn routing_counters_survive_generation_turnover() {
    let _ = pool();
    let (dict, rules, mut interner, tokenizer) = corpus(&["a b".into(), "c d".into()], &[]);
    let doc = Document::parse("a b c d", &tokenizer, &mut interner);
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 3);

    let limits = ExtractLimits { fanout_threshold: Some(u64::MAX), ..ExtractLimits::UNLIMITED };
    let before = engine.snapshot();
    before.extract_scratched(&doc, 0.7, &limits, None, &mut ExtractScratch::new());
    let (seq_before, _) = before.routing_stats();
    assert!(seq_before >= 1);

    let delta = DictDelta { add_entities: vec!["e f".into()], remove_entities: vec![], add_rules: vec![] };
    let after = engine.apply_update(&delta, &tokenizer).expect("delta applies");
    let (seq_after, _) = after.routing_stats();
    assert_eq!(seq_after, seq_before, "new generation adopts the running counters");
}

proptest! {
    /// Routing is invisible in the output: for every threshold (always
    /// fan out, never, default cost rule) the sharded result is
    /// bit-identical to the monolithic engine across strategies, for
    /// thresholded and top-k requests alike.
    #[test]
    fn routing_is_bit_identical(entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 1..8),
                                rule_pairs in proptest::collection::vec(("[a-d]", "[e-h]( [e-h]){0,2}"), 0..4),
                                doc_text in "[a-h]( [a-h]){0,25}",
                                strategy_idx in 0usize..4,
                                shards_idx in 0usize..3,
                                top_k in 0usize..4) {
        let _ = pool();
        let shards = [2, 4, 7][shards_idx];
        let strategy = STRATEGIES[strategy_idx];
        let (dict, rules, mut interner, tokenizer) = corpus(&entities, &rule_pairs);
        let doc = Document::parse(&doc_text, &tokenizer, &mut interner);
        let config = AeetesConfig { strategy, ..AeetesConfig::default() };
        let mono = Aeetes::build(dict.clone(), &rules, &interner, config.clone());
        let sharded = ShardedEngine::build(dict, &rules, &interner, config, shards);
        let generation = sharded.snapshot();
        let top_k = (top_k > 0).then_some(top_k);
        let mut scratch = ExtractScratch::new();
        for tau in [0.6, 0.8, 1.0] {
            let request = ExtractRequest { top_k, ..ExtractRequest::new(tau) };
            let expected = mono.extract_request(&doc, &request, &mut scratch).to_outcome();
            for threshold in THRESHOLDS {
                let limits = ExtractLimits { fanout_threshold: threshold, ..ExtractLimits::UNLIMITED };
                let got = generation.extract_request(&doc, &ExtractRequest { limits, ..request }, &mut scratch);
                prop_assert_eq!(
                    got.matches, expected.matches.as_slice(),
                    "strategy={:?} shards={} tau={} top_k={:?} threshold={:?}", strategy, shards, tau, top_k, threshold
                );
                prop_assert_eq!(got.truncated, expected.truncated);
            }
        }
    }
}
