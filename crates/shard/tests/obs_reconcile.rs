//! Property tests: the obs metric bundle reconciles *exactly* with the
//! engine's own [`ExtractStats`] — every candidate the engine counts shows up
//! as one `aeetes_candidates_total` increment, every verified match as one
//! `aeetes_matches_total` increment, and so on — across all four filtering
//! strategies and build part counts {1, 4}. The counters are the monitoring
//! surface of the paper's Table 4 work measures, so drift between the two
//! bookkeeping paths is a correctness bug, not a display nit.

use aeetes_core::{AeetesConfig, ExtractBackend, ExtractLimits, ExtractScratch, ExtractStats, Strategy};
use aeetes_obs::{ExtractCounts, ExtractMetrics, MetricRegistry};
use aeetes_rules::RuleSet;
use aeetes_shard::ShardedEngine;
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use proptest::prelude::*;

const PART_COUNTS: [usize; 2] = [1, 4];
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

/// Flushes one extraction outcome into `metrics`, mirroring what the serve
/// and batch layers do, and returns the engine-side stats for comparison.
fn observe_doc(
    generation: &aeetes_shard::Generation,
    doc: &Document,
    tau: f64,
    scratch: &mut ExtractScratch,
    metrics: &ExtractMetrics,
) -> (ExtractStats, bool) {
    let out = generation.extract_scratched(doc, tau, &ExtractLimits::UNLIMITED, None, scratch);
    let counts = ExtractCounts {
        accessed_entries: out.stats.accessed_entries,
        candidates: out.stats.candidates,
        verifications: out.stats.verifications,
        matches: out.stats.matches,
    };
    let (stats, truncated, stages) = (out.stats, out.truncated, out.stages);
    metrics.observe(&stages, &counts, truncated);
    (stats, truncated)
}

proptest! {
    /// Counter values equal the summed engine stats, exactly, for every
    /// strategy × part count; and because the engine is
    /// observationally deterministic, candidates/matches also agree between
    /// part counts 1 and 4.
    #[test]
    fn counters_reconcile_with_extract_stats(
        entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 1..6),
        rule_pairs in proptest::collection::vec(("[a-d]", "[e-h]( [e-h]){0,2}"), 0..3),
        doc_texts in proptest::collection::vec("[a-h]( [a-h]){0,20}", 1..4),
        ) {
        let (dict, rules, mut interner, tokenizer) = corpus(&entities, &rule_pairs);
        let docs: Vec<Document> = doc_texts.iter().map(|t| Document::parse(t, &tokenizer, &mut interner)).collect();
        for strategy in STRATEGIES {
            let config = AeetesConfig { strategy, ..AeetesConfig::default() };
            let mut across_parts: Vec<(u64, u64)> = Vec::new();
            for n in PART_COUNTS {
                let engine = ShardedEngine::build(dict.clone(), &rules, &interner, config.clone(), n);
                let generation = engine.snapshot();
                let registry = MetricRegistry::new();
                let metrics = ExtractMetrics::register(&registry);
                let mut scratch = ExtractScratch::new();
                let mut expected = ExtractStats::default();
                let mut expected_truncated = 0u64;
                for doc in &docs {
                    let (stats, truncated) = observe_doc(&generation, doc, 0.7, &mut scratch, &metrics);
                    expected += stats;
                    expected_truncated += u64::from(truncated);
                }
                prop_assert_eq!(metrics.docs.value(), docs.len() as u64, "strategy={:?} parts={}", strategy, n);
                prop_assert_eq!(metrics.accessed_entries.value(), expected.accessed_entries, "strategy={:?} parts={}", strategy, n);
                prop_assert_eq!(metrics.candidates.value(), expected.candidates, "strategy={:?} parts={}", strategy, n);
                prop_assert_eq!(metrics.verifications.value(), expected.verifications, "strategy={:?} parts={}", strategy, n);
                prop_assert_eq!(metrics.matches.value(), expected.matches, "strategy={:?} parts={}", strategy, n);
                prop_assert_eq!(metrics.truncated.value(), expected_truncated, "strategy={:?} parts={}", strategy, n);
                across_parts.push((expected.candidates, expected.matches));
            }
            // Candidate generation and match sets do not depend on the build partition.
            prop_assert_eq!(across_parts[0].0, across_parts[1].0, "candidates diverge across part counts, strategy={:?}", strategy);
            prop_assert_eq!(across_parts[0].1, across_parts[1].1, "matches diverge across part counts, strategy={:?}", strategy);
        }
    }
}

/// A deterministic truncated run: with `max_matches = 1` and two mentions in
/// the document, the outcome is truncated and the obs bundle records exactly
/// one truncation alongside the partial counters.
#[test]
fn truncation_increments_truncated_counter() {
    let (dict, rules, mut interner, tokenizer) = corpus(&["a".into(), "b".into()], &[]);
    let doc = Document::parse("a b a b", &tokenizer, &mut interner);
    for n in PART_COUNTS {
        let engine = ShardedEngine::build(dict.clone(), &rules, &interner, AeetesConfig::default(), n);
        let generation = engine.snapshot();
        let registry = MetricRegistry::new();
        let metrics = ExtractMetrics::register(&registry);
        let limits = ExtractLimits { max_matches: Some(1), ..ExtractLimits::UNLIMITED };
        let mut scratch = ExtractScratch::new();
        let out = generation.extract_scratched(&doc, 1.0, &limits, None, &mut scratch);
        assert!(out.truncated, "parts={n}: two exact mentions against max_matches=1 must truncate");
        let counts = ExtractCounts {
            accessed_entries: out.stats.accessed_entries,
            candidates: out.stats.candidates,
            verifications: out.stats.verifications,
            matches: out.stats.matches,
        };
        let (stats, truncated, stages) = (out.stats, out.truncated, out.stages);
        metrics.observe(&stages, &counts, truncated);
        assert_eq!(metrics.truncated.value(), 1, "parts={n}");
        assert_eq!(metrics.matches.value(), stats.matches, "parts={n}");
        assert_eq!(metrics.matches.value(), 1, "parts={n}");
    }
}
