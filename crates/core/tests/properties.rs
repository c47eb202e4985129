//! Property tests for the extraction engine's supporting machinery:
//! window maintenance, overlap suppression and persistence. (Batch
//! extraction properties live in the `aeetes-pool` crate with the
//! executor.)

use aeetes_core::{
    extract_segment, freeze_to_bytes, open_frozen_bytes, suppress_overlaps, Aeetes, AeetesConfig, ExtractLimits, FreezeSegment, FreezeSource,
    WindowState,
};
use aeetes_rules::RuleSet;
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use proptest::prelude::*;

proptest! {
    /// Sliding a window via remove/add matches rebuilding it from scratch,
    /// for every position and length.
    #[test]
    fn window_migrate_equals_rebuild(ranks in proptest::collection::vec(0u32..12, 1..30), l in 1usize..6) {
        prop_assume!(ranks.len() >= l);
        const UNIVERSE: usize = 12;
        let mut w = WindowState::from_ranks(UNIVERSE, ranks[0..l].iter().copied());
        for p in 1..=ranks.len() - l {
            w.remove(ranks[p - 1]);
            w.add(ranks[p + l - 1]);
            let fresh = WindowState::from_ranks(UNIVERSE, ranks[p..p + l].iter().copied());
            prop_assert_eq!(w.live_ranks(), fresh.live_ranks());
        }
    }

    /// The flat count-array window state agrees with a `BTreeMap<rank,
    /// count>` reference model (the pre-dense-remap representation) on any
    /// randomized add/remove sequence.
    #[test]
    fn window_state_matches_btreemap_model(ops in proptest::collection::vec((0u8..2, 0u32..16), 0..200)) {
        use std::collections::BTreeMap;
        const UNIVERSE: usize = 16;
        let mut w = WindowState::new();
        w.reset(UNIVERSE);
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        for &(op, rank) in &ops {
            if op == 1 {
                w.add(rank);
                *model.entry(rank).or_insert(0) += 1;
            } else if model.contains_key(&rank) {
                // Only remove what the model holds: WindowState::remove on
                // an absent rank is a contract violation, not a no-op.
                w.remove(rank);
                let c = model.get_mut(&rank).unwrap();
                *c -= 1;
                if *c == 0 {
                    model.remove(&rank);
                }
            }
            let distinct: Vec<u32> = model.keys().copied().collect();
            prop_assert_eq!(w.live_ranks(), distinct.as_slice());
            prop_assert_eq!(w.distinct_len(), distinct.len());
        }
    }

    /// Overlap suppression returns a subset of its input whose spans are
    /// pairwise disjoint, and every dropped match overlaps a kept match
    /// with a score at least as high.
    #[test]
    fn suppression_invariants(raw in proptest::collection::vec((0u32..20, 1u32..5, 0u32..4, 0u32..100), 0..20)) {
        use aeetes_core::Match;
        use aeetes_rules::DerivedId;
        use aeetes_text::{EntityId, Span};
        let input: Vec<Match> = raw
            .iter()
            .map(|&(start, len, e, score)| Match {
                entity: EntityId(e),
                span: Span { start, len },
                score: score as f64 / 100.0,
                best_variant: DerivedId(0),
            })
            .collect();
        let kept = suppress_overlaps(input.clone());
        for k in &kept {
            prop_assert!(input.iter().any(|m| m == k), "kept match not from input");
        }
        for (i, a) in kept.iter().enumerate() {
            for b in kept.iter().skip(i + 1) {
                prop_assert!(!a.span.overlaps(&b.span), "kept matches overlap");
            }
        }
        for m in &input {
            if !kept.iter().any(|k| k == m) {
                prop_assert!(
                    kept.iter().any(|k| k.span.overlaps(&m.span) && k.score >= m.score - 1e-12),
                    "dropped match {m:?} has no dominating overlap in {kept:?}"
                );
            }
        }
    }

    /// The artifact round-trips arbitrary dictionaries and rules: the
    /// reopened (frozen) engine extracts identically on arbitrary documents.
    #[test]
    fn persistence_round_trip(entities in proptest::collection::vec("[a-d]( [a-d]){0,3}", 1..5),
                              rule_pairs in proptest::collection::vec(("[a-d]", "[e-h]( [e-h]){0,2}"), 0..4),
                              doc_text in "[a-h]( [a-h]){0,25}") {
        let mut interner = Interner::new();
        let tokenizer = Tokenizer::default();
        let mut dict = Dictionary::new();
        for e in &entities {
            dict.push(e, &tokenizer, &mut interner);
        }
        let mut rules = RuleSet::new();
        for (l, r) in &rule_pairs {
            let _ = rules.push_str(l, r, &tokenizer, &mut interner);
        }
        let engine = Aeetes::build(dict, &rules, &interner, AeetesConfig::default());
        let bytes = freeze_to_bytes(&FreezeSource {
            interner: &interner,
            dict: engine.dictionary(),
            removed: &[],
            rules: &rules,
            config: engine.config(),
            generation: 1,
            order: engine.index().order(),
            segments: vec![FreezeSegment { dd: engine.derived(), index: engine.index() }],
        });
        let opened = open_frozen_bytes(&bytes).expect("round trip");
        let seg = &opened.segments[0];
        let doc_a = Document::parse(&doc_text, &tokenizer, &mut interner);
        let doc_b = Document::parse(&doc_text, &tokenizer, &mut opened.interner.clone());
        for tau in [0.7, 0.9, 1.0] {
            let config = &opened.config;
            let reopened = extract_segment(&seg.index, &seg.dd, &doc_b, tau, config.strategy, config.metric, false, None, &ExtractLimits::UNLIMITED, None);
            prop_assert_eq!(engine.extract(&doc_a, tau), reopened.matches, "tau={}", tau);
        }
    }
}
