//! Property tests for the extraction engine's supporting machinery:
//! window maintenance and overlap suppression. (What the engine answers,
//! on every build and open path, is the root package's `conformance`
//! harness.)

use aeetes_core::{suppress_overlaps, WindowState};
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
}
