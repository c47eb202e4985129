//! Property tests: the clustered index is a faithful, well-clustered view
//! of the derived dictionary.

use aeetes_index::{ClusteredIndex, Ids};
use aeetes_rules::{DeriveConfig, DerivedDictionary, DerivedId, RuleSet};
use aeetes_text::{Dictionary, EntityId, Interner, TokenId};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Instance {
    entities: Vec<Vec<u8>>,
    rules: Vec<(Vec<u8>, Vec<u8>)>,
}

fn instance() -> impl Strategy<Value = Instance> {
    let tok = 0u8..12;
    let seq = |lo: usize, hi: usize| proptest::collection::vec(tok.clone(), lo..=hi);
    (proptest::collection::vec(seq(1, 5), 1..6), proptest::collection::vec((seq(1, 2), seq(1, 3)), 0..4))
        .prop_map(|(entities, rules)| Instance { entities, rules })
}

/// A group's origins, in order.
fn ids_of(ids: Ids<'_>) -> impl Iterator<Item = EntityId> + '_ {
    (0..ids.len()).map(move |i| ids.get(i))
}

/// Every variant's stored set — the keys its slot's mask selects from its
/// origin's pool — by derived id.
fn stored_sets(dd: &DerivedDictionary, index: &ClusteredIndex) -> Vec<Vec<u32>> {
    let mut sets = vec![Vec::new(); dd.len()];
    for e in 0..dd.origins() {
        let block = index.block(EntityId(e as u32));
        for slot in 0..block.ids.len() {
            sets[block.id(slot).idx()] = block.keys(slot).collect();
        }
    }
    sets
}

fn build(inst: &Instance) -> (DerivedDictionary, ClusteredIndex) {
    let mut interner = Interner::new();
    let ids: Vec<TokenId> = (0..12).map(|i| interner.intern(&format!("tok{i:02}"))).collect();
    let mut dict = Dictionary::new();
    for e in &inst.entities {
        dict.push_tokens(format!("{e:?}"), e.iter().map(|&i| ids[i as usize]).collect());
    }
    let mut rules = RuleSet::new();
    for (l, r) in &inst.rules {
        let lt: Vec<TokenId> = l.iter().map(|&i| ids[i as usize]).collect();
        let rt: Vec<TokenId> = r.iter().map(|&i| ids[i as usize]).collect();
        let _ = rules.push_tokens(lt, rt, 1.0);
    }
    let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
    let index = ClusteredIndex::build(&dd, &interner);
    (dd, index)
}

proptest! {
    /// The index holds exactly one entry per `(token, |set|, origin)` such
    /// that some variant of the origin with a set of that length holds the
    /// token — no cluster missing, none to spare — and each entry's lowest
    /// position is the minimum, recomputed from the sets, of the positions
    /// the token takes in those variants.
    #[test]
    fn postings_cover_derived_sets_exactly(inst in instance()) {
        let (dd, index) = build(&inst);
        let sets = stored_sets(&dd, &index);
        let mut expected: HashMap<(TokenId, usize, EntityId), u16> = HashMap::new();
        for (id, d) in dd.iter() {
            let set = &sets[id.idx()];
            for (pos, &key) in set.iter().enumerate() {
                let lowest = expected.entry((index.order().token_of(key), set.len(), d.origin)).or_insert(u16::MAX);
                *lowest = (*lowest).min(pos as u16);
            }
        }
        let mut clusters = 0usize;
        for t in (0..64).map(TokenId) {
            let Some(tp) = index.postings(t) else { continue };
            for g in tp.groups() {
                for origin in ids_of(g.clusters()) {
                    clusters += 1;
                    prop_assert_eq!(Some(&(g.pos() as u16)), expected.get(&(t, g.len(), origin)),
                        "cluster ({:?}, {}, {:?})", t, g.len(), origin);
                }
            }
        }
        prop_assert_eq!(clusters, expected.len(), "a cluster the sets call for is missing");
        prop_assert_eq!(index.total_entries(), clusters);
    }

    /// Structural invariants: length groups ascending, origins ascending
    /// within a group, entry counts consistent, derived sets sorted
    /// strictly ascending by key — each the variant's own tokens, keyed —
    /// and an origin's slots its variant ids, ascending by set length.
    #[test]
    fn index_structure_invariants(inst in instance()) {
        let (dd, index) = build(&inst);
        for t in 0..64u32 {
            let Some(tp) = index.postings(TokenId(t)) else { continue };
            prop_assert!(tp.group_count() > 0);
            let keys: Vec<(usize, usize)> = tp.groups().map(|g| (g.len(), g.pos())).collect();
            for w in keys.windows(2) {
                prop_assert!(w[0] < w[1], "groups must strictly ascend by (length, position)");
            }
            let mut seen = std::collections::HashSet::new();
            for g in tp.groups() {
                prop_assert!(g.origin_count() > 0);
                prop_assert!(g.pos() < g.len());
                let origins: Vec<EntityId> = ids_of(g.clusters()).collect();
                prop_assert_eq!(origins.len(), g.origin_count());
                for w in origins.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
                for origin in origins {
                    prop_assert!(seen.insert((g.len(), origin)), "origin {:?} in two groups of token {}'s length {}", origin, t, g.len());
                }
            }
            prop_assert_eq!(tp.entry_count(), tp.groups().map(|g| g.origin_count()).sum::<usize>());
            // binary search helper consistency
            for lo in 0..10usize {
                let i = tp.first_group_at_least(lo);
                for (gi, g) in tp.groups().enumerate() {
                    if gi < i {
                        prop_assert!(g.len() < lo);
                    } else {
                        prop_assert!(g.len() >= lo);
                    }
                }
            }
        }
        let sets = stored_sets(&dd, &index);
        for (id, d) in dd.iter() {
            let set = &sets[id.idx()];
            for w in set.windows(2) {
                prop_assert!(w[0] < w[1], "derived set must be strictly ascending");
            }
            let mut own: Vec<u32> = d.tokens.iter().map(|&t| index.order().key(t)).collect();
            own.sort_unstable();
            own.dedup();
            prop_assert_eq!(set, &own, "variant {:?}", id);
        }
        for e in 0..dd.origins() {
            let block = index.block(EntityId(e as u32));
            let lens: Vec<usize> = (0..block.ids.len()).map(|slot| block.set_len(slot)).collect();
            prop_assert!(lens.windows(2).all(|w| w[0] <= w[1]), "origin {}'s slots must ascend by set length: {:?}", e, lens);
            prop_assert_eq!(block.ids, dd.variant_range(EntityId(e as u32)), "origin {}'s slots are its own variants, in id order", e);
        }
    }

    /// The global order really is ascending-frequency with id tie-breaks,
    /// and `min/max_set_len` bracket every derived set.
    #[test]
    fn global_order_and_length_extremes(inst in instance()) {
        let (dd, index) = build(&inst);
        let order = index.order();
        // Frequency = number of derived entities whose set contains t.
        let mut freq: HashMap<u32, u32> = HashMap::new();
        let sets = stored_sets(&dd, &index);
        for &key in sets.iter().flatten() {
            *freq.entry(index.order().token_of(key).0).or_insert(0) += 1;
        }
        for (&t, &f) in &freq {
            prop_assert_eq!(order.freq(TokenId(t)), f);
            prop_assert!(order.is_valid(TokenId(t)));
        }
        for (&a, &fa) in &freq {
            for (&b, &fb) in &freq {
                if fa < fb || (fa == fb && a < b) {
                    prop_assert!(order.key(TokenId(a)) < order.key(TokenId(b)));
                }
            }
        }
        let lens: Vec<usize> = sets.iter().map(Vec::len).filter(|&l| l > 0).collect();
        prop_assert_eq!(index.min_set_len(), lens.iter().min().copied());
        prop_assert_eq!(index.max_set_len(), lens.iter().max().copied());
        let _ = DerivedId(0);
    }
}
