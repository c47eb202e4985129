//! Property test: a build part made by deriving straight into index blocks
//! ([`IndexDraft`], keyed once the order exists) holds, array for array, what
//! the materialised build holds — [`DerivedDictionary::build_filtered`], then
//! [`GlobalOrder::build`] over all the parts' origins, then
//! [`ClusteredIndex::build_with_order`], which stay as they were and are the
//! oracle — once spread from the origins it lists over the whole origin
//! space; and the parts, concatenated, hold what one materialised build over
//! all their origins holds.

use aeetes_index::{ClusteredIndex, GlobalOrder, IndexDraft};
use aeetes_rules::{DeriveConfig, DeriveStats, DerivedDictionary, MergePlan, RuleSet, VariantTable};
use aeetes_text::{Dictionary, EntityId, Interner, TokenId};
use proptest::prelude::*;
use std::sync::Arc;

/// Tokens entities and left-hand sides draw from: few, so that rules apply,
/// overlap, and rewrite different spans to the same sequence.
const SHORT: u8 = 5;
/// All tokens; a long right-hand side draws from the ones past `SHORT`.
const VOCAB: u8 = 120;

#[derive(Debug, Clone)]
struct Instance {
    entities: Vec<Vec<u8>>,
    /// Left-hand side, right-hand side, weight, and whether the rule is pushed
    /// a second time — as it is (1) or turned around (2): both rewrite the
    /// spans the first does to the sequence the first does.
    rules: Vec<(Vec<u8>, Vec<u8>, f64, u8)>,
    max_derived: usize,
    /// Bit `e % 16`: origin `e` is derived at all.
    keep: u16,
    parts: u32,
}

fn instance() -> impl Strategy<Value = Instance> {
    let short = |lo: usize, hi: usize| proptest::collection::vec(0..SHORT, lo..=hi);
    // Mostly one token to the left: such a rule applies wherever the token is.
    let lhs = (0u8..4, short(1, 1), short(2, 2)).prop_map(|(pick, one, two)| if pick == 0 { two } else { one });
    // Long right-hand sides bring pools past one and two mask words: two of
    // them on one entity put up to 90 new keys beside its own.
    let rhs =
        (0u8..3, short(1, 2), proptest::collection::vec(SHORT..VOCAB, 30..=45)).prop_map(|(pick, few, many)| if pick == 0 { few } else { many });
    let weight = (0usize..3).prop_map(|pick| [1.0, 0.9, 0.5][pick]);
    (
        // An entity may be empty: it keeps its id and derives nothing.
        proptest::collection::vec(short(0, 6), 1..=12),
        proptest::collection::vec((lhs, rhs, weight, 0u8..4), 0..=10),
        (0usize..4).prop_map(|pick| [2, 4, 256, 256][pick]),
        0..=u16::MAX,
        1u32..=4,
    )
        .prop_map(|(entities, rules, max_derived, keep, parts)| Instance { entities, rules, max_derived, keep, parts })
}

proptest! {
    #[test]
    fn streamed_build_equals_materialised_build(inst in instance()) {
        let mut interner = Interner::new();
        // Interned back to front, so ids and strings disagree on order.
        let ids: Vec<TokenId> = (0..VOCAB).rev().map(|i| interner.intern(&format!("tok{i:03}"))).collect();
        let tokens = |v: &[u8]| v.iter().map(|&i| ids[i as usize]).collect::<Vec<_>>();
        let mut dict = Dictionary::new();
        for e in &inst.entities {
            dict.push_tokens(format!("{e:?}"), tokens(e));
        }
        let mut rules = RuleSet::new();
        for (l, r, w, again) in &inst.rules {
            let _ = rules.push_tokens(&tokens(l), &tokens(r), *w);
            match again {
                1 => drop(rules.push_tokens(&tokens(l), &tokens(r), *w)),
                2 => drop(rules.push_tokens(&tokens(r), &tokens(l), *w)),
                _ => {}
            }
        }
        let config = DeriveConfig { max_derived: inst.max_derived, ..DeriveConfig::default() };
        // Contiguous ranges of the origin space, as a build partitions it.
        let n = inst.entities.len() as u32;
        let kept = move |e: EntityId| inst.keep >> (e.0 % 16) & 1 == 1;
        let range = |part: u32| n * part / inst.parts..n * (part + 1) / inst.parts;
        let mine = |part: u32| range(part).map(EntityId).filter(move |&e| kept(e));

        let dds: Vec<DerivedDictionary> =
            (0..inst.parts).map(|p| DerivedDictionary::build_filtered(&dict, &rules, &config, |e| kept(e) && range(p).contains(&e.0))).collect();
        let whole = DerivedDictionary::build_filtered(&dict, &rules, &config, kept);
        let want_order = Arc::new(GlobalOrder::build(&whole, &interner));

        // One lookup for the build, shared by its parts, as a build shares it.
        let lookup = rules.lookup((0..inst.parts).flat_map(&mine).flat_map(|e| dict.entity(e).iter().copied()));
        let drafts: Vec<IndexDraft> = (0..inst.parts).map(|p| IndexDraft::derive(&dict, &lookup, &config, mine(p))).collect();
        let mut freq = Vec::new();
        for draft in &drafts {
            for (t, count) in draft.frequencies() {
                if freq.len() <= t.idx() {
                    freq.resize(t.idx() + 1, 0);
                }
                freq[t.idx()] += count;
            }
        }
        let order = Arc::new(GlobalOrder::from_frequencies(freq, &interner));
        prop_assert_eq!(order.raw_parts(), want_order.raw_parts());

        // Each part, listed over its own origins, spread over the whole
        // origin space is the materialised part.
        let (mut tables, mut indexes) = (Vec::new(), Vec::new());
        for (dd, draft) in dds.iter().zip(drafts) {
            let (table, index) = draft.into_index(Arc::clone(&order));
            prop_assert!(!index.is_whole());
            let plan = MergePlan::new(&[index.slots()], |_, _| true, Some(n as usize));
            same_index(&ClusteredIndex::concat(vec![index.clone()], &plan), &ClusteredIndex::build_with_order(dd, Arc::clone(&want_order)))?;
            let spread = VariantTable::merge(&[&table], &plan, table.stats().clone());
            prop_assert_eq!(spread.raw_arenas(), dd.raw_arenas());
            prop_assert_eq!(table.stats(), dd.stats());
            tables.push(table);
            indexes.push(index);
        }
        let plan = MergePlan::new(&indexes.iter().map(ClusteredIndex::slots).collect::<Vec<_>>(), |_, _| true, Some(n as usize));
        let mut stats = DeriveStats::default();
        for table in &tables {
            stats += table.stats();
        }
        let table = VariantTable::merge(&tables.iter().collect::<Vec<_>>(), &plan, stats);
        prop_assert_eq!(table.raw_arenas(), whole.raw_arenas());
        prop_assert_eq!(table.stats(), whole.stats());
        same_index(&ClusteredIndex::concat(indexes, &plan), &ClusteredIndex::build_with_order(&whole, want_order))?;
    }
}

fn same_index(got: &ClusteredIndex, want: &ClusteredIndex) -> Result<(), TestCaseError> {
    let (got, want) = (got.raw_parts(), want.raw_parts());
    prop_assert_eq!(got.tok_groups, want.tok_groups);
    prop_assert_eq!(got.group_len, want.group_len);
    prop_assert_eq!(got.group_pos, want.group_pos);
    prop_assert_eq!(got.group_origins, want.group_origins);
    prop_assert_eq!(got.origin_entity, want.origin_entity);
    prop_assert_eq!(got.blocks, want.blocks);
    prop_assert_eq!(got.block_offsets, want.block_offsets);
    prop_assert_eq!(got.origin_offsets, want.origin_offsets);
    Ok(())
}
