//! Property test: a build part made by deriving straight into index blocks
//! ([`IndexDraft`], keyed once the order exists) holds, array for array, what
//! the materialised build holds — [`DerivedDictionary::build_filtered`], then
//! [`GlobalOrder::build`] over all the parts' origins, then
//! [`ClusteredIndex::build_with_order`], which stay as they were and are the
//! oracle; and the parts, concatenated, hold what one materialised build over
//! all their origins holds.

use aeetes_index::{ClusteredIndex, GlobalOrder, IndexDraft};
use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet, VariantTable};
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
            let _ = rules.push_tokens(tokens(l), tokens(r), *w);
            match again {
                1 => drop(rules.push_tokens(tokens(l), tokens(r), *w)),
                2 => drop(rules.push_tokens(tokens(r), tokens(l), *w)),
                _ => {}
            }
        }
        let config = DeriveConfig { max_derived: inst.max_derived, ..DeriveConfig::default() };
        // Contiguous ranges of the origin space, as a build partitions it.
        let n = inst.entities.len() as u32;
        let mine = |part: u32| move |e: EntityId| inst.keep >> (e.0 % 16) & 1 == 1 && (n * part / inst.parts..n * (part + 1) / inst.parts).contains(&e.0);

        let dds: Vec<DerivedDictionary> = (0..inst.parts).map(|p| DerivedDictionary::build_filtered(&dict, &rules, &config, mine(p))).collect();
        let whole = DerivedDictionary::build_filtered(&dict, &rules, &config, |e| inst.keep >> (e.0 % 16) & 1 == 1);
        let want_order = Arc::new(GlobalOrder::build(&whole, &interner));

        let drafts: Vec<IndexDraft> = (0..inst.parts).map(|p| IndexDraft::derive(&dict, &rules, &config, mine(p))).collect();
        let mut freq = vec![0u32; drafts.iter().map(|d| d.frequencies().len()).max().unwrap_or(0)];
        for draft in &drafts {
            for (sum, count) in freq.iter_mut().zip(draft.frequencies()) {
                *sum += count;
            }
        }
        let order = Arc::new(GlobalOrder::from_frequencies(freq, &interner));
        prop_assert_eq!(order.raw_parts(), want_order.raw_parts());

        let (mut tables, mut indexes) = (Vec::new(), Vec::new());
        for (dd, draft) in dds.iter().zip(drafts) {
            let (table, index) = draft.into_index(Arc::clone(&order));
            same_index(&index, &ClusteredIndex::build_with_order(dd, Arc::clone(&want_order)))?;
            prop_assert_eq!(table.raw_arenas(), dd.raw_arenas());
            prop_assert_eq!(table.stats(), dd.stats());
            tables.push(table);
            indexes.push(index);
        }
        let table = VariantTable::concat(tables);
        prop_assert_eq!(table.raw_arenas(), whole.raw_arenas());
        prop_assert_eq!(table.stats(), whole.stats());
        same_index(&ClusteredIndex::concat(indexes), &ClusteredIndex::build_with_order(&whole, want_order))?;
    }
}

fn same_index(got: &ClusteredIndex, want: &ClusteredIndex) -> Result<(), TestCaseError> {
    let (got, want) = (got.raw_parts(), want.raw_parts());
    prop_assert_eq!(got.tok_groups, want.tok_groups);
    prop_assert_eq!(got.group_len, want.group_len);
    prop_assert_eq!(got.group_origins, want.group_origins);
    prop_assert_eq!(got.origin_entity, want.origin_entity);
    prop_assert_eq!(got.origin_min_pos, want.origin_min_pos);
    prop_assert_eq!(got.blocks, want.blocks);
    prop_assert_eq!(got.block_offsets, want.block_offsets);
    prop_assert_eq!(got.origin_offsets, want.origin_offsets);
    Ok(())
}
