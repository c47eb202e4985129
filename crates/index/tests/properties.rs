//! Property tests: the clustered index is a faithful, well-clustered view
//! of the derived dictionary.

use aeetes_index::{ClusteredIndex, GlobalOrder, IdArena, Ids, IndexArenas, VALID_BIT};
use aeetes_rules::{DeriveConfig, DerivedDictionary, DerivedId, RuleSet};
use aeetes_text::{Dictionary, EntityId, Interner, TokenId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

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
        let _ = rules.push_tokens(&lt, &rt, 1.0);
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

// ---- packed masks: a variant's mask is P bits, not ⌈P/32⌉ words ----

/// The reference a block's masks are read against: each mask on its own
/// `⌈p/32⌉` words, bit `b` of word `b / 32` ⇔ pool key `b` is in the set.
type AlignedMasks = Vec<Vec<u32>>;

/// Pool sizes every packed-mask check covers: both sides of one and two
/// word boundaries, and usjob's widest pool.
const POOLS: [usize; 7] = [31, 32, 33, 63, 64, 65, 144];

/// `raw` cut to `p` bits per mask and sorted by popcount, as derivation
/// orders an origin's slots.
fn aligned_masks(p: usize, raw: &[Vec<u32>]) -> AlignedMasks {
    let words = p.div_ceil(32);
    let mut masks: AlignedMasks = raw
        .iter()
        .map(|mask| {
            (0..words)
                .map(|w| {
                    let bits = (p - 32 * w).min(32);
                    mask[w] & (!0u32 >> (32 - bits))
                })
                .collect()
        })
        .collect();
    masks.sort_by_key(|mask| mask.iter().map(|w| w.count_ones()).sum::<u32>());
    masks
}

/// A one-origin index over `masks`, stored at 16 or 32 bits: its block
/// `[p | p ranks from 7 on | the masks run together bit by bit]`, laid out
/// here one bit at a time and validated by `from_raw_parts`. The order
/// hands out 208 ranks.
fn packed_index(p: usize, masks: &AlignedMasks, narrow: bool) -> ClusteredIndex {
    let mut interner = Interner::new();
    for t in 0..208 {
        interner.intern(&format!("t{t:03}"));
    }
    let order = Arc::new(GlobalOrder::from_frequencies(vec![1; 208], &interner));
    let mut block = vec![p as u32];
    let ranks = (7..7 + p as u32).collect::<Vec<_>>();
    if narrow {
        block.extend(ranks.chunks(2).map(|pair| pair[0] | pair.get(1).map_or(0, |&r| r << 16)));
    } else {
        block.extend(ranks.iter().map(|&r| VALID_BIT | r));
    }
    let at = block.len();
    block.resize(at + (masks.len() * p).div_ceil(32), 0);
    for (slot, mask) in masks.iter().enumerate() {
        for b in (0..p).filter(|&b| mask[b / 32] >> (b % 32) & 1 != 0) {
            let bit = slot * p + b;
            block[at + bit / 32] |= 1 << (bit % 32);
        }
    }
    let arenas = IndexArenas {
        tok_groups: vec![0].into(),
        group_len: Vec::new().into(),
        group_pos: Vec::new().into(),
        group_origins: vec![0].into(),
        origin_entity: if narrow {
            IdArena::from(Vec::<u16>::new())
        } else {
            IdArena::from(Vec::<u32>::new())
        },
        block_offsets: vec![0, block.len() as u32].into(),
        blocks: block.into(),
        origin_offsets: vec![0, masks.len() as u32].into(),
    };
    ClusteredIndex::from_raw_parts(order, arenas).expect("a packed block validates")
}

/// Every reader of a packed block against the word-aligned reference: the
/// block's length, each slot's set length, keys and read-out words, and the
/// binary search over set lengths, at both widths.
fn check_packed(p: usize, masks: &AlignedMasks) -> Result<(), TestCaseError> {
    let lens: Vec<usize> = masks.iter().map(|mask| mask.iter().map(|w| w.count_ones() as usize).sum()).collect();
    for narrow in [true, false] {
        let index = packed_index(p, masks, narrow);
        let key_words = if narrow { p.div_ceil(2) } else { p };
        prop_assert_eq!(index.raw_parts().blocks.len(), 1 + key_words + (masks.len() * p).div_ceil(32));
        let block = index.block(EntityId(0));
        prop_assert_eq!((block.pool.len(), block.words(), block.ids.len()), (p, p.div_ceil(32), masks.len()));
        let mut words = vec![0u32; block.words()];
        for (slot, mask) in masks.iter().enumerate() {
            prop_assert_eq!(block.set_len(slot), lens[slot], "p {} slot {}", p, slot);
            block.mask_into(slot, &mut words);
            prop_assert_eq!(&words, mask, "p {} slot {}", p, slot);
            let keys: Vec<u32> = (0..p).filter(|&b| mask[b / 32] >> (b % 32) & 1 != 0).map(|b| VALID_BIT | (7 + b as u32)).collect();
            prop_assert_eq!(block.keys(slot).collect::<Vec<_>>(), keys, "p {} slot {}", p, slot);
        }
        for lo in 0..=p + 1 {
            prop_assert_eq!(block.first_slot_at_least(lo), lens.partition_point(|&len| len < lo), "p {} lo {}", p, lo);
        }
    }
    Ok(())
}

/// A pool of `p` tokens under the build: one entity of `base` tokens and
/// rules rewriting its first tokens into fresh ones, so that the pool holds
/// exactly `p` keys and up to 2^`rules` variants of many lengths. Every
/// slot's keys and read-out words are its variant's own keyed tokens.
fn check_built(base: usize, rhs: &[usize]) -> Result<(), TestCaseError> {
    let mut interner = Interner::new();
    let p = base + rhs.iter().sum::<usize>();
    let ids: Vec<TokenId> = (0..p).map(|i| interner.intern(&format!("w{i:03}"))).collect();
    let mut dict = Dictionary::new();
    let e = dict.push_tokens("base".into(), ids[..base].to_vec());
    let mut rules = RuleSet::new();
    let mut fresh = base;
    for (r, &len) in rhs.iter().enumerate() {
        rules.push_tokens(&[ids[r]], &ids[fresh..fresh + len], 1.0).unwrap();
        fresh += len;
    }
    let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
    let index = ClusteredIndex::build(&dd, &interner);
    let block = index.block(e);
    prop_assert_eq!(block.pool.len(), p);
    let pool: Vec<u32> = block.pool.iter().collect();
    let mut words = vec![0u32; block.words()];
    for slot in 0..block.ids.len() {
        let mut own: Vec<u32> = dd.derived(block.id(slot)).tokens.iter().map(|&t| index.order().key(t)).collect();
        own.sort_unstable();
        own.dedup();
        let mut want = vec![0u32; block.words()];
        for key in &own {
            let b = pool.binary_search(key).expect("a variant's key is in its pool");
            want[b / 32] |= 1 << (b % 32);
        }
        prop_assert_eq!(block.keys(slot).collect::<Vec<_>>(), own, "p {} slot {}", p, slot);
        prop_assert_eq!(block.set_len(slot), block.keys(slot).count());
        block.mask_into(slot, &mut words);
        prop_assert_eq!(&words, &want, "p {} slot {}", p, slot);
    }
    Ok(())
}

/// Masks of the fixed pool sizes, drawn by a xorshift of fixed seed: sparse,
/// dense and full.
#[test]
fn packed_masks_read_as_aligned_ones_at_the_word_boundaries() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as u32
    };
    for p in POOLS {
        for nv in [1, 2, 3, 5, 8, 13] {
            let raw: Vec<Vec<u32>> = (0..nv)
                .map(|v| {
                    (0..7)
                        .map(|_| match v % 3 {
                            0 => next() & next() & next(),
                            1 => next(),
                            _ => !0,
                        })
                        .collect()
                })
                .collect();
            check_packed(p, &aligned_masks(p, &raw)).unwrap();
        }
        // The pool as the build lays it out: 20 base tokens, the rest in
        // rules' right-hand sides.
        let rest = p - 20;
        check_built(20, &[rest / 3, rest / 3, rest - 2 * (rest / 3)]).unwrap();
    }
}

proptest! {
    /// Random pools of 1–200 keys, the fixed sizes among them, under 1–12
    /// popcount-sorted masks.
    #[test]
    fn packed_masks_read_as_aligned_ones(
        fixed in 0usize..2 * POOLS.len(),
        drawn in 1usize..=200,
        raw in proptest::collection::vec((proptest::collection::vec(0u32..=u32::MAX, 7), proptest::collection::vec(0u32..=u32::MAX, 7), 0usize..3), 1..=12),
    ) {
        // Half the cases take one of the fixed sizes.
        let p = POOLS.get(fixed).copied().unwrap_or(drawn);
        let raw: Vec<Vec<u32>> = raw
            .into_iter()
            .map(|(a, b, density)| a.iter().zip(&b).map(|(&a, &b)| [a & b, a, a | b][density]).collect())
            .collect();
        check_packed(p, &aligned_masks(p, &raw))?;
    }

    /// Pools the build lays out, 1–40 base tokens and up to four rules of
    /// 1–40 fresh tokens each.
    #[test]
    fn built_masks_read_as_their_variants(base in 1usize..=40, rhs in proptest::collection::vec(1usize..=40, 0..=4)) {
        let base = base.max(rhs.len());
        check_built(base, &rhs)?;
    }
}
