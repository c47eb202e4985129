//! Property tests: the clustered index is a faithful, well-clustered view
//! of the derived dictionary.

use aeetes_frozen::{pod_bytes, Arena, FrozenBuf, FrozenSlice, Pod};
use aeetes_index::{ClusteredIndex, GlobalOrder, IdArena, Ids, IndexArenas, IndexDraft, VALID_BIT};
use aeetes_rules::{DeriveConfig, DerivedDictionary, DerivedId, MergePlan, RuleSet};
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
        for t in (0..12).map(TokenId) {
            prop_assert_eq!(order.is_valid(t), freq.contains_key(&t.0), "token {:?}", t);
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

// ---- extended orders: the admitted tokens are an overlay on shared arrays ----

/// An interner of `n` tokens whose strings do not sort as their ids do, so
/// that the string tie-break is exercised.
fn scrambled(n: u32) -> Interner {
    let mut interner = Interner::new();
    for t in 0..n {
        interner.intern(&format!("s{:03}", t * 37 % 97));
    }
    interner
}

/// An arena read out of a file image, as an opened artifact's are.
fn frozen<T: Pod>(values: &[T]) -> Arena<T> {
    let bytes = pod_bytes(values);
    FrozenSlice::new(Arc::new(FrozenBuf::heap_from_bytes(bytes)), 0, bytes.len())
        .expect("an aligned image")
        .into()
}

/// What `extend_with` made before it kept an overlay: the flat arrays
/// copied, the invalid tokens `delta` counts appended after every rank by
/// `(count, string)`.
fn copied(key: &[u32], untie: &[TokenId], delta: &[(TokenId, u32)], interner: &Interner) -> (Vec<u32>, Vec<TokenId>) {
    let (mut key, mut untie) = (key.to_vec(), untie.to_vec());
    let valid = |key: &[u32], t: TokenId| key.get(t.idx()).is_some_and(|&k| k & VALID_BIT != 0);
    let mut fresh: Vec<(u32, TokenId)> = delta.iter().filter(|&&(t, n)| n > 0 && !valid(&key, t)).map(|&(t, n)| (n, t)).collect();
    fresh.sort_by(|&(f, t), &(g, u)| (f, interner.resolve(t)).cmp(&(g, interner.resolve(u))));
    fresh.dedup_by_key(|&mut (_, t)| t);
    for (_, t) in fresh {
        if key.len() <= t.idx() {
            key.extend(key.len() as u32..=t.0);
        }
        key[t.idx()] = VALID_BIT | untie.len() as u32;
        untie.push(t);
    }
    (key, untie)
}

proptest! {
    /// A chain of extensions, over a base built on the heap or read from a
    /// file image, answers every token, key and rank as the flat arrays a
    /// copy made; shares the base's arrays and holds a rank and a sorted
    /// `(token, key)` entry per admitted token beside them; and folds flat into those arrays, which an
    /// artifact writes and reads back as they are.
    #[test]
    fn extended_orders_answer_as_the_copied_arrays(
        base_freq in proptest::collection::vec(0u32..3, 0..40),
        chain in proptest::collection::vec(proptest::collection::vec((0u32..56, 0u32..4), 0..8), 1..=5),
        from_file in 0u8..2,
    ) {
        let interner = scrambled(56);
        let built = GlobalOrder::from_frequencies(base_freq, &interner);
        let base = if from_file == 1 {
            let (key, untie) = built.raw_parts();
            GlobalOrder::from_raw_parts(frozen(key), frozen(untie)).expect("a built order validates")
        } else {
            built
        };
        let (mut model_key, mut model_untie) = (base.raw_parts().0.to_vec(), base.raw_parts().1.to_vec());
        let mut order = base.clone();
        for delta in &chain {
            let delta: Vec<(TokenId, u32)> = delta.iter().map(|&(t, n)| (TokenId(t), n)).collect();
            // A delta's frequencies name each token once.
            let mut delta = delta;
            delta.sort_by_key(|&(t, _)| t);
            delta.dedup_by_key(|&mut (t, _)| t);
            let (key, untie) = copied(&model_key, &model_untie, &delta, &interner);
            match order.extend_with(delta.iter().copied(), &interner) {
                None => prop_assert_eq!(untie.len(), model_untie.len(), "an extension admitting nothing is None"),
                Some(extended) => order = extended,
            }
            (model_key, model_untie) = (key, untie);
        }
        prop_assert_eq!(order.ranks(), model_untie.len());
        prop_assert_eq!(order.tokens(), model_key.len().max(base.tokens()));
        for t in (0..60).map(TokenId) {
            let want = model_key.get(t.idx()).copied().unwrap_or(t.0);
            prop_assert_eq!(order.key(t), want, "key of {:?}", t);
            prop_assert_eq!(order.is_valid(t), want & VALID_BIT != 0);
            prop_assert_eq!(order.token_of(want), t);
        }
        for (rank, &t) in model_untie.iter().enumerate() {
            prop_assert_eq!(order.untie(rank as u32), t);
        }
        // Nothing per token id: the base's arrays are the extension's, and
        // beside them it holds a key and a rank per admitted token.
        let admitted = order.ranks() - base.ranks();
        prop_assert_eq!(order.raw_parts().0.as_ptr(), base.raw_parts().0.as_ptr());
        prop_assert_eq!(order.raw_parts().1.as_ptr(), base.raw_parts().1.as_ptr());
        prop_assert_eq!(order.overlay_bytes(), 12 * admitted);
        // Folded flat, it is the copy; written out and read back, the same.
        let flat = order.flattened();
        prop_assert_eq!(flat.is_some(), admitted > 0);
        let flat = flat.unwrap_or_else(|| order.clone());
        let grown = model_key.len().max(base.tokens());
        model_key.extend(model_key.len() as u32..grown as u32);
        prop_assert_eq!(flat.raw_parts(), (&model_key[..], &model_untie[..]));
        prop_assert_eq!(flat.overlay_bytes(), 0);
        let (key, untie) = flat.raw_parts();
        let reopened = GlobalOrder::from_raw_parts(frozen(key), frozen(untie)).expect("a folded order validates");
        prop_assert_eq!(reopened.raw_parts(), flat.raw_parts());
    }

    /// A compaction — a whole index spliced from a base and a tail keyed by
    /// an extended order — is keyed by that order folded flat.
    #[test]
    fn compaction_folds_an_extended_order_flat(inst in instance(), added in proptest::collection::vec(proptest::collection::vec(0u8..16, 1..5), 1..4)) {
        let mut interner = Interner::new();
        let ids: Vec<TokenId> = (0..16).map(|i| interner.intern(&format!("tok{i:02}"))).collect();
        let mut dict = Dictionary::new();
        for e in &inst.entities {
            dict.push_tokens(format!("{e:?}"), e.iter().map(|&i| ids[i as usize]).collect());
        }
        let config = DeriveConfig::default();
        let rules = RuleSet::new();
        let base = ClusteredIndex::build(&DerivedDictionary::build(&dict, &rules, &config), &interner);
        let first_new = dict.len() as u32;
        for e in &added {
            dict.push_tokens(format!("{e:?}"), e.iter().map(|&i| ids[i as usize]).collect());
        }
        let new: Vec<EntityId> = (first_new..dict.len() as u32).map(EntityId).collect();
        let draft = IndexDraft::derive(&dict, &rules.lookup(new.iter().flat_map(|&e| dict.entity(e).iter().copied())), &config, new.iter().copied());
        let order = Arc::new(base.order().extend_with(draft.frequencies(), &interner).unwrap_or_else(|| base.order().clone()));
        let (_, small) = draft.into_index(Arc::clone(&order));
        let plan = MergePlan::new(&[base.slots(), small.slots()], |_, _| true, Some(dict.len()));
        let whole = ClusteredIndex::splice(&base, &small, plan, |_| true);
        prop_assert!(whole.is_whole());
        prop_assert!(whole.order().flattened().is_none(), "a compacted index carries no overlay");
        prop_assert_eq!(whole.order().overlay_bytes(), 0);
        for t in ids {
            prop_assert_eq!(whole.order().key(t), order.key(t));
        }
        prop_assert_eq!(whole.order().ranks(), order.ranks());
    }
}
