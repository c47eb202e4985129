//! The clustered inverted index (paper §3.2, Algorithm 2, Figures 3–4).
//!
//! For every token `t` the index stores one posting per derived entity
//! containing `t`: the position of `t` in that entity's globally-ordered
//! distinct token set. The paper's posting also names the derived entity;
//! here that id is implied rather than stored — candidate generation only
//! ever asks "is the position inside the τ-prefix?", and verification
//! enumerates the candidate origin's variants through
//! [`ClusteredIndex::variants_sorted`], never through postings.
//! Postings are clustered twice:
//!
//! 1. by derived-entity **length** — so a scan can batch-skip whole groups
//!    that violate the length filter, and
//! 2. within a length group by **origin entity** — so once an origin is
//!    already a candidate for the current substring, the rest of its
//!    variants' postings can be skipped in batch.
//!
//! Storage is *globally* flattened (PR 8): because tokens are laid out one
//! after another, their length groups tile the group arrays and the groups'
//! origin clusters tile the origin arrays, so the whole index is six flat
//! prefix-linked arrays (`tok_groups → group_* → origin_* → positions`)
//! held in [`Arena`]s. Built in memory they are plain vectors; opened from
//! a frozen artifact they are zero-copy windows into the file image, and
//! every lookup below works identically on both.

use crate::order::{GlobalOrder, VALID_BIT};
use aeetes_frozen::Arena;
use aeetes_rules::{rebased, splice_runs, DerivedDictionary, DerivedId};
use aeetes_text::{EntityId, Interner, TokenId};
use std::sync::Arc;

/// The inverted list of one token (the paper's `L[t]`): a borrowed window
/// over the index's group range for that token.
#[derive(Clone, Copy)]
pub struct TokenPostings<'a> {
    ix: &'a ClusteredIndex,
    /// Global group-index range `[gs, ge)` of this token's length groups.
    gs: u32,
    ge: u32,
}

/// Borrowed view of one length group (the paper's `Lₗ[t]`).
#[derive(Clone, Copy)]
pub struct LengthGroup<'a> {
    ix: &'a ClusteredIndex,
    /// Global group index.
    g: u32,
}

/// Borrowed view of one origin cluster (the paper's `Lₑˡ[t]`).
#[derive(Clone, Copy)]
pub struct OriginGroup<'a> {
    /// The origin entity all these derived entities stem from.
    pub origin: EntityId,
    /// One posting per variant of this origin with the group's length, in
    /// ascending derived-id order: the token's position in the variant's
    /// ordered set (0-based). The prefix filter discards positions
    /// `≥ prefix_len(len, τ)`.
    pub positions: &'a [u16],
}

impl<'a> TokenPostings<'a> {
    /// Total number of postings under this token.
    pub fn entry_count(&self) -> usize {
        let os = self.ix.group_origins[self.gs as usize] as usize;
        let oe = self.ix.group_origins[self.ge as usize] as usize;
        (self.ix.origin_entries[oe] - self.ix.origin_entries[os]) as usize
    }

    /// Length groups in ascending `len` order.
    pub fn groups(&self) -> impl Iterator<Item = LengthGroup<'a>> + 'a {
        let ix = self.ix;
        (self.gs..self.ge).map(move |g| LengthGroup { ix, g })
    }

    /// Length groups starting from index `i` (see
    /// [`TokenPostings::first_group_at_least`]).
    pub fn groups_from(&self, i: usize) -> impl Iterator<Item = LengthGroup<'a>> + 'a {
        let ix = self.ix;
        let start = (self.gs as usize + i).min(self.ge as usize) as u32;
        (start..self.ge).map(move |g| LengthGroup { ix, g })
    }

    /// Number of length groups.
    pub fn group_count(&self) -> usize {
        (self.ge - self.gs) as usize
    }

    /// Index of the first group with `len ≥ lo` (binary search), relative
    /// to this token's first group.
    pub fn first_group_at_least(&self, lo: usize) -> usize {
        self.ix.group_len[self.gs as usize..self.ge as usize].partition_point(|&len| (len as usize) < lo)
    }
}

impl<'a> LengthGroup<'a> {
    /// Distinct-token-set size of every derived entity in this group.
    /// (This is the group's *key*, not a container size — a group always
    /// holds at least one posting.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.ix.group_len[self.g as usize] as usize
    }

    /// Total postings across the group's origin clusters.
    pub fn entry_count(&self) -> usize {
        let os = self.ix.group_origins[self.g as usize] as usize;
        let oe = self.ix.group_origins[self.g as usize + 1] as usize;
        (self.ix.origin_entries[oe] - self.ix.origin_entries[os]) as usize
    }

    /// Iterates the origin clusters, in ascending origin order.
    pub fn origins(&self) -> impl Iterator<Item = OriginGroup<'a>> + 'a {
        let ix = self.ix;
        let os = ix.group_origins[self.g as usize];
        let oe = ix.group_origins[self.g as usize + 1];
        (os..oe).map(move |o| OriginGroup {
            origin: ix.origin_entity[o as usize],
            positions: &ix.positions[ix.origin_entries[o as usize] as usize..ix.origin_entries[o as usize + 1] as usize],
        })
    }

    /// Number of origin clusters in this group.
    pub fn origin_count(&self) -> usize {
        (self.ix.group_origins[self.g as usize + 1] - self.ix.group_origins[self.g as usize]) as usize
    }
}

/// The raw flat arrays of a [`ClusteredIndex`], for the frozen writer.
#[derive(Debug, Clone, Copy)]
pub struct IndexArenasRef<'a> {
    /// Token → first global group index (`T+1` prefix entries).
    pub tok_groups: &'a [u32],
    /// Group → distinct-set length (`G` entries).
    pub group_len: &'a [u16],
    /// Group → first global origin-cluster index (`G+1` prefix entries).
    pub group_origins: &'a [u32],
    /// Origin cluster → origin entity (`O` entries).
    pub origin_entity: &'a [EntityId],
    /// Origin cluster → first posting index (`O+1` prefix entries).
    pub origin_entries: &'a [u32],
    /// All postings (`E` entries).
    pub positions: &'a [u16],
    /// Rank-key arena of all derived entities' distinct sets.
    pub set_data: &'a [u32],
    /// Derived entity → set range (`D+1` prefix entries).
    pub set_offsets: &'a [u32],
    /// Derived ids grouped by origin, sorted by ascending set length.
    pub variants_by_len: &'a [DerivedId],
    /// Origin → variants range (`origins+1` prefix entries).
    pub origin_offsets: &'a [u32],
}

/// Owned (or frozen) arenas to reassemble a [`ClusteredIndex`] from; see
/// [`IndexArenasRef`] for field semantics.
#[derive(Debug, Clone, Default)]
pub struct IndexArenas {
    pub tok_groups: Arena<u32>,
    pub group_len: Arena<u16>,
    pub group_origins: Arena<u32>,
    pub origin_entity: Arena<EntityId>,
    pub origin_entries: Arena<u32>,
    pub positions: Arena<u16>,
    pub set_data: Arena<u32>,
    pub set_offsets: Arena<u32>,
    pub variants_by_len: Arena<DerivedId>,
    pub origin_offsets: Arena<u32>,
}

/// The clustered inverted index over a derived dictionary.
///
/// Also owns the [`GlobalOrder`] and, for verification, the globally-ordered
/// distinct token-key set of every derived entity.
#[derive(Debug, Clone)]
pub struct ClusteredIndex {
    /// Shared so sharded builds can point every per-shard index at one
    /// global order (the shared-order invariant, DESIGN.md §10).
    order: Arc<GlobalOrder>,
    /// `tok_groups[t]..tok_groups[t+1]` is token `t`'s group range.
    tok_groups: Arena<u32>,
    group_len: Arena<u16>,
    group_origins: Arena<u32>,
    origin_entity: Arena<EntityId>,
    origin_entries: Arena<u32>,
    positions: Arena<u16>,
    /// Rank-key-sorted distinct token sets of all derived entities,
    /// flattened into one arena (`set_offsets[i]..set_offsets[i+1]` is the
    /// set of derived entity `i`). One contiguous allocation keeps the
    /// verification loop cache-friendly across hundreds of thousands of
    /// variants.
    set_data: Arena<u32>,
    set_offsets: Arena<u32>,
    /// Derived ids grouped by origin, each group sorted by ascending
    /// distinct-set length — so verification can binary-search the variants
    /// admitted by the length filter (paper §8 future-work item (i)).
    variants_by_len: Arena<DerivedId>,
    origin_offsets: Arena<u32>,
    min_len: Option<usize>,
    max_len: Option<usize>,
}

impl ClusteredIndex {
    /// Builds the index (paper Algorithm 2). The interner supplies the
    /// strings for the global order's frequency tie-break.
    pub fn build(dd: &DerivedDictionary, interner: &Interner) -> Self {
        let order = Arc::new(GlobalOrder::build(dd, interner));
        Self::build_with_order(dd, order)
    }

    /// Builds the index against an externally constructed [`GlobalOrder`]
    /// (the shard build path: one order shared by every shard's index).
    /// Every token occurring in `dd` must be valid in `order`.
    pub fn build_with_order(dd: &DerivedDictionary, order: Arc<GlobalOrder>) -> Self {
        // Globally-ordered distinct key set per derived entity, flattened.
        let mut set_data: Vec<u32> = Vec::new();
        let mut set_offsets: Vec<u32> = Vec::with_capacity(dd.len() + 1);
        set_offsets.push(0);
        let mut keys: Vec<u32> = Vec::new();
        let mut min_len: Option<usize> = None;
        let mut max_len: Option<usize> = None;
        for (_, d) in dd.iter() {
            keys.clear();
            keys.extend(d.tokens.iter().map(|&t| order.key(t)));
            keys.sort_unstable();
            keys.dedup();
            if !keys.is_empty() {
                min_len = Some(min_len.map_or(keys.len(), |m| m.min(keys.len())));
                max_len = Some(max_len.map_or(keys.len(), |m| m.max(keys.len())));
            }
            set_data.extend_from_slice(&keys);
            set_offsets.push(set_data.len() as u32);
        }
        // Positions are u16, so a variant of more than 65 535 distinct
        // tokens cannot be indexed. Dictionary entities are short phrases
        // (the paper's datasets average 2–7 tokens), so this is an
        // assertion on absurd input, not a runtime error path (an artifact
        // carries built indexes, so nothing read from disk reaches it).
        assert!(max_len.unwrap_or(0) <= u16::MAX as usize, "entity set larger than u16::MAX tokens");

        let postings = cluster_postings(dd, &order, &set_data, &set_offsets);

        // Per-origin variant ids sorted by set length (stable within equal
        // lengths, preserving derivation order).
        let mut variants_by_len: Vec<DerivedId> = Vec::with_capacity(dd.len());
        let mut origin_offsets: Vec<u32> = Vec::with_capacity(dd.origins() + 1);
        origin_offsets.push(0);
        for e in 0..dd.origins() {
            let range = dd.variant_range(EntityId(e as u32));
            let start = variants_by_len.len();
            variants_by_len.extend(range.map(DerivedId));
            let set_len = |id: &DerivedId| set_offsets[id.idx() + 1] - set_offsets[id.idx()];
            variants_by_len[start..].sort_by_key(set_len);
            origin_offsets.push(variants_by_len.len() as u32);
        }

        Self {
            order,
            tok_groups: postings.tok_groups.into(),
            group_len: postings.group_len.into(),
            group_origins: postings.group_origins.into(),
            origin_entity: postings.origin_entity.into(),
            origin_entries: postings.origin_entries.into(),
            positions: postings.positions.into(),
            set_data: set_data.into(),
            set_offsets: set_offsets.into(),
            variants_by_len: variants_by_len.into(),
            origin_offsets: origin_offsets.into(),
            min_len,
            max_len,
        }
    }

    /// The index a delta leaves behind, merged instead of rebuilt: `old`
    /// with every posting, set and variant entry of a `changed` origin cut
    /// out and `small`'s entries for those origins put in.
    ///
    /// `old` and `small` index the two sides of
    /// [`aeetes_rules::VariantTable::splice`] — `small` against the (possibly
    /// extended) order the result is to carry, `changed` over the post-delta
    /// origin space. Extending an order never re-keys a token, so every set
    /// and position `old` stores is what a rebuild under `small`'s order
    /// would compute again; and postings are clustered token → set length →
    /// ascending origin, so a token's list after the delta is its old list
    /// without the changed origins' clusters, merged by `(length, origin)`
    /// with its small list. The result equals
    /// [`ClusteredIndex::build_with_order`] over the spliced dictionary
    /// array for array; every array is written once, the five whose size
    /// depends on which groups empty out or coincide (and which trailing
    /// tokens go with them) at a capacity that exceeds it by at most
    /// `small`'s size plus what was cut.
    ///
    /// # Panics
    /// Panics under the conditions of [`aeetes_rules::VariantTable::splice`].
    pub fn splice(old: &Self, small: &Self, changed: &[bool]) -> Self {
        let sides = [old.raw_parts(), small.raw_parts()];
        let origins = |ix: &IndexArenasRef<'_>| ix.origin_offsets.len() - 1;
        assert_eq!(changed.len(), origins(&sides[1]), "the changed flags must span the post-delta origin space");
        let old_origins = origins(&sides[0]);
        assert!(old_origins <= changed.len(), "a delta never shrinks the origin space");

        // Per-variant arrays: laid out by ascending origin like the derived
        // dictionary, so they splice run by run with rebased offsets and ids.
        let (mut variants, mut keys) = (0usize, 0usize);
        for (from_small, run) in splice_runs(changed, old_origins) {
            let ix = &sides[usize::from(from_small)];
            let (v0, v1) = (ix.origin_offsets[run.start] as usize, ix.origin_offsets[run.end] as usize);
            variants += v1 - v0;
            keys += (ix.set_offsets[v1] - ix.set_offsets[v0]) as usize;
        }
        u32::try_from(keys).expect("derived set arena overflows u32 offsets");
        let mut set_data: Vec<u32> = Vec::with_capacity(keys);
        let mut set_offsets: Vec<u32> = Vec::with_capacity(variants + 1);
        let mut variants_by_len: Vec<DerivedId> = Vec::with_capacity(variants);
        let mut origin_offsets: Vec<u32> = Vec::with_capacity(changed.len() + 1);
        set_offsets.push(0);
        origin_offsets.push(0);
        for (from_small, run) in splice_runs(changed, old_origins) {
            let ix = &sides[usize::from(from_small)];
            let (v0, v1) = (ix.origin_offsets[run.start] as usize, ix.origin_offsets[run.end] as usize);
            let base = variants_by_len.len() as u32;
            // Origins no run covered hold nothing.
            origin_offsets.resize(run.start + 1, base);
            origin_offsets.extend(rebased(&ix.origin_offsets[run.start + 1..=run.end], v0 as u32, base));
            set_offsets.extend(rebased(&ix.set_offsets[v0 + 1..=v1], ix.set_offsets[v0], set_data.len() as u32));
            variants_by_len.extend(ix.variants_by_len[v0..v1].iter().map(|d| DerivedId(d.0 - v0 as u32 + base)));
            set_data.extend_from_slice(&ix.set_data[ix.set_offsets[v0] as usize..ix.set_offsets[v1] as usize]);
        }
        origin_offsets.resize(changed.len() + 1, variants_by_len.len() as u32);
        let (mut min_len, mut max_len) = (None, None);
        for len in set_offsets.windows(2).map(|w| (w[1] - w[0]) as usize).filter(|&len| len > 0) {
            min_len = Some(min_len.map_or(len, |m: usize| m.min(len)));
            max_len = Some(max_len.map_or(len, |m: usize| m.max(len)));
        }

        let postings = splice_postings(&sides[0], &sides[1], changed, keys);
        Self {
            order: small.shared_order(),
            tok_groups: postings.tok_groups.into(),
            group_len: postings.group_len.into(),
            group_origins: postings.group_origins.into(),
            origin_entity: postings.origin_entity.into(),
            origin_entries: postings.origin_entries.into(),
            positions: postings.positions.into(),
            set_data: set_data.into(),
            set_offsets: set_offsets.into(),
            variants_by_len: variants_by_len.into(),
            origin_offsets: origin_offsets.into(),
            min_len,
            max_len,
        }
    }

    /// Reassembles an index from raw (possibly frozen) arenas, validating
    /// every structural invariant so corrupted artifacts are rejected with
    /// a clean error and no later lookup can read out of bounds:
    ///
    /// - all prefix arrays start at 0, are monotonic and end at their
    ///   target arena's length;
    /// - group lengths are strictly ascending within each token and origin
    ///   entities strictly ascending within each group (the batch-skip
    ///   scans rely on both);
    /// - every derived set is strictly ascending and holds only valid keys
    ///   whose rank the order handed out (the merge intersections of
    ///   verification silently under-count on anything else);
    /// - every origin cluster names an origin of the variant table;
    /// - every posting's position is below its group's set length — the
    ///   length of every set a posting of that group can belong to;
    /// - every variant id in the by-length table lies in its origin's own
    ///   range and is sorted by ascending set length within it.
    pub fn from_raw_parts(order: Arc<GlobalOrder>, a: IndexArenas) -> Result<Self, String> {
        let groups = a.group_len.len();
        let origins = a.origin_entity.len();
        check_prefix("token group offsets", &a.tok_groups, groups)?;
        if a.group_origins.len() != groups + 1 {
            return Err(format!("group origin offsets hold {} entries, expected {}", a.group_origins.len(), groups + 1));
        }
        check_prefix("group origin offsets", &a.group_origins, origins)?;
        if a.origin_entries.len() != origins + 1 {
            return Err(format!("origin entry offsets hold {} entries, expected {}", a.origin_entries.len(), origins + 1));
        }
        check_prefix("origin entry offsets", &a.origin_entries, a.positions.len())?;
        check_prefix("set offsets", &a.set_offsets, a.set_data.len())?;
        let num_derived = a.set_offsets.len() - 1;
        check_prefix("variant offsets", &a.origin_offsets, a.variants_by_len.len())?;
        if a.variants_by_len.len() != num_derived {
            return Err(format!("variants-by-length table holds {} ids for {} derived entities", a.variants_by_len.len(), num_derived));
        }
        // These scans run on the frozen-open critical path, so hoist plain
        // slices out of the arenas (an Arena deref is a match plus a
        // pointer rebuild) and derive the per-entity set lengths once.
        let tok_groups: &[u32] = &a.tok_groups;
        let group_len: &[u16] = &a.group_len;
        let group_origins: &[u32] = &a.group_origins;
        let origin_entity: &[EntityId] = &a.origin_entity;
        let origin_entries: &[u32] = &a.origin_entries;
        let positions: &[u16] = &a.positions;
        let set_data: &[u32] = &a.set_data;
        let set_offsets: &[u32] = &a.set_offsets;
        let variants_by_len: &[DerivedId] = &a.variants_by_len;
        let origin_offsets: &[u32] = &a.origin_offsets;
        // Both "strictly ascending within each range" checks run as one
        // sequential pass over the value array with a boundary bitmap
        // (range starts come from the prefix array) — slicing per range
        // costs more than the comparisons for tens of thousands of tiny
        // ranges. The offending range is only hunted down on failure.
        fn ascending_within(mut values_ok: impl FnMut(usize) -> bool, starts: &[u32], len: usize) -> bool {
            let mut boundary = vec![false; len];
            for &b in starts {
                if (b as usize) < len {
                    boundary[b as usize] = true;
                }
            }
            (1..len).fold(true, |ok, i| ok & (boundary[i] | values_ok(i)))
        }
        if !ascending_within(|i| group_len[i - 1] < group_len[i], tok_groups, groups) {
            let t = (0..tok_groups.len() - 1)
                .find(|&t| group_len[tok_groups[t] as usize..tok_groups[t + 1] as usize].windows(2).any(|w| w[0] >= w[1]))
                .expect("pass found a non-ascending group range");
            return Err(format!("token {t}'s group lengths are not strictly ascending"));
        }
        if !ascending_within(|i| origin_entity[i - 1] < origin_entity[i], group_origins, origins) {
            let g = (0..groups)
                .find(|&g| {
                    origin_entity[group_origins[g] as usize..group_origins[g + 1] as usize]
                        .windows(2)
                        .any(|w| w[0] >= w[1])
                })
                .expect("pass found a non-ascending origin range");
            return Err(format!("group {g}'s origin clusters are not strictly ascending"));
        }
        // A cluster's origin is looked up in the variant table next.
        let origin_space = origin_offsets.len() - 1;
        if origin_entity.iter().map(|e| e.idx()).max().is_some_and(|m| m >= origin_space) {
            let c = origin_entity.iter().position(|e| e.idx() >= origin_space).expect("max out of range");
            return Err(format!("origin cluster {c} names origin {:?} out of {origin_space}", origin_entity[c]));
        }
        // Sets: one pass for "valid bit set, rank handed out" (a single
        // unsigned compare per key), one for strict ascent inside each set.
        let ranks = order.ranks() as u32;
        let key_ok = |k: u32| k.wrapping_sub(VALID_BIT) < ranks;
        let set_of = |i: usize| set_offsets.partition_point(|&o| o as usize <= i) - 1;
        if !set_data.iter().fold(true, |ok, &k| ok & key_ok(k)) {
            let i = set_data.iter().position(|&k| !key_ok(k)).expect("fold found a bad key");
            let (d, k) = (set_of(i), set_data[i]);
            return Err(if k & VALID_BIT == 0 {
                format!("set {d} holds key {k:#x} without the valid bit")
            } else {
                format!("set {d} holds rank {} but the order hands out only {ranks}", k & !VALID_BIT)
            });
        }
        if !ascending_within(|i| set_data[i - 1] < set_data[i], set_offsets, set_data.len()) {
            let d = (0..set_offsets.len() - 1)
                .find(|&d| set_data[set_offsets[d] as usize..set_offsets[d + 1] as usize].windows(2).any(|w| w[0] >= w[1]))
                .expect("pass found a non-ascending set");
            return Err(format!("set {d}'s keys are not strictly ascending"));
        }
        // Postings: each group's run of positions against the group length.
        let group_postings = |g: usize| origin_entries[group_origins[g] as usize] as usize..origin_entries[group_origins[g + 1] as usize] as usize;
        let positions_ok = |g: usize| positions[group_postings(g)].iter().fold(true, |ok, &p| ok & (p < group_len[g]));
        if !(0..groups).fold(true, |ok, g| ok & positions_ok(g)) {
            let g = (0..groups).find(|&g| !positions_ok(g)).expect("fold found a bad group");
            let i = group_postings(g).find(|&i| positions[i] >= group_len[g]).expect("group holds a bad posting");
            return Err(format!("posting {i} position {} outside its group's sets of {}", positions[i], group_len[g]));
        }
        // `set_len` is kept as u32 (not usize) so the variant scan below
        // gathers from a table half the size.
        let mut set_len: Vec<u32> = Vec::with_capacity(num_derived);
        let mut min_len: Option<usize> = None;
        let mut max_len: Option<usize> = None;
        for w in set_offsets.windows(2) {
            let l = w[1] - w[0];
            if l > 0 {
                let l = l as usize;
                min_len = Some(min_len.map_or(l, |m| m.min(l)));
                max_len = Some(max_len.map_or(l, |m| m.max(l)));
            }
            set_len.push(l);
        }
        // An origin's slots hold ids of its own range — the ids are one
        // origin-ordered space, and a shard merge subtracts the range start
        // from whichever id verification picked.
        let own_ids = |e: usize| {
            let (lo, hi) = (origin_offsets[e], origin_offsets[e + 1]);
            variants_by_len[lo as usize..hi as usize]
                .iter()
                .fold(true, |ok, d| ok & (d.0.wrapping_sub(lo) < hi - lo))
        };
        if !(0..origin_space).fold(true, |ok, e| ok & own_ids(e)) {
            let e = (0..origin_space).find(|&e| !own_ids(e)).expect("fold found a bad origin");
            return Err(format!("origin {e}'s variant table holds an id outside its range {}..{}", origin_offsets[e], origin_offsets[e + 1]));
        }
        // Per-origin sortedness by set length, as one sequential pass with
        // a boundary bitmap: each variant's length is gathered exactly once
        // and compared to its predecessor unless an origin starts here.
        let sorted_by_len = {
            let n = variants_by_len.len();
            let mut boundary = vec![false; n];
            for &b in origin_offsets {
                if (b as usize) < n {
                    boundary[b as usize] = true;
                }
            }
            let mut prev = 0u32;
            (0..n).fold(true, |ok, i| {
                let l = set_len[variants_by_len[i].idx()];
                let ok = ok & (boundary[i] | (prev <= l));
                prev = l;
                ok
            })
        };
        if !sorted_by_len {
            let e = (0..origin_offsets.len() - 1)
                .find(|&e| {
                    let ids = &variants_by_len[origin_offsets[e] as usize..origin_offsets[e + 1] as usize];
                    ids.windows(2).any(|w| set_len[w[0].idx()] > set_len[w[1].idx()])
                })
                .expect("pass found an unsorted origin");
            return Err(format!("origin {e}'s variants are not sorted by set length"));
        }
        Ok(Self {
            order,
            tok_groups: a.tok_groups,
            group_len: a.group_len,
            group_origins: a.group_origins,
            origin_entity: a.origin_entity,
            origin_entries: a.origin_entries,
            positions: a.positions,
            set_data: a.set_data,
            set_offsets: a.set_offsets,
            variants_by_len: a.variants_by_len,
            origin_offsets: a.origin_offsets,
            min_len,
            max_len,
        })
    }

    /// Raw views of the flat arrays (the frozen writer serializes these).
    pub fn raw_parts(&self) -> IndexArenasRef<'_> {
        IndexArenasRef {
            tok_groups: &self.tok_groups,
            group_len: &self.group_len,
            group_origins: &self.group_origins,
            origin_entity: &self.origin_entity,
            origin_entries: &self.origin_entries,
            positions: &self.positions,
            set_data: &self.set_data,
            set_offsets: &self.set_offsets,
            variants_by_len: &self.variants_by_len,
            origin_offsets: &self.origin_offsets,
        }
    }

    /// Whether the storage borrows a frozen artifact (zero-copy).
    pub fn is_frozen(&self) -> bool {
        self.positions.is_frozen()
    }

    /// The variants of origin `e`, sorted by ascending distinct-set length.
    /// Together with [`ClusteredIndex::set_len`] this lets verification
    /// binary-search the window admitted by the length filter instead of
    /// scanning every variant.
    pub fn variants_sorted(&self, e: EntityId) -> &[DerivedId] {
        &self.variants_by_len[self.origin_offsets[e.idx()] as usize..self.origin_offsets[e.idx() + 1] as usize]
    }

    /// The global token order used by this index.
    pub fn order(&self) -> &GlobalOrder {
        &self.order
    }

    /// The shared handle to the global order (for building further shard
    /// indexes against the same order).
    pub fn shared_order(&self) -> Arc<GlobalOrder> {
        Arc::clone(&self.order)
    }

    /// The inverted list of `t`, or `None` when `t` occurs in no entity.
    pub fn postings(&self, t: TokenId) -> Option<TokenPostings<'_>> {
        let i = t.idx();
        if i + 1 >= self.tok_groups.len() {
            return None;
        }
        let (gs, ge) = (self.tok_groups[i], self.tok_groups[i + 1]);
        if gs == ge {
            return None;
        }
        Some(TokenPostings { ix: self, gs, ge })
    }

    /// The globally-ordered distinct key set of a derived entity.
    #[inline]
    pub fn derived_set(&self, id: DerivedId) -> &[u32] {
        &self.set_data[self.set_offsets[id.idx()] as usize..self.set_offsets[id.idx() + 1] as usize]
    }

    /// Distinct-set size of a derived entity.
    #[inline]
    pub fn set_len(&self, id: DerivedId) -> usize {
        (self.set_offsets[id.idx() + 1] - self.set_offsets[id.idx()]) as usize
    }

    /// Minimum non-empty distinct-set length over derived entities (`|e|⊥`).
    pub fn min_set_len(&self) -> Option<usize> {
        self.min_len
    }

    /// Maximum distinct-set length over derived entities (`|e|⊤`).
    pub fn max_set_len(&self) -> Option<usize> {
        self.max_len
    }

    /// Total postings across all tokens.
    pub fn total_entries(&self) -> usize {
        self.positions.len()
    }

    /// Approximate size of the index in bytes (for the paper's §6.3
    /// index-size comparison). For a frozen index this is the footprint of
    /// the borrowed file sections, not per-process heap.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tok_groups.len() * size_of::<u32>()
            + self.group_len.len() * size_of::<u16>()
            + self.group_origins.len() * size_of::<u32>()
            + self.origin_entity.len() * size_of::<EntityId>()
            + self.origin_entries.len() * size_of::<u32>()
            + self.positions.len() * size_of::<u16>()
            + self.set_data.len() * size_of::<u32>()
            + self.set_offsets.len() * size_of::<u32>()
            + self.variants_by_len.len() * size_of::<DerivedId>()
            + self.origin_offsets.len() * size_of::<u32>()
    }
}

/// The six posting arrays of an index under construction.
#[derive(Debug, PartialEq, Eq)]
struct ClusteredPostings {
    tok_groups: Vec<u32>,
    group_len: Vec<u16>,
    group_origins: Vec<u32>,
    origin_entity: Vec<EntityId>,
    origin_entries: Vec<u32>,
    positions: Vec<u16>,
}

/// Clusters the postings of every derived set (paper Algorithm 2): one
/// counting pass sizes each token's list, a second fills a single
/// exact-capacity buffer, each token's range is sorted by `(len, origin,
/// derived)` in place, and the forest is flattened into the global
/// prefix-linked arrays — tokens tile the group arrays, groups tile the
/// origin arrays, origins tile the position arena.
///
/// A posting waits for its sort as one `u64`, `len << 48 | derived << 16 |
/// pos`: variants sit in origin order in a derived dictionary, so ordering
/// by derived id orders by origin too and the origin need not be carried.
fn cluster_postings(dd: &DerivedDictionary, order: &GlobalOrder, set_data: &[u32], set_offsets: &[u32]) -> ClusteredPostings {
    let num_tokens = set_data.iter().map(|&key| order.token_of(key).idx() + 1).max().unwrap_or(0);
    // `starts[t]` is where token `t`'s postings begin; while filling,
    // `cursor[t]` is where its next posting goes.
    let mut starts = vec![0u32; num_tokens + 1];
    for &key in set_data {
        starts[order.token_of(key).idx() + 1] += 1;
    }
    for t in 0..num_tokens {
        starts[t + 1] += starts[t];
    }
    let mut cursor = starts[..num_tokens].to_vec();
    let mut raw = vec![0u64; set_data.len()];
    for (id, w) in set_offsets.windows(2).enumerate() {
        let set = &set_data[w[0] as usize..w[1] as usize];
        let len_and_id = (set.len() as u64) << 48 | (id as u64) << 16;
        for (pos, &key) in set.iter().enumerate() {
            let at = &mut cursor[order.token_of(key).idx()];
            raw[*at as usize] = len_and_id | pos as u64;
            *at += 1;
        }
    }

    let mut out = ClusteredPostings {
        tok_groups: Vec::with_capacity(num_tokens + 1),
        group_len: Vec::new(),
        group_origins: Vec::new(),
        origin_entity: Vec::new(),
        origin_entries: Vec::new(),
        positions: Vec::with_capacity(raw.len()),
    };
    for w in starts.windows(2) {
        let list = &mut raw[w[0] as usize..w[1] as usize];
        list.sort_unstable();
        out.tok_groups.push(out.group_len.len() as u32);
        let mut cur_len: Option<u16> = None;
        let mut cur_origin: Option<EntityId> = None;
        for &posting in list.iter() {
            let (len, origin) = ((posting >> 48) as u16, dd.origin_of(DerivedId((posting >> 16) as u32)));
            if cur_len != Some(len) {
                out.group_len.push(len);
                out.group_origins.push(out.origin_entity.len() as u32);
                cur_len = Some(len);
                cur_origin = None;
            }
            if cur_origin != Some(origin) {
                out.origin_entity.push(origin);
                out.origin_entries.push(out.positions.len() as u32);
                cur_origin = Some(origin);
            }
            out.positions.push(posting as u16);
        }
    }
    // Close the prefix arrays with their final sentinels.
    out.tok_groups.push(out.group_len.len() as u32);
    out.group_origins.push(out.origin_entity.len() as u32);
    out.origin_entries.push(out.positions.len() as u32);
    out
}

impl ClusteredPostings {
    /// Appends `src`'s origin clusters `clusters` — origins, rebased posting
    /// offsets, positions — behind whatever the current group holds.
    fn push_clusters(&mut self, src: &IndexArenasRef<'_>, clusters: std::ops::Range<usize>) {
        let (p0, p1) = (src.origin_entries[clusters.start], src.origin_entries[clusters.end]);
        self.origin_entries
            .extend(rebased(&src.origin_entries[clusters.clone()], p0, self.positions.len() as u32));
        self.origin_entity.extend_from_slice(&src.origin_entity[clusters]);
        self.positions.extend_from_slice(&src.positions[p0 as usize..p1 as usize]);
    }

    /// Appends the clusters of `old`'s range `clusters` whose origin is not
    /// `changed`, one copy per unbroken stretch.
    fn push_unchanged(&mut self, old: &IndexArenasRef<'_>, clusters: std::ops::Range<usize>, changed: &[bool]) {
        let mut stretch = clusters.start;
        for c in clusters.clone() {
            if changed[old.origin_entity[c].idx()] {
                if stretch < c {
                    self.push_clusters(old, stretch..c);
                }
                stretch = c + 1;
            }
        }
        if stretch < clusters.end {
            self.push_clusters(old, stretch..clusters.end);
        }
    }
}

/// The six posting arrays of [`ClusteredIndex::splice`]: token by token,
/// `old`'s length groups and `small`'s are merged by length; where both
/// have a group of one length its origin clusters are merged by origin
/// (`small` holds changed origins only, `old`'s changed clusters are
/// dropped, so no origin comes from both); a group left without clusters
/// is not written, and trailing tokens left without groups are cut as a
/// build over the surviving sets would never have counted them.
/// `postings` is the exact number of positions the result holds.
fn splice_postings(old: &IndexArenasRef<'_>, small: &IndexArenasRef<'_>, changed: &[bool], postings: usize) -> ClusteredPostings {
    let tokens = old.tok_groups.len().max(small.tok_groups.len()) - 1;
    let groups = old.group_len.len() + small.group_len.len();
    let clusters = old.origin_entity.len() + small.origin_entity.len();
    let mut out = ClusteredPostings {
        tok_groups: Vec::with_capacity(tokens + 1),
        group_len: Vec::with_capacity(groups),
        group_origins: Vec::with_capacity(groups + 1),
        origin_entity: Vec::with_capacity(clusters),
        origin_entries: Vec::with_capacity(clusters + 1),
        positions: Vec::with_capacity(postings),
    };
    // A token's group range on one side, empty past that side's last token.
    let groups_of = |ix: &IndexArenasRef<'_>, t: usize| match ix.tok_groups.get(t + 1) {
        Some(&end) => (ix.tok_groups[t] as usize, end as usize),
        None => (0, 0),
    };
    let clusters_of = |ix: &IndexArenasRef<'_>, g: usize| ix.group_origins[g] as usize..ix.group_origins[g + 1] as usize;
    for t in 0..tokens {
        out.tok_groups.push(out.group_len.len() as u32);
        let ((mut og, og_end), (mut sg, sg_end)) = (groups_of(old, t), groups_of(small, t));
        loop {
            let old_len = (og < og_end).then(|| old.group_len[og]);
            let small_len = (sg < sg_end).then(|| small.group_len[sg]);
            let Some(len) = old_len.into_iter().chain(small_len).min() else { break };
            let (mut oc, mut sc) = (0..0, 0..0);
            if old_len == Some(len) {
                oc = clusters_of(old, og);
                og += 1;
            }
            if small_len == Some(len) {
                sc = clusters_of(small, sg);
                sg += 1;
            }
            let first = out.origin_entity.len();
            for c in sc {
                // Old clusters below this small origin go first; one *at* it
                // is changed and falls to the next `push_unchanged`.
                let below = oc.start + old.origin_entity[oc.clone()].partition_point(|&e| e < small.origin_entity[c]);
                out.push_unchanged(old, oc.start..below, changed);
                oc.start = below;
                out.push_clusters(small, c..c + 1);
            }
            out.push_unchanged(old, oc, changed);
            if out.origin_entity.len() > first {
                out.group_len.push(len);
                out.group_origins.push(first as u32);
            }
        }
    }
    while out.tok_groups.last() == Some(&(out.group_len.len() as u32)) {
        out.tok_groups.pop();
    }
    out.tok_groups.push(out.group_len.len() as u32);
    out.group_origins.push(out.origin_entity.len() as u32);
    out.origin_entries.push(out.positions.len() as u32);
    out.tok_groups.shrink_to_fit();
    out.group_len.shrink_to_fit();
    out.group_origins.shrink_to_fit();
    out.origin_entity.shrink_to_fit();
    out.origin_entries.shrink_to_fit();
    out
}

/// Validates a prefix array: non-empty, starts at 0, monotonic, ends at
/// `total`.
fn check_prefix(what: &str, off: &[u32], total: usize) -> Result<(), String> {
    if off.is_empty() {
        return Err(format!("{what} empty"));
    }
    if off[0] != 0 {
        return Err(format!("{what} does not start at 0"));
    }
    // Branchless fold so the monotonicity scan vectorizes (this runs on
    // the frozen-open critical path).
    if !off.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1])) {
        return Err(format!("{what} not monotonic"));
    }
    if off[off.len() - 1] as usize != total {
        return Err(format!("{what} ends at {} but the target holds {total}", off[off.len() - 1]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::{DeriveConfig, RuleSet};
    use aeetes_text::{Dictionary, Interner, Tokenizer};

    struct Fixture {
        int: Interner,
        dd: DerivedDictionary,
        index: ClusteredIndex,
    }

    fn fixture(entries: &[&str], rules: &[(&str, &str)]) -> Fixture {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let dict = Dictionary::from_strings(entries.iter().copied(), &tok, &mut int);
        let mut rs = RuleSet::new();
        for (l, r) in rules {
            rs.push_str(l, r, &tok, &mut int).unwrap();
        }
        let dd = DerivedDictionary::build(&dict, &rs, &DeriveConfig::default());
        let index = ClusteredIndex::build(&dd, &int);
        Fixture { int, dd, index }
    }

    /// Paper Example 3.2: "University" appears in five derived entities, in
    /// one length-4 group, clustered by origin into three origin groups.
    #[test]
    fn paper_example_3_2_clustering() {
        let mut f = fixture(
            &[
                "Purdue University USA",        // e1
                "Purdue University in Indiana", // e2
                "UQ AU",                        // e3
                "UW Madison",                   // e4
            ],
            &[
                ("UQ", "University of Queensland"),
                ("USA", "United States"),
                ("AU", "Australia"),
                ("UW", "University of Wisconsin"),
                ("UW", "University of Washington"),
            ],
        );
        let uni = f.int.intern("university");
        let tp = f.index.postings(uni).expect("postings for 'university'");
        let total = tp.entry_count();
        assert!(total >= 5, "at least five postings, got {total}");
        // Length-4 group must exist and contain ≥ 2 distinct origins.
        let g4 = tp.groups().find(|g| g.len() == 4).expect("length-4 group");
        assert!(g4.origin_count() >= 2);
        // Origin groups are ordered and non-empty.
        let origins: Vec<EntityId> = g4.origins().map(|o| o.origin).collect();
        for w in origins.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(g4.entry_count(), g4.origins().map(|o| o.positions.len()).sum::<usize>());
    }

    #[test]
    fn groups_sorted_by_length() {
        let f = fixture(&["a", "a b", "a b c", "a b c d"], &[]);
        let mut int2 = f.int.clone();
        let a = int2.intern("a");
        let tp = f.index.postings(a).unwrap();
        let lens: Vec<usize> = tp.groups().map(|g| g.len()).collect();
        assert_eq!(lens, vec![1, 2, 3, 4]);
        assert_eq!(tp.first_group_at_least(3), 2);
        assert_eq!(tp.first_group_at_least(5), 4);
        assert_eq!(tp.first_group_at_least(0), 0);
        assert_eq!(tp.groups_from(2).count(), 2);
        assert_eq!(tp.group_count(), 4);
    }

    #[test]
    fn positions_follow_global_order() {
        // "of" appears in both entities (freq 2), the others once each →
        // rare tokens come first in the ordered entity.
        let mut f = fixture(&["university of washington", "school of rock"], &[]);
        let of = f.int.intern("of");
        let tp = f.index.postings(of).unwrap();
        for g in tp.groups() {
            for og in g.origins() {
                // "of" is the most frequent token → last position (2 of 0..3).
                assert_eq!(og.positions, [2]);
                // cross-check against the stored set of the origin's one variant
                let set = f.index.derived_set(f.index.variants_sorted(og.origin)[0]);
                assert_eq!(f.index.order().token_of(set[2]), of);
            }
        }
    }

    #[test]
    fn duplicate_tokens_index_once() {
        let mut f = fixture(&["ny ny ny"], &[]);
        let ny = f.int.intern("ny");
        let tp = f.index.postings(ny).unwrap();
        assert_eq!(tp.entry_count(), 1);
        assert_eq!(tp.groups().next().unwrap().len(), 1, "distinct-set length is 1");
    }

    #[test]
    fn unknown_token_has_no_postings() {
        let mut f = fixture(&["alpha beta"], &[]);
        let z = f.int.intern("zzz");
        assert!(f.index.postings(z).is_none());
    }

    #[test]
    fn min_max_set_len() {
        let f = fixture(&["a", "b c d e f"], &[]);
        assert_eq!(f.index.min_set_len(), Some(1));
        assert_eq!(f.index.max_set_len(), Some(5));
    }

    #[test]
    fn empty_dictionary() {
        let f = fixture(&[], &[]);
        assert_eq!(f.index.min_set_len(), None);
        assert_eq!(f.index.max_set_len(), None);
        assert_eq!(f.index.total_entries(), 0);
    }

    #[test]
    fn total_entries_counts_all_sets() {
        let f = fixture(&["a b", "c d"], &[]);
        assert_eq!(f.index.total_entries(), 4);
        assert_eq!(f.dd.len(), 2);
    }

    #[test]
    fn size_bytes_positive_and_grows() {
        let small = fixture(&["a b"], &[]);
        let big = fixture(&["a b c d e", "f g h i j", "k l m n o"], &[]);
        assert!(small.index.size_bytes() > 0);
        assert!(big.index.size_bytes() > small.index.size_bytes());
    }

    fn owned_arenas(ix: &ClusteredIndex) -> IndexArenas {
        let r = ix.raw_parts();
        IndexArenas {
            tok_groups: r.tok_groups.to_vec().into(),
            group_len: r.group_len.to_vec().into(),
            group_origins: r.group_origins.to_vec().into(),
            origin_entity: r.origin_entity.to_vec().into(),
            origin_entries: r.origin_entries.to_vec().into(),
            positions: r.positions.to_vec().into(),
            set_data: r.set_data.to_vec().into(),
            set_offsets: r.set_offsets.to_vec().into(),
            variants_by_len: r.variants_by_len.to_vec().into(),
            origin_offsets: r.origin_offsets.to_vec().into(),
        }
    }

    #[test]
    fn raw_round_trip_preserves_lookups() {
        let mut f = fixture(
            &["Purdue University USA", "UQ AU", "UW Madison"],
            &[("UQ", "University of Queensland"), ("UW", "University of Wisconsin")],
        );
        let re = ClusteredIndex::from_raw_parts(f.index.shared_order(), owned_arenas(&f.index)).unwrap();
        assert_eq!(re.min_set_len(), f.index.min_set_len());
        assert_eq!(re.max_set_len(), f.index.max_set_len());
        assert_eq!(re.total_entries(), f.index.total_entries());
        for t in 0..f.int.len() as u32 {
            let t = TokenId(t);
            match (f.index.postings(t), re.postings(t)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.entry_count(), b.entry_count());
                    assert_eq!(a.group_count(), b.group_count());
                    for (ga, gb) in a.groups().zip(b.groups()) {
                        assert_eq!(ga.len(), gb.len());
                        let oa: Vec<_> = ga.origins().map(|o| (o.origin, o.positions)).collect();
                        let ob: Vec<_> = gb.origins().map(|o| (o.origin, o.positions)).collect();
                        assert_eq!(oa, ob);
                    }
                }
                (a, b) => panic!("postings presence diverged for {t:?}: {:?} vs {:?}", a.is_some(), b.is_some()),
            }
        }
        let _ = f.int.intern("anything");
    }

    #[test]
    fn raw_validation_rejects_corruption() {
        let f = fixture(&["a b c", "a d"], &[]);
        let ok = owned_arenas(&f.index);
        assert!(ClusteredIndex::from_raw_parts(f.index.shared_order(), ok.clone()).is_ok());

        let mut bad = ok.clone();
        bad.tok_groups.as_mut_vec()[0] = 7;
        assert!(ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).is_err(), "prefix not starting at 0");

        let mut bad = ok.clone();
        let n = bad.origin_entries.len();
        bad.origin_entries.as_mut_vec()[n - 1] += 1;
        assert!(ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).is_err(), "prefix past arena");

        let mut bad = ok.clone();
        // Token "a" occurs in both entities → its two groups sit first.
        bad.group_len.as_mut_vec().swap(0, 1);
        assert!(ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).is_err(), "group lengths unsorted");
    }

    /// A structurally sound image whose sets or positions are wrong used to
    /// be adopted and then under-count matches; each is now named and refused.
    #[test]
    fn raw_validation_rejects_wrong_sets_and_positions() {
        let f = fixture(&["a b c", "a d"], &[]);
        let ok = owned_arenas(&f.index);
        let reject = |what: &str, mutate: &dyn Fn(&mut IndexArenas), expect: &str| {
            let mut bad = ok.clone();
            mutate(&mut bad);
            let err = ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).expect_err(what);
            assert!(err.contains(expect), "{what}: unexpected message `{err}`");
        };
        // Set 0 is "a b c" (3 keys), set 1 is "a d" (2 keys).
        reject("two keys swapped", &|a| a.set_data.as_mut_vec().swap(3, 4), "set 1's keys are not strictly ascending");
        reject("a key repeated", &|a| a.set_data.as_mut_vec()[1] = ok.set_data[0], "set 0's keys are not strictly ascending");
        reject("valid bit cleared", &|a| a.set_data.as_mut_vec()[4] &= !VALID_BIT, "set 1 holds key");
        reject(
            "rank out of range",
            &|a| a.set_data.as_mut_vec()[2] = VALID_BIT | 4,
            "set 0 holds rank 4 but the order hands out only 4",
        );
        // Token "a" is id 0: its first posting sits in the length-2 group.
        assert_eq!(ok.group_len[0], 2);
        reject("position = group length", &|a| a.positions.as_mut_vec()[0] = 2, "posting 0 position 2 outside its group's sets of 2");
        reject(
            "a cluster of no origin",
            &|a| a.origin_entity.as_mut_vec()[1] = EntityId(2),
            "origin cluster 1 names origin e2 out of 2",
        );
        reject(
            "another origin's variant",
            &|a| a.variants_by_len.as_mut_vec()[1] = DerivedId(0),
            "origin 1's variant table holds an id outside its range 1..2",
        );
    }

    /// The retired build: one growing `Vec` of postings per token, each
    /// sorted and flattened in turn. Kept as the oracle for the counting
    /// build, whose six arrays must equal these element for element.
    fn cluster_postings_per_token_vecs(dd: &DerivedDictionary, order: &GlobalOrder, set_data: &[u32], set_offsets: &[u32]) -> ClusteredPostings {
        let num_tokens = dd.iter().flat_map(|(_, d)| d.tokens.iter()).map(|t| t.idx() + 1).max().unwrap_or(0);
        let mut raw: Vec<Vec<(u16, EntityId, DerivedId, u16)>> = vec![Vec::new(); num_tokens];
        for (id, d) in dd.iter() {
            let set = &set_data[set_offsets[id.idx()] as usize..set_offsets[id.idx() + 1] as usize];
            for (pos, &key) in set.iter().enumerate() {
                raw[order.token_of(key).idx()].push((set.len() as u16, d.origin, id, pos as u16));
            }
        }
        let mut out = ClusteredPostings {
            tok_groups: Vec::new(),
            group_len: Vec::new(),
            group_origins: Vec::new(),
            origin_entity: Vec::new(),
            origin_entries: Vec::new(),
            positions: Vec::new(),
        };
        for mut raw_entries in raw {
            raw_entries.sort_unstable_by_key(|&(len, origin, derived, _)| (len, origin, derived));
            out.tok_groups.push(out.group_len.len() as u32);
            let mut cur_len: Option<u16> = None;
            let mut cur_origin: Option<EntityId> = None;
            for (len, origin, _, pos) in raw_entries {
                if cur_len != Some(len) {
                    out.group_len.push(len);
                    out.group_origins.push(out.origin_entity.len() as u32);
                    cur_len = Some(len);
                    cur_origin = None;
                }
                if cur_origin != Some(origin) {
                    out.origin_entity.push(origin);
                    out.origin_entries.push(out.positions.len() as u32);
                    cur_origin = Some(origin);
                }
                out.positions.push(pos);
            }
        }
        out.tok_groups.push(out.group_len.len() as u32);
        out.group_origins.push(out.origin_entity.len() as u32);
        out.origin_entries.push(out.positions.len() as u32);
        out
    }

    proptest::proptest! {
        #[test]
        fn counting_build_equals_per_token_vec_build(
            entities in proptest::collection::vec(proptest::collection::vec(0u8..12, 1..=6), 1..8),
            rules in proptest::collection::vec((proptest::collection::vec(0u8..12, 1..=2), proptest::collection::vec(0u8..12, 1..=3)), 0..4),
        ) {
            let mut int = Interner::new();
            // Interned back to front, so ids and strings disagree on order.
            let ids: Vec<TokenId> = (0..12).rev().map(|i| int.intern(&format!("tok{i:02}"))).collect();
            let tokens = |v: &[u8]| v.iter().map(|&i| ids[i as usize]).collect::<Vec<_>>();
            let mut dict = Dictionary::new();
            for e in &entities {
                dict.push_tokens(format!("{e:?}"), tokens(e));
            }
            let mut rs = RuleSet::new();
            for (l, r) in &rules {
                let _ = rs.push_tokens(tokens(l), tokens(r), 1.0);
            }
            let dd = DerivedDictionary::build(&dict, &rs, &DeriveConfig::default());
            let index = ClusteredIndex::build(&dd, &int);
            let r = index.raw_parts();
            let built = cluster_postings(&dd, index.order(), r.set_data, r.set_offsets);
            proptest::prop_assert_eq!(&built, &cluster_postings_per_token_vecs(&dd, index.order(), r.set_data, r.set_offsets));
            proptest::prop_assert_eq!(r.tok_groups, &built.tok_groups[..]);
            proptest::prop_assert_eq!(r.positions, &built.positions[..]);
        }
    }
}
