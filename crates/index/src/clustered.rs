//! The clustered inverted index (paper §3.2, Algorithm 2, Figures 3–4).
//!
//! The paper's index keeps, for every token `t`, one posting per derived
//! entity containing `t` — the position of `t` in that entity's
//! globally-ordered distinct token set — and clusters the postings twice:
//!
//! 1. by derived-entity **length** — so a scan can batch-skip whole groups
//!    that violate the length filter, and
//! 2. within a length group by **origin entity** — so an origin's variants
//!    are decided together.
//!
//! Here the cluster *is* the posting. A candidate is an origin, and the only
//! question a scan asks of an origin cluster is "does some variant hold `t`
//! inside its τ-prefix?", i.e. "is some position below `prefix_len(len, τ)`?"
//! — with one prefix length per set length, that is "is the *lowest*
//! position below it?", whatever the threshold. So an index entry is one
//! `(token, set length, origin)` cluster; which variants it stands for is
//! never asked (verification enumerates the candidate origin's variants
//! through [`ClusteredIndex::block`]).
//!
//! A token's clusters of one set length take few distinct lowest positions
//! (1.6–2.7 on the generated corpora), so the position is stored once per
//! *group*, not once per cluster: a group is a token's clusters of one
//! `(set length, lowest position)`, the groups of a token ascend by that
//! pair and the clusters of a group by origin. A scan takes a group's
//! origins whole or passes over them whole, with no compare per cluster.
//! The groups of one set length are consecutive, so the length filter's
//! batch skip reads lengths that never fall; an origin stands in at most
//! one group of a token and length.
//!
//! Storage is *globally* flattened (PR 8): because tokens are laid out one
//! after another, their groups tile the group arrays and the groups' origin
//! clusters tile the cluster array, so the whole index is five flat arrays
//! (`tok_groups → group_len, group_pos, group_origins → origin_entity`) held
//! in [`Arena`]s. Built in memory they are plain vectors; opened from a
//! frozen artifact they are zero-copy windows into the file image, and every
//! lookup below works identically on both.
//!
//! The variants' token sets are stored **per origin**, not per variant: all
//! variants of one origin are the same few tokens recombined, so an origin
//! keeps the distinct keys of all of them once (its *pool*) and each variant
//! is a bit mask over that pool. One `u32` arena holds one block per origin,
//!
//! ```text
//! [ P | the P pool keys, ascending | one P-bit mask per variant, run together ]
//! ```
//!
//! the masks in the order of the origin's variant ids (bit `b` of a mask ⇔
//! pool key `b` is in the variant's set), which derivation hands out by
//! ascending set length — a block's slot is its variant's id — and nothing
//! at all for an origin without variants. Slot `s`'s mask is bits `s·P ..
//! (s+1)·P` of the masks, counted from bit 0 of their first word, so `nv`
//! masks take `⌈nv·P/32⌉` words, zero past the last; [`OriginBlock`] reads
//! a mask out word by word, each from the two stored words it straddles. A
//! variant's set length is a popcount, a key's position in its set the
//! popcount of the lower bits. A block names no variant id, so
//! [`ClusteredIndex::splice`] copies blocks run by run. A build lays its
//! blocks out with every mask on whole words ([`IndexDraft`] re-keys them
//! so) and packs them in place once keyed.
//!
//! Origin ids and pool keys are stored at the index's [`IdWidth`], chosen
//! when it is built from its order's rank count and its origin space: at
//! [`IdWidth::U16`] the clusters' origins are `u16` and a pool is its keys'
//! bare ranks, two to a word (lower half first, a spare upper half zero), so
//! a block is `[P | ⌈P/2⌉ key words | masks]`; at [`IdWidth::U32`] both are
//! `u32` as above. The masks are the same at both widths. Readers are
//! written once against [`StoredId`] and [`Keys`] and branch on the width
//! once per length group or per block.

use crate::order::{GlobalOrder, VALID_BIT};
use aeetes_frozen::{pod_bytes, Arena, Pod};
use aeetes_rules::{derive_into, rebased, DeriveConfig, DerivedDictionary, DerivedId, MergePlan, RuleLookup, Slots, VariantTable};
use aeetes_text::{Dictionary, EntityId, Interner, TokenId};
use std::ops::Range;
use std::sync::Arc;

/// How wide an index stores its clusters' origin ids and its pools' keys.
/// One width covers both, and it is derived, never configured: see
/// [`IdWidth::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdWidth {
    /// `u16` origins and bare 16-bit ranks, two to a block word.
    U16,
    /// `u32` origins and `VALID_BIT | rank` keys, one to a block word.
    U32,
}

impl IdWidth {
    /// Ranks or origins a 16-bit index can name: `0..=u16::MAX`.
    pub(crate) const NARROW_SPACE: usize = 1 << 16;

    /// The width of an index over `origins` origins keyed by an order of
    /// `ranks` ranks: 16 bits when both fit, else 32.
    pub fn of(ranks: usize, origins: usize) -> Self {
        if ranks <= Self::NARROW_SPACE && origins <= Self::NARROW_SPACE {
            Self::U16
        } else {
            Self::U32
        }
    }

    /// Bytes per stored id.
    pub fn bytes(self) -> usize {
        match self {
            Self::U16 => 2,
            Self::U32 => 4,
        }
    }

    /// Block words a pool of `keys` keys takes.
    #[inline]
    fn key_words(self, keys: usize) -> usize {
        match self {
            Self::U16 => keys.div_ceil(2),
            Self::U32 => keys,
        }
    }
}

/// An origin id as an index stores it: `u16` at [`IdWidth::U16`], `u32` at
/// [`IdWidth::U32`]. The cluster loops are written once against it.
pub trait StoredId: Pod + Ord + std::fmt::Debug {
    /// The width this type stores ids at.
    const WIDTH: IdWidth;
    /// The stored id.
    fn get(self) -> u32;
    /// `id` at this width; the index's width guarantees it fits.
    fn store(id: u32) -> Self;
}

impl StoredId for u16 {
    const WIDTH: IdWidth = IdWidth::U16;
    #[inline]
    fn get(self) -> u32 {
        self.into()
    }
    #[inline]
    fn store(id: u32) -> Self {
        debug_assert!(id <= u16::MAX.into(), "id {id} stored at 16 bits");
        id as u16
    }
}

impl StoredId for u32 {
    const WIDTH: IdWidth = IdWidth::U32;
    #[inline]
    fn get(self) -> u32 {
        self
    }
    #[inline]
    fn store(id: u32) -> Self {
        id
    }
}

/// A borrowed array of stored origin ids, at its index's width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ids<'a> {
    U16(&'a [u16]),
    U32(&'a [u32]),
}

impl<'a> Ids<'a> {
    /// Number of ids.
    pub fn len(&self) -> usize {
        match self {
            Self::U16(ids) => ids.len(),
            Self::U32(ids) => ids.len(),
        }
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The width the ids are stored at.
    pub fn width(&self) -> IdWidth {
        match self {
            Self::U16(_) => IdWidth::U16,
            Self::U32(_) => IdWidth::U32,
        }
    }

    /// Id `i`, whatever the width (one branch per call: loops over many ids
    /// match on the variant instead).
    #[inline]
    pub fn get(&self, i: usize) -> EntityId {
        EntityId(match self {
            Self::U16(ids) => ids[i].into(),
            Self::U32(ids) => ids[i],
        })
    }

    /// The ids' bytes as they stand in memory (and in an artifact).
    pub fn as_bytes(&self) -> &'a [u8] {
        match self {
            Self::U16(ids) => pod_bytes(ids),
            Self::U32(ids) => pod_bytes(ids),
        }
    }

    /// The first index in `range` whose id `pred` rejects, the ids of the
    /// range being partitioned by it.
    fn partition_point(&self, range: Range<usize>, pred: impl Fn(EntityId) -> bool) -> usize {
        range.start
            + match self {
                Self::U16(ids) => ids[range].partition_point(|&id| pred(EntityId(id.into()))),
                Self::U32(ids) => ids[range].partition_point(|&id| pred(EntityId(id))),
            }
    }
}

/// Owned (or frozen) stored origin ids, at their index's width.
#[derive(Debug, Clone)]
pub enum IdArena {
    U16(Arena<u16>),
    U32(Arena<u32>),
}

impl IdArena {
    /// The ids.
    pub fn ids(&self) -> Ids<'_> {
        match self {
            Self::U16(ids) => Ids::U16(ids),
            Self::U32(ids) => Ids::U32(ids),
        }
    }

    /// Whether the storage borrows a frozen artifact.
    pub fn is_frozen(&self) -> bool {
        match self {
            Self::U16(ids) => ids.is_frozen(),
            Self::U32(ids) => ids.is_frozen(),
        }
    }
}

impl From<Vec<u16>> for IdArena {
    fn from(ids: Vec<u16>) -> Self {
        Self::U16(ids.into())
    }
}

impl From<Vec<u32>> for IdArena {
    fn from(ids: Vec<u32>) -> Self {
        Self::U32(ids.into())
    }
}

/// Read access to an origin's pool keys, written once for both widths: key
/// `i` is `VALID_BIT | rank`, as the order hands it out.
pub trait Keys: Copy {
    /// Keys in the pool.
    fn len(&self) -> usize;
    /// Key `i`.
    fn key(&self, i: usize) -> u32;
    /// Whether the pool is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// All the keys, ascending, as one slice: the pool itself where it
    /// stores them so, else decoded into `buf` in one pass over its words —
    /// for a loop that reads every key, cheaper than a shift per read.
    fn as_keys<'b>(self, buf: &'b mut Vec<u32>) -> &'b [u32]
    where
        Self: 'b;
}

impl Keys for &[u32] {
    #[inline]
    fn len(&self) -> usize {
        <[u32]>::len(self)
    }
    #[inline]
    fn key(&self, i: usize) -> u32 {
        self[i]
    }
    #[inline]
    fn as_keys<'b>(self, _: &'b mut Vec<u32>) -> &'b [u32]
    where
        Self: 'b,
    {
        self
    }
}

/// A 16-bit index's pool: bare ranks, two to a word, the lower half first.
#[derive(Debug, Clone, Copy)]
pub struct PackedRanks<'a> {
    words: &'a [u32],
    len: usize,
}

impl PackedRanks<'_> {
    /// Rank `i`, read by shift.
    #[inline]
    fn rank(&self, i: usize) -> u32 {
        self.words[i / 2] >> (i % 2 * 16) & 0xFFFF
    }
}

impl Keys for PackedRanks<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn key(&self, i: usize) -> u32 {
        VALID_BIT | self.rank(i)
    }
    #[inline]
    fn as_keys<'b>(self, buf: &'b mut Vec<u32>) -> &'b [u32]
    where
        Self: 'b,
    {
        buf.clear();
        buf.resize(2 * self.words.len(), 0);
        for (keys, &word) in buf.chunks_exact_mut(2).zip(self.words) {
            keys[0] = VALID_BIT | word & 0xFFFF;
            keys[1] = VALID_BIT | word >> 16;
        }
        &buf[..self.len]
    }
}

/// An origin's key pool, at its index's width.
#[derive(Debug, Clone, Copy)]
pub enum Pool<'a> {
    U16(PackedRanks<'a>),
    U32(&'a [u32]),
}

impl Pool<'_> {
    /// Keys in the pool.
    pub fn len(&self) -> usize {
        match self {
            Self::U16(pool) => pool.len(),
            Self::U32(pool) => pool.len(),
        }
    }

    /// Whether the pool is empty (an origin without variants).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key `i`, whatever the width (one branch per call: verification
    /// matches on the variant once per candidate instead).
    #[inline]
    pub fn key(&self, i: usize) -> u32 {
        match self {
            Self::U16(pool) => pool.key(i),
            Self::U32(pool) => pool.key(i),
        }
    }

    /// The keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(|i| self.key(i))
    }
}

/// The inverted list of one token (the paper's `L[t]`): a borrowed window
/// over the index's group range for that token.
#[derive(Clone, Copy)]
pub struct TokenPostings<'a> {
    ix: &'a ClusteredIndex,
    /// Global group-index range `[gs, ge)` of this token's length groups.
    gs: u32,
    ge: u32,
}

/// Borrowed view of one group: the part of a length group (the paper's
/// `Lₗ[t]`) whose clusters share one lowest position.
#[derive(Clone, Copy)]
pub struct LengthGroup<'a> {
    ix: &'a ClusteredIndex,
    /// Global group index.
    g: u32,
}

impl<'a> TokenPostings<'a> {
    /// Total number of entries (origin clusters) under this token.
    pub fn entry_count(&self) -> usize {
        (self.ix.group_origins[self.ge as usize] - self.ix.group_origins[self.gs as usize]) as usize
    }

    /// Groups in ascending `(len, pos)` order.
    pub fn groups(&self) -> impl Iterator<Item = LengthGroup<'a>> + 'a {
        let ix = self.ix;
        (self.gs..self.ge).map(move |g| LengthGroup { ix, g })
    }

    /// Groups starting from index `i` (see
    /// [`TokenPostings::first_group_at_least`]).
    pub fn groups_from(&self, i: usize) -> impl Iterator<Item = LengthGroup<'a>> + 'a {
        let ix = self.ix;
        let start = (self.gs as usize + i).min(self.ge as usize) as u32;
        (start..self.ge).map(move |g| LengthGroup { ix, g })
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        (self.ge - self.gs) as usize
    }

    /// Index of the first group with `len ≥ lo` (binary search: lengths
    /// never fall along a token's groups), relative to this token's first
    /// group.
    pub fn first_group_at_least(&self, lo: usize) -> usize {
        self.ix.group_len[self.gs as usize..self.ge as usize].partition_point(|&len| (len as usize) < lo)
    }
}

impl<'a> LengthGroup<'a> {
    /// Distinct-token-set size of every derived entity in this group.
    /// (This is half the group's *key*, not a container size — a group
    /// always holds at least one cluster.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.ix.group_len[self.g as usize] as usize
    }

    /// The lowest position (0-based) the token takes in the ordered set of
    /// any variant of a cluster's origin and the group's length — the same
    /// for every cluster of the group, and below [`LengthGroup::len`]. The
    /// prefix filter admits the group's origins exactly when this is below
    /// `prefix_len(len, τ)`.
    #[inline]
    pub fn pos(&self) -> usize {
        self.ix.group_pos[self.g as usize] as usize
    }

    /// The origins of the group's clusters as stored: ascending, at the
    /// index's width. What the scans read.
    #[inline]
    pub fn clusters(&self) -> Ids<'a> {
        let ix = self.ix;
        let clusters = ix.group_origins[self.g as usize] as usize..ix.group_origins[self.g as usize + 1] as usize;
        match &ix.origin_entity {
            IdArena::U16(ids) => Ids::U16(&ids[clusters]),
            IdArena::U32(ids) => Ids::U32(&ids[clusters]),
        }
    }

    /// Number of origin clusters in this group.
    pub fn origin_count(&self) -> usize {
        (self.ix.group_origins[self.g as usize + 1] - self.ix.group_origins[self.g as usize]) as usize
    }
}

/// Borrowed view of one origin's block: its variants' token sets as bit
/// masks over the origin's key pool (see the module docs). Empty throughout
/// for an origin without variants.
#[derive(Clone)]
pub struct OriginBlock<'a> {
    /// The origin's variant ids: slot `s` holds variant `ids.start + s`, and
    /// set lengths never fall along them.
    pub ids: Range<u32>,
    /// The distinct keys of all the origin's variants, ascending.
    pub pool: Pool<'a>,
    /// One `bits`-bit mask per slot, back to back from bit 0 of the first
    /// word (bit `i` of the run is bit `i % 32` of word `i / 32`), the last
    /// word zero past them.
    masks: &'a [u32],
    /// Bits per mask, the pool's size: kept so that the per-slot reads of
    /// verification do not branch on the pool's width.
    bits: usize,
}

/// Words of `bits` bits.
#[inline]
fn words_of(bits: usize) -> usize {
    bits.div_ceil(32)
}

impl<'a> OriginBlock<'a> {
    /// The view of a stored `block` — `[P | P keys at width | masks]`, or
    /// nothing — whose slots hold `ids`.
    #[inline]
    fn new(ids: Range<u32>, block: &'a [u32], width: IdWidth) -> Self {
        let (keys, rest) = match block {
            [] => (0, block),
            [keys, rest @ ..] => (*keys as usize, rest),
        };
        let (pool, masks) = rest.split_at(width.key_words(keys));
        let pool = match width {
            IdWidth::U16 => Pool::U16(PackedRanks { words: pool, len: keys }),
            IdWidth::U32 => Pool::U32(pool),
        };
        Self { ids, pool, masks, bits: keys }
    }

    /// The variant in `slot`.
    #[inline]
    pub fn id(&self, slot: usize) -> DerivedId {
        DerivedId(self.ids.start + slot as u32)
    }

    /// Words a mask takes once read out: `⌈|pool| / 32⌉`.
    #[inline]
    pub fn words(&self) -> usize {
        words_of(self.bits)
    }

    /// Reads the mask of the variant in `slot` into `out`, [`Self::words`]
    /// words: bit `b` ⇔ `pool[b]` is in its set, the bits past the pool zero.
    /// The mask starts at bit `slot · |pool|` of the block's masks, so each
    /// word is put together from the two stored words it straddles.
    #[inline]
    pub fn mask_into(&self, slot: usize, out: &mut [u32]) {
        assert_eq!(out.len(), self.words(), "a mask is read into its words");
        self.read_mask(slot, |w, word| out[w] = word);
    }

    /// Distinct-set size of the variant in `slot`.
    #[inline]
    pub fn set_len(&self, slot: usize) -> usize {
        let mut len = 0;
        self.read_mask(slot, |_, word| len += word.count_ones() as usize);
        len
    }

    /// The one mask reader: hands `take` the words of the mask of the
    /// variant in `slot` in order, as [`Self::mask_into`] reads them out.
    #[inline(always)]
    fn read_mask(&self, slot: usize, mut take: impl FnMut(usize, u32)) {
        let at = slot * self.bits;
        let (first, shift, n) = (at / 32, at % 32, self.words());
        if n == 0 {
            return;
        }
        // Words `first..first + n` hold the mask's start; the word after
        // them, where there is one, may hold its end.
        let src = &self.masks[first..first + n];
        let next = self.masks.get(first + n).copied().unwrap_or(0);
        let word = |lo: u32, hi: u32| ((u64::from(lo) | u64::from(hi) << 32) >> shift) as u32;
        for w in 0..n - 1 {
            take(w, word(src[w], src[w + 1]));
        }
        take(n - 1, word(src[n - 1], next) & !0u32 >> (32 * n - self.bits));
    }

    /// First slot whose set holds at least `lo` keys (binary search: slots
    /// ascend by set length).
    pub fn first_slot_at_least(&self, lo: usize) -> usize {
        let (mut from, mut to) = (0, self.ids.len());
        while from < to {
            let mid = (from + to) / 2;
            if self.set_len(mid) < lo {
                from = mid + 1;
            } else {
                to = mid;
            }
        }
        from
    }

    /// The globally-ordered distinct key set of the variant in `slot`.
    pub fn keys(&self, slot: usize) -> impl Iterator<Item = u32> + 'a {
        let mut mask = vec![0; self.words()];
        self.mask_into(slot, &mut mask);
        let pool = self.pool;
        (0..self.bits)
            .filter(move |bit| mask[bit / 32] >> (bit % 32) & 1 != 0)
            .map(move |bit| pool.key(bit))
    }

    /// Appends this block to `out`, its pool stored at `width` (nothing for
    /// an origin without variants). The masks are the same at both widths.
    fn write(&self, out: &mut Vec<u32>, width: IdWidth) {
        if self.ids.is_empty() {
            return;
        }
        let keys = self.pool.len();
        out.push(keys as u32);
        match width {
            IdWidth::U32 => out.extend(self.pool.iter()),
            IdWidth::U16 => out.extend((0..keys.div_ceil(2)).map(|w| {
                let rank = |i: usize| if i < keys { self.pool.key(i) & !VALID_BIT } else { 0 };
                rank(2 * w) | rank(2 * w + 1) << 16
            })),
        }
        out.extend_from_slice(self.masks);
    }
}

/// The three per-origin arrays of an index, slot by slot (a slot is its
/// origin in a whole index, a listed origin in a listed one).
#[derive(Debug, Clone)]
struct OriginBlocks {
    /// How the blocks store their pools.
    width: IdWidth,
    /// The slots' blocks back to back
    /// (`block_offsets[s]..block_offsets[s+1]` is slot `s`'s): everything
    /// verification reads of a candidate sits in one contiguous run.
    blocks: Arena<u32>,
    block_offsets: Arena<u32>,
    /// `origin_offsets[s]..origin_offsets[s+1]` is slot `s`'s variant id
    /// range — the variant table's own prefix — and so its block's slots.
    origin_offsets: Arena<u32>,
}

impl OriginBlocks {
    /// Number of slots.
    fn origins(&self) -> usize {
        self.origin_offsets.len() - 1
    }

    /// The slots whose blocks hold a pool, ascending, with their blocks.
    fn pooled(&self) -> impl Iterator<Item = (usize, OriginBlock<'_>)> {
        let offsets: &[u32] = &self.block_offsets;
        offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] != w[1])
            .map(|(e, _)| (e, self.block(e)))
            .filter(|(_, block)| !block.pool.is_empty())
    }

    /// Slot `e`'s block. Relies on the block invariants
    /// [`ClusteredIndex::from_raw_parts`] validates.
    #[inline]
    fn block(&self, e: usize) -> OriginBlock<'_> {
        OriginBlock::new(
            self.origin_offsets[e]..self.origin_offsets[e + 1],
            &self.blocks[self.block_offsets[e] as usize..self.block_offsets[e + 1] as usize],
            self.width,
        )
    }
}

/// Blocks as a writer lays them out, before they are stored: every pool key
/// at 32 bits and every mask on its own `⌈P/32⌉` words, so that a draft can
/// move a mask's bits word by word when it re-keys the pool.
#[derive(Debug)]
struct AlignedBlocks {
    blocks: Vec<u32>,
    block_offsets: Vec<u32>,
    origin_offsets: Vec<u32>,
}

impl AlignedBlocks {
    fn origins(&self) -> usize {
        self.origin_offsets.len() - 1
    }

    /// The blocks as an index stores them, at `width`, in the same arena:
    /// each pool's keys narrowed to bare ranks two to a word at
    /// [`IdWidth::U16`], each mask cut to its pool's `P` bits and the masks
    /// run together, and the arena cut to its new length. No block grows, so
    /// each word is written at or before where it was read, and only after
    /// it was read; no second arena is allocated. At 16 bits every key must
    /// be valid with a rank below 2¹⁶.
    fn pack(mut self, width: IdWidth) -> OriginBlocks {
        let (blocks, offsets) = (&mut self.blocks, &mut self.block_offsets);
        let mut to = 0;
        for e in 0..offsets.len() - 1 {
            let (from, end) = (offsets[e] as usize, offsets[e + 1] as usize);
            offsets[e] = to as u32;
            if from == end {
                continue;
            }
            let keys = blocks[from] as usize;
            blocks[to] = keys as u32;
            let key_words = width.key_words(keys);
            match width {
                IdWidth::U32 => blocks.copy_within(from + 1..from + 1 + keys, to + 1),
                IdWidth::U16 => {
                    for w in 0..key_words {
                        // Both keys are read before the word is written: `to ≤ from`.
                        let rank = |i: usize| if i < keys { blocks[from + 1 + i] & !VALID_BIT } else { 0 };
                        let word = rank(2 * w) | rank(2 * w + 1) << 16;
                        blocks[to + 1 + w] = word;
                    }
                }
            }
            // The masks, bit by bit through a 64-bit accumulator: a word is
            // written once 32 bits are in it, by which time the aligned words
            // up to and past it have been read.
            let (mut out, mut acc, mut held) = (to + 1 + key_words, 0u64, 0);
            let words = words_of(keys);
            for mask in (from + 1 + keys..end).step_by(words.max(1)) {
                for w in 0..words {
                    let bits = (keys - 32 * w).min(32);
                    acc |= u64::from(blocks[mask + w] & !0u32 >> (32 - bits)) << held;
                    held += bits;
                    if held >= 32 {
                        blocks[out] = acc as u32;
                        (out, acc, held) = (out + 1, acc >> 32, held - 32);
                    }
                }
            }
            if held > 0 {
                blocks[out] = acc as u32;
                out += 1;
            }
            to = out;
        }
        *offsets.last_mut().expect("a prefix") = to as u32;
        blocks.truncate(to);
        blocks.shrink_to_fit();
        OriginBlocks {
            width,
            blocks: self.blocks.into(),
            block_offsets: self.block_offsets.into(),
            origin_offsets: self.origin_offsets.into(),
        }
    }
}

/// Per-origin arrays written run by run out of other indexes' slot runs, in
/// ascending output order, with rebased offsets, at one width.
struct OriginRuns {
    width: IdWidth,
    blocks: Vec<u32>,
    block_offsets: Vec<u32>,
    origin_offsets: Vec<u32>,
}

impl OriginRuns {
    /// Room for `origins` slots and `words` block words, at `width`.
    fn new(origins: usize, words: usize, width: IdWidth) -> Self {
        let offsets = || {
            let mut offsets = Vec::with_capacity(origins + 1);
            offsets.push(0);
            offsets
        };
        Self {
            width,
            blocks: Vec::with_capacity(words),
            block_offsets: offsets(),
            origin_offsets: offsets(),
        }
    }

    /// Appends `ix`'s slots `run` as output slots from `at`; the slots
    /// between the previous run and this one hold nothing. At `ix`'s own
    /// width the block words grow by exactly the run's, copied as they stand;
    /// at another, each block is re-encoded — the one place a block changes
    /// width.
    fn push_run(&mut self, ix: &OriginBlocks, run: Range<usize>, at: usize) {
        assert!(self.origin_offsets.len() <= at + 1, "slot runs must ascend");
        let v0 = ix.origin_offsets[run.start];
        let (b0, b1) = (ix.block_offsets[run.start], ix.block_offsets[run.end]);
        let (variants, block_base) = (*self.origin_offsets.last().expect("a prefix"), self.blocks.len() as u32);
        self.origin_offsets.resize(at + 1, variants);
        self.origin_offsets.extend(rebased(&ix.origin_offsets[run.start + 1..=run.end], v0, variants));
        self.block_offsets.resize(at + 1, block_base);
        if ix.width == self.width {
            u32::try_from(self.blocks.len() + (b1 - b0) as usize).expect("origin block arena overflows u32 offsets");
            self.block_offsets.extend(rebased(&ix.block_offsets[run.start + 1..=run.end], b0, block_base));
            self.blocks.reserve_exact((b1 - b0) as usize);
            self.blocks.extend_from_slice(&ix.blocks[b0 as usize..b1 as usize]);
        } else {
            for e in run {
                ix.block(e).write(&mut self.blocks, self.width);
                self.block_offsets
                    .push(u32::try_from(self.blocks.len()).expect("origin block arena overflows u32 offsets"));
            }
        }
    }

    fn finish(mut self, origins: usize) -> OriginBlocks {
        let (variants, block_base) = (*self.origin_offsets.last().expect("a prefix"), self.blocks.len() as u32);
        self.origin_offsets.resize(origins + 1, variants);
        self.block_offsets.resize(origins + 1, block_base);
        OriginBlocks {
            width: self.width,
            blocks: self.blocks.into(),
            block_offsets: self.block_offsets.into(),
            origin_offsets: self.origin_offsets.into(),
        }
    }
}

/// `(|e|⊥, |e|⊤)`, the extreme non-empty set lengths: every non-empty set
/// has its postings in groups of its length, and no group is empty.
fn set_len_range(group_len: &[u16]) -> (Option<usize>, Option<usize>) {
    (group_len.iter().min().map(|&len| len.into()), group_len.iter().max().map(|&len| len.into()))
}

/// The raw flat arrays of a [`ClusteredIndex`], for the frozen writer.
#[derive(Debug, Clone, Copy)]
pub struct IndexArenasRef<'a> {
    /// Token → first global group index (`T+1` prefix entries).
    pub tok_groups: &'a [u32],
    /// Group → distinct-set length (`G` entries).
    pub group_len: &'a [u16],
    /// Group → the lowest position its token takes in a variant of each of
    /// its clusters' origins and its set length (`G` entries).
    pub group_pos: &'a [u16],
    /// Group → first global origin-cluster index (`G+1` prefix entries).
    pub group_origins: &'a [u32],
    /// Origin cluster → origin entity (`O` entries), at the index's width.
    pub origin_entity: Ids<'a>,
    /// One block per origin: key pool (at the width of `origin_entity`) plus
    /// one mask per variant.
    pub blocks: &'a [u32],
    /// Origin → block range (`origins+1` prefix entries).
    pub block_offsets: &'a [u32],
    /// Origin → variant id range (`origins+1` prefix entries): the variant
    /// table's own prefix, which an artifact stores once for both.
    pub origin_offsets: &'a [u32],
}

/// Owned (or frozen) arenas to reassemble a [`ClusteredIndex`] from; see
/// [`IndexArenasRef`] for field semantics. The width of `origin_entity` is
/// the width of the blocks' pools too.
#[derive(Debug, Clone)]
pub struct IndexArenas {
    pub tok_groups: Arena<u32>,
    pub group_len: Arena<u16>,
    pub group_pos: Arena<u16>,
    pub group_origins: Arena<u32>,
    pub origin_entity: IdArena,
    pub blocks: Arena<u32>,
    pub block_offsets: Arena<u32>,
    pub origin_offsets: Arena<u32>,
}

/// The clustered inverted index over a derived dictionary.
///
/// Also owns the [`GlobalOrder`] and, for verification, every origin's
/// [`OriginBlock`].
///
/// An index is *whole* — its token lists indexed by token id and its
/// per-origin arrays by origin id, as a build, an artifact and a
/// generation's base hold it — or *listed*: its token lists and per-origin
/// arrays cover only the tokens and the origins it holds, each found in a
/// sorted list, so that it costs what it holds whatever the id spaces are
/// (a build's parts before they are concatenated, a delta's changed origins,
/// a generation's tail). Clusters name origin ids either way.
#[derive(Debug, Clone)]
pub struct ClusteredIndex {
    /// Shared so the parts of a build, a generation's base and its tail all
    /// read one global order (the shared-order invariant, DESIGN.md §10).
    order: Arc<GlobalOrder>,
    /// `tok_groups[t]..tok_groups[t+1]` is token `t`'s group range.
    tok_groups: Arena<u32>,
    /// Per group, its key: set length and lowest position.
    group_len: Arena<u16>,
    group_pos: Arena<u16>,
    group_origins: Arena<u32>,
    /// One entry per origin cluster.
    origin_entity: IdArena,
    /// The variants' sets, origin by origin, at the width of `origin_entity`.
    sets: OriginBlocks,
    /// What a listed index holds; `None` for a whole one.
    listed: Option<Listed>,
    min_len: Option<usize>,
    max_len: Option<usize>,
}

/// The tokens and origins a listed index holds, each strictly ascending:
/// entry `i` of `tok_groups` stands for `tokens[i]`, slot `s` of the
/// per-origin arrays for `origins[s]`.
#[derive(Debug, Clone)]
struct Listed {
    tokens: Vec<TokenId>,
    origins: Vec<EntityId>,
}

impl ClusteredIndex {
    /// Builds the index (paper Algorithm 2). The interner supplies the
    /// strings for the global order's frequency tie-break.
    pub fn build(dd: &DerivedDictionary, interner: &Interner) -> Self {
        let order = Arc::new(GlobalOrder::build(dd, interner));
        Self::build_with_order(dd, order)
    }

    /// Builds the index against an externally constructed [`GlobalOrder`]
    /// (one order shared by every part of a build).
    /// Every token occurring in `dd` must be valid in `order`.
    pub fn build_with_order(dd: &DerivedDictionary, order: Arc<GlobalOrder>) -> Self {
        let mut writer = BlockWriter::new(dd.origins(), order.ranks());
        for e in (0..dd.origins() as u32).map(EntityId) {
            let ids = dd.variant_range(e);
            if !ids.is_empty() {
                let key_of = |t: TokenId| {
                    let key = order.key(t);
                    assert!(key & VALID_BIT != 0, "token {t:?} of origin {} is not valid in the order", e.0);
                    key
                };
                writer.push_origin((e, e.idx()), ids.map(|id| dd.derived(DerivedId(id)).tokens), key_of, |_| {});
            }
        }
        Self::from_sets(order, writer.finish(dd), None, |t| t.0)
    }

    /// The index over `sets`, blocks keyed by `order`: packed in place at the
    /// width the width rule chooses, then clustered at that width — whole,
    /// or listed over `listed`'s origins (`sets`' slots) and tokens (every
    /// token of their sets, sorted), `slot_of` finding a token's entry.
    fn from_sets(order: Arc<GlobalOrder>, sets: AlignedBlocks, listed: Option<Listed>, slot_of: impl Fn(TokenId) -> u32) -> Self {
        let slots = listed.as_ref().map_or(Slots::Whole(sets.origins()), |l| Slots::Listed(&l.origins));
        let width = IdWidth::of(order.ranks(), id_space(slots));
        let sets = sets.pack(width);
        let tokens = (listed.as_ref().map_or(order.tokens(), |l| l.tokens.len()), slot_of);
        let postings = match width {
            IdWidth::U16 => Postings::U16(cluster_postings::<u16>(&order, &sets, slots, tokens)),
            IdWidth::U32 => Postings::U32(cluster_postings::<u32>(&order, &sets, slots, tokens)),
        };
        Self::assemble(order, postings, sets, listed)
    }

    fn assemble(order: Arc<GlobalOrder>, postings: Postings, sets: OriginBlocks, listed: Option<Listed>) -> Self {
        match postings {
            Postings::U16(postings) => Self::assemble_at(order, postings, sets, listed),
            Postings::U32(postings) => Self::assemble_at(order, postings, sets, listed),
        }
    }

    fn assemble_at<I: StoredId>(order: Arc<GlobalOrder>, postings: ClusteredPostings<I>, sets: OriginBlocks, listed: Option<Listed>) -> Self
    where
        Vec<I>: Into<IdArena>,
    {
        assert_eq!(I::WIDTH, sets.width, "clusters and blocks share one width");
        let (min_len, max_len) = set_len_range(&postings.group_len);
        Self {
            order,
            tok_groups: postings.tok_groups.into(),
            group_len: postings.group_len.into(),
            group_pos: postings.group_pos.into(),
            group_origins: postings.group_origins.into(),
            origin_entity: postings.origin_entity.into(),
            sets,
            listed,
            min_len,
            max_len,
        }
    }

    /// Which origins this index's per-origin arrays stand for.
    pub fn slots(&self) -> Slots<'_> {
        self.listed.as_ref().map_or(Slots::Whole(self.sets.origins()), |l| Slots::Listed(&l.origins))
    }

    /// Whether this index is whole (token lists by token id, per-origin
    /// arrays by origin id), as an artifact stores one.
    pub fn is_whole(&self) -> bool {
        self.listed.is_none()
    }

    /// The tokens of a listed index, ascending (`None` for a whole one).
    fn listed_tokens(&self) -> Option<&[TokenId]> {
        self.listed.as_ref().map(|l| &l.tokens[..])
    }

    /// The index a delta leaves behind, merged instead of rebuilt: `old`
    /// without the clusters and blocks of the origins `keep_old` turns away,
    /// and all of `small`'s put in, laid out by `plan` — the
    /// [`MergePlan`] over `[old.slots(), small.slots()]` that
    /// [`aeetes_rules::VariantTable::merge`] lays the two tables out by,
    /// with `keep_old` on the old side.
    ///
    /// `small` is keyed by the (possibly extended) order the result is to
    /// carry. Extending an order never re-keys a token, so every set and
    /// position `old` stores is what a rebuild under `small`'s order would
    /// compute again; and clusters are laid out token → `(set length, lowest
    /// position)` → ascending origin, so a token's list after the delta is
    /// its old list without the turned-away origins' clusters, merged by
    /// `(length, position, origin)` with its small list. The result — whole
    /// or listed as `plan`'s output is — equals a build over the merged
    /// dictionary array for array: [`ClusteredIndex::build_with_order`] for
    /// a whole one, [`IndexDraft::into_index`] over the listed origins for a
    /// listed one. Every array is written once, the five whose size depends
    /// on which groups empty out or coincide (and which trailing tokens go
    /// with them) at a capacity that exceeds it by at most `small`'s size
    /// plus what was cut. A listed merge reads only what its sides list, so
    /// splicing a delta into a generation's tail costs the tail and the
    /// delta, not the dictionary.
    ///
    /// The result's width is chosen afresh by [`IdWidth::of`], from `small`'s
    /// order and the result's origin ids; a side stored at another width is
    /// re-encoded as it is copied. This is the one place an index changes
    /// width: a tail that crosses 2¹⁶ ranks or origins is built wide, and
    /// compaction re-chooses. A whole result — a compaction — is keyed by
    /// `small`'s order folded flat ([`GlobalOrder::flattened`]): the same
    /// keys, with no overlay of extended tokens left beside them.
    ///
    /// # Panics
    /// Panics when `plan` runs past a side's slots, or a listed output has a
    /// whole side.
    pub fn splice(old: &Self, small: &Self, plan: MergePlan, keep_old: impl Fn(EntityId) -> bool) -> Self {
        let order = small.shared_order();
        let width = IdWidth::of(order.ranks(), id_space(plan.output()));
        let words: usize = plan
            .runs()
            .iter()
            .map(|(s, run, _)| {
                let ix = [&old.sets, &small.sets][*s];
                (ix.block_offsets[run.end] - ix.block_offsets[run.start]) as usize
            })
            .sum();
        let mut sets = OriginRuns::new(plan.slots(), words, width);
        for (s, run, at) in plan.runs() {
            sets.push_run([&old.sets, &small.sets][*s], run.clone(), *at);
        }
        let sides = [(old.raw_parts(), old.listed_tokens()), (small.raw_parts(), small.listed_tokens())];
        let keep = |side, e: EntityId| side == 1 || keep_old(e);
        let sets = sets.finish(plan.slots());
        let listed = plan.into_listed();
        let (postings, tokens) = merge_postings(&sides, keep, width, listed.is_some());
        // A whole index — a compaction — folds an extended order flat.
        let order = match listed {
            None => order.flattened().map_or(order, Arc::new),
            Some(_) => order,
        };
        let listed = listed.map(|origins| Listed { tokens: tokens.expect("a listed merge lists its tokens"), origins });
        Self::assemble(order, postings, sets, listed)
    }

    /// The whole index of a build's `parts` as one: each part indexes the
    /// variants of its own origins, laid out by `plan` — the whole
    /// [`MergePlan`] over the parts' slots that the parts' tables are
    /// concatenated by — and all are keyed by one order. Per token, the
    /// parts' groups merge by `(length, position)` and the clusters of one
    /// group concatenate in part order — which, the parts' origins
    /// ascending, is the order of a build — and the parts' blocks
    /// concatenate by origin. The result equals
    /// [`ClusteredIndex::build_with_order`] over one derivation of the
    /// parts' origins, array for array, whatever the number of parts.
    ///
    /// The parts go as they are consumed: their cluster arrays once the merged
    /// ones are written, then each part's blocks once copied, so the merge
    /// holds beside the parts at most the merged cluster arrays, or the blocks
    /// of one part. A lone part that lists every origin keeps its arrays and
    /// only spreads its token lists over the token ids.
    ///
    /// # Panics
    /// Panics when `parts` is empty, is keyed by more than one order, or
    /// `plan` is not whole or runs past a part's slots.
    pub fn concat(mut parts: Vec<Self>, plan: &MergePlan) -> Self {
        let order = parts.first().expect("a build has at least one part").shared_order();
        assert!(parts.iter().all(|part| Arc::ptr_eq(&part.order, &order)), "the parts of a build share one order");
        assert!(matches!(plan.output(), Slots::Whole(_)), "a build is whole");
        let width = IdWidth::of(order.ranks(), plan.slots());
        if parts.len() == 1 && plan.is_identity() && parts[0].sets.origins() == plan.slots() && parts[0].width() == width {
            let mut part = parts.pop().expect("one part");
            if let Some(listed) = part.listed.take() {
                part.tok_groups = spread_tokens(&listed.tokens, &part.tok_groups).into();
            }
            return part;
        }
        let sides: Vec<_> = parts.iter().map(|part| (part.raw_parts(), part.listed_tokens())).collect();
        let (postings, _) = merge_postings(&sides, |_, _| true, width, false);
        drop(sides);
        let mut last_run = vec![0; parts.len()];
        for (i, (s, ..)) in plan.runs().iter().enumerate() {
            last_run[*s] = i;
        }
        let mut parts: Vec<Option<OriginBlocks>> = parts.into_iter().map(|part| Some(part.sets)).collect();
        let mut sets = OriginRuns::new(plan.slots(), 0, width);
        for (i, (s, run, at)) in plan.runs().iter().enumerate() {
            sets.push_run(parts[*s].as_ref().expect("a part is dropped after its last run"), run.clone(), *at);
            if last_run[*s] == i {
                parts[*s] = None;
            }
        }
        Self::assemble(order, postings, sets.finish(plan.slots()), None)
    }

    /// Reassembles an index from raw (possibly frozen) arenas, validating
    /// every structural invariant so corrupted artifacts are rejected with
    /// a clean error and no later lookup can read out of bounds:
    ///
    /// - all prefix arrays start at 0, are monotonic and end at their
    ///   target arena's length;
    /// - there is one lowest position per group, below its set length — the
    ///   length of every set its clusters can stand for;
    /// - groups are strictly ascending by `(length, position)` within each
    ///   token and origin entities strictly ascending within each group (the
    ///   batch-skip scans rely on both), and no origin stands in two groups
    ///   of one token and length (one stamp pass over the clusters of
    ///   lengths split by position);
    /// - every origin's block has the length its pool size and variant
    ///   count call for (none without variants), its pool is strictly
    ///   ascending and holds only valid keys whose rank the order handed out
    ///   (the merge of verification silently under-counts on anything else),
    ///   the padding bits after its `variants × P` mask bits are zero, and
    ///   the masks' popcounts never fall from one slot to the next
    ///   (verification binary-searches them);
    /// - every origin cluster names an origin of the variant table.
    ///
    /// A cluster is not checked against its origin's block — that some mask
    /// of the group's length holds the token at the group's position — nor
    /// a group's position against anything but its length: a CRC-valid image
    /// is trusted that far, as it is for which clusters a token has. (The
    /// check is a lookup per cluster, and on usjob it costs some thirty
    /// times the rest of an open: DESIGN.md §15.)
    pub fn from_raw_parts(order: Arc<GlobalOrder>, a: IndexArenas) -> Result<Self, String> {
        // A 16-bit index names every rank and origin in 16 bits; past 2¹⁶ of
        // either, the width rule stores it at 32. Checked first: nothing
        // else of such an image can be read at the width it claims.
        let (origin_space, ranks) = (a.origin_offsets.len().saturating_sub(1), order.ranks());
        let width = a.origin_entity.ids().width();
        if width == IdWidth::U16 && IdWidth::of(ranks, origin_space) != width {
            return Err(format!("a 16-bit index over {origin_space} origins and {ranks} ranks: past 65 536 of either, ids are 32 bits"));
        }
        let groups = a.group_len.len();
        let origins = a.origin_entity.ids().len();
        check_prefix("token group offsets", &a.tok_groups, groups)?;
        if a.group_pos.len() != groups {
            return Err(format!("group positions hold {} entries, expected one per group: {groups}", a.group_pos.len()));
        }
        if a.group_origins.len() != groups + 1 {
            return Err(format!("group origin offsets hold {} entries, expected {}", a.group_origins.len(), groups + 1));
        }
        check_prefix("group origin offsets", &a.group_origins, origins)?;
        // Variant ids have no array of their own for the prefix to end at.
        let variants = a.origin_offsets.last().map_or(0, |&d| d as usize);
        check_prefix("variant offsets", &a.origin_offsets, variants)?;
        if a.block_offsets.len() != a.origin_offsets.len() {
            return Err(format!("block offsets hold {} entries, expected {}", a.block_offsets.len(), a.origin_offsets.len()));
        }
        check_prefix("block offsets", &a.block_offsets, a.blocks.len())?;
        // These scans run on the frozen-open critical path, so hoist plain
        // slices out of the arenas (an Arena deref is a match plus a
        // pointer rebuild).
        let tok_groups: &[u32] = &a.tok_groups;
        let group_len: &[u16] = &a.group_len;
        let group_pos: &[u16] = &a.group_pos;
        let group_origins: &[u32] = &a.group_origins;
        let blocks: &[u32] = &a.blocks;
        let block_offsets: &[u32] = &a.block_offsets;
        let origin_offsets: &[u32] = &a.origin_offsets;
        if !group_len.iter().zip(group_pos).fold(true, |ok, (&len, &pos)| ok & (pos < len)) {
            let g = (0..groups).find(|&g| group_pos[g] >= group_len[g]).expect("fold found a bad group");
            return Err(format!("group {g} lowest position {} outside its sets of {}", group_pos[g], group_len[g]));
        }
        let key = |g: usize| u32::from(group_len[g]) << 16 | u32::from(group_pos[g]);
        if !ascending_within(|i| key(i - 1) < key(i), tok_groups, groups) {
            let t = (0..tok_groups.len() - 1)
                .find(|&t| (tok_groups[t] as usize + 1..tok_groups[t + 1] as usize).any(|g| key(g - 1) >= key(g)))
                .expect("pass found a non-ascending group range");
            return Err(format!("token {t}'s groups are not strictly ascending by (length, position)"));
        }
        match a.origin_entity.ids() {
            Ids::U16(ids) => check_origins(ids, tok_groups, group_len, group_origins, origin_space)?,
            Ids::U32(ids) => check_origins(ids, tok_groups, group_len, group_origins, origin_space)?,
        }
        // Blocks, origin by origin.
        for e in 0..origin_space {
            let block = &blocks[block_offsets[e] as usize..block_offsets[e + 1] as usize];
            check_block(e, block, (origin_offsets[e + 1] - origin_offsets[e]) as usize, ranks as u32, width)?;
        }
        let sets = OriginBlocks {
            width,
            blocks: a.blocks,
            block_offsets: a.block_offsets,
            origin_offsets: a.origin_offsets,
        };
        let (min_len, max_len) = set_len_range(group_len);
        Ok(Self {
            order,
            tok_groups: a.tok_groups,
            group_len: a.group_len,
            group_pos: a.group_pos,
            group_origins: a.group_origins,
            origin_entity: a.origin_entity,
            sets,
            listed: None,
            min_len,
            max_len,
        })
    }

    /// Raw views of the flat arrays (the frozen writer serializes these, of
    /// a whole index; a listed one's token and per-origin arrays run over
    /// its lists).
    pub fn raw_parts(&self) -> IndexArenasRef<'_> {
        IndexArenasRef {
            tok_groups: &self.tok_groups,
            group_len: &self.group_len,
            group_pos: &self.group_pos,
            group_origins: &self.group_origins,
            origin_entity: self.origin_entity.ids(),
            blocks: &self.sets.blocks,
            block_offsets: &self.sets.block_offsets,
            origin_offsets: &self.sets.origin_offsets,
        }
    }

    /// The width origin ids and pool keys are stored at.
    pub fn width(&self) -> IdWidth {
        self.sets.width
    }

    /// Whether the storage borrows a frozen artifact (zero-copy).
    pub fn is_frozen(&self) -> bool {
        self.origin_entity.is_frozen()
    }

    /// Origin `e`'s block: its variants' sets, in id order, as masks over
    /// the origin's key pool — what verification reads of a candidate. A
    /// listed index finds `e`'s slot in its origin list; an origin it does
    /// not list has no variants in it.
    #[inline]
    pub fn block(&self, e: EntityId) -> OriginBlock<'_> {
        match &self.listed {
            None => self.sets.block(e.idx()),
            Some(listed) => match listed.origins.binary_search(&e) {
                Ok(slot) => self.sets.block(slot),
                Err(_) => OriginBlock::new(0..0, &[], self.sets.width),
            },
        }
    }

    /// The global token order used by this index.
    pub fn order(&self) -> &GlobalOrder {
        &self.order
    }

    /// The shared handle to the global order (for building further indexes
    /// against the same order).
    pub fn shared_order(&self) -> Arc<GlobalOrder> {
        Arc::clone(&self.order)
    }

    /// The inverted list of `t`, or `None` when `t` occurs in no entity.
    /// A listed index finds `t` in its token list.
    #[inline]
    pub fn postings(&self, t: TokenId) -> Option<TokenPostings<'_>> {
        let i = match &self.listed {
            None => t.idx(),
            Some(listed) => listed.tokens.binary_search(&t).ok()?,
        };
        if i + 1 >= self.tok_groups.len() {
            return None;
        }
        let (gs, ge) = (self.tok_groups[i], self.tok_groups[i + 1]);
        if gs == ge {
            return None;
        }
        Some(TokenPostings { ix: self, gs, ge })
    }

    /// Minimum non-empty distinct-set length over derived entities (`|e|⊥`).
    pub fn min_set_len(&self) -> Option<usize> {
        self.min_len
    }

    /// Maximum distinct-set length over derived entities (`|e|⊤`).
    pub fn max_set_len(&self) -> Option<usize> {
        self.max_len
    }

    /// Total index entries — origin clusters — across all tokens.
    pub fn total_entries(&self) -> usize {
        self.origin_entity.ids().len()
    }

    /// Size of the index in bytes as stored (for the paper's §6.3
    /// index-size comparison): its seven arrays at their stored widths and
    /// the origin prefix, which it reads but an artifact stores once, with
    /// the variant table — exactly those sections of its frozen image — and
    /// a listed index's two lists. For a frozen index this is the footprint
    /// of the borrowed file sections, not per-process heap.
    pub fn size_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        self.listed.as_ref().map_or(0, |l| size_of_val(&l.tokens[..]) + size_of_val(&l.origins[..]))
            + size_of_val(&self.tok_groups[..])
            + size_of_val(&self.group_len[..])
            + size_of_val(&self.group_pos[..])
            + size_of_val(&self.group_origins[..])
            + self.origin_entity.ids().as_bytes().len()
            + self.sets.blocks.len() * size_of::<u32>()
            + size_of_val(&self.sets.block_offsets[..])
            + size_of_val(&self.sets.origin_offsets[..])
    }
}

/// The five cluster arrays of an index under construction, its origins
/// stored as `I`.
#[derive(Debug, PartialEq, Eq)]
struct ClusteredPostings<I> {
    tok_groups: Vec<u32>,
    group_len: Vec<u16>,
    group_pos: Vec<u16>,
    group_origins: Vec<u32>,
    origin_entity: Vec<I>,
}

/// What [`BlockWriter::bit_of_key`] holds for a key outside the pool in hand.
const UNPOOLED: u16 = u16::MAX;

/// Lays out origin blocks, one origin after another in ascending order: the
/// distinct keys of the origin's variants, sorted once, are the pool; a key →
/// bit table turns each variant's tokens into its mask; and the masks stand
/// in the order the variants are given in, that of their ids.
///
/// A key is whatever the caller maps a token to, as long as the low 31 bits
/// tell keys apart: the order's keys for a build with the order in hand, a
/// draft's own dense token numbers for a draft that is keyed once the order
/// exists ([`IndexDraft`]). The key → bit table grows to the largest key
/// seen, so a draft's is sized by the tokens it holds.
struct BlockWriter {
    blocks: Vec<u32>,
    block_offsets: Vec<u32>,
    /// Per key: its bit in the pool in hand, [`UNPOOLED`] outside it — the
    /// pool's own entries are put back once its block is written.
    bit_of_key: Vec<u16>,
    /// The origin's tokens as keys, variant after variant, and where each
    /// variant's end.
    keys: Vec<u32>,
    ends: Vec<usize>,
    pool: Vec<u32>,
}

impl BlockWriter {
    fn new(origins: usize, universe: usize) -> Self {
        let mut block_offsets = Vec::with_capacity(origins + 1);
        block_offsets.push(0);
        Self {
            blocks: Vec::new(),
            block_offsets,
            bit_of_key: vec![UNPOOLED; universe],
            keys: Vec::new(),
            ends: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Appends the block of origin `e`, in slot `slot`, over `variants`, its
    /// variants' token sequences in id order, and calls `counted` with a key
    /// once per variant whose set holds it. Slots passed over hold nothing.
    ///
    /// # Panics
    /// Panics when `slot` does not lie past every slot pushed before, the
    /// variants hold more distinct tokens than a position can name, or set
    /// lengths fall along the variants (derivation hands ids out by
    /// ascending distinct-token count; verification binary-searches the
    /// slots on it).
    fn push_origin<'a>(
        &mut self,
        (e, slot): (EntityId, usize),
        variants: impl Iterator<Item = &'a [TokenId]>,
        mut key_of: impl FnMut(TokenId) -> u32,
        mut counted: impl FnMut(u32),
    ) {
        assert!(self.block_offsets.len() <= slot + 1, "origin {} is pushed out of order", e.0);
        self.block_offsets.resize(slot + 1, self.blocks.len() as u32);
        self.keys.clear();
        self.ends.clear();
        self.pool.clear();
        for tokens in variants {
            for &t in tokens {
                let key = key_of(t);
                self.keys.push(key);
                let at = (key & !VALID_BIT) as usize;
                if at >= self.bit_of_key.len() {
                    self.bit_of_key.resize(at + 1, UNPOOLED);
                }
                let bit = &mut self.bit_of_key[at];
                if *bit == UNPOOLED {
                    *bit = 0;
                    self.pool.push(key);
                }
            }
            self.ends.push(self.keys.len());
        }
        // Positions are u16, so a variant of more than 65 535 distinct
        // tokens cannot be indexed, and neither can it come from a pool that
        // small. Dictionary entities are short phrases (the paper's datasets
        // average 2–7 tokens), so this is an assertion on absurd input, not
        // a runtime error path (an artifact carries built indexes, so
        // nothing read from disk reaches it).
        assert!(self.pool.len() < UNPOOLED as usize, "origin {}'s variants hold more than u16::MAX distinct tokens", e.0);
        self.pool.sort_unstable();
        for (bit, &key) in self.pool.iter().enumerate() {
            self.bit_of_key[(key & !VALID_BIT) as usize] = bit as u16;
        }
        let words = words_of(self.pool.len());
        // The blocks are a build part's largest array and are shrunk to fit
        // once written, so they grow by a quarter at a time, as the sort
        // records do: doubling could leave half of them spare at the peak.
        let block = 1 + self.pool.len() + self.ends.len() * words;
        if self.blocks.capacity() - self.blocks.len() < block {
            self.blocks.reserve_exact(block.max(self.blocks.len() / 4 + 1024));
        }
        self.blocks.push(self.pool.len() as u32);
        self.blocks.extend_from_slice(&self.pool);
        let (mut start, mut shortest_allowed) = (0, 0);
        for &end in &self.ends {
            let at = self.blocks.len();
            self.blocks.resize(at + words, 0);
            let mask = &mut self.blocks[at..];
            let mut len = 0;
            for &key in &self.keys[start..end] {
                let bit = self.bit_of_key[(key & !VALID_BIT) as usize] as usize;
                if mask[bit / 32] & 1 << (bit % 32) == 0 {
                    mask[bit / 32] |= 1 << (bit % 32);
                    len += 1;
                    counted(key);
                }
            }
            start = end;
            assert!(len >= shortest_allowed, "origin {}'s variant ids do not ascend by set length", e.0);
            shortest_allowed = len;
        }
        for &key in &self.pool {
            self.bit_of_key[(key & !VALID_BIT) as usize] = UNPOOLED;
        }
        self.block_offsets
            .push(u32::try_from(self.blocks.len()).expect("origin block arena overflows u32 offsets"));
    }

    /// The blocks of `variants`' slots, every one of which that has variants
    /// pushed, their keys one to a word and their masks one to `⌈P/32⌉`
    /// words.
    fn finish(mut self, variants: &VariantTable) -> AlignedBlocks {
        self.block_offsets.resize(variants.origins() + 1, self.blocks.len() as u32);
        self.blocks.shrink_to_fit();
        AlignedBlocks {
            blocks: self.blocks,
            block_offsets: self.block_offsets,
            origin_offsets: variants.raw_arenas().0.to_vec(),
        }
    }
}

/// Tokens → numbers: what a draft keys its pools by until the order exists.
/// A draft over a share of the dictionary — a build part — numbers a token
/// by its id: its tables span the token ids its origins hold either way, and
/// an id costs no lookup. A draft over a few origins — a delta — numbers
/// them densely in first-seen order, through open-addressing slots, so that
/// its tables are sized by the tokens those origins hold, not by the token
/// id space.
#[derive(Debug, Default)]
struct TokenNumbers {
    /// Whether a token's number is its id; then `tokens` runs up to the
    /// largest id numbered and the slots stay empty.
    by_id: bool,
    /// One more than a token's number, 0 while free: a power of two of
    /// them, at most three quarters taken.
    slots: Vec<u32>,
    /// Number → token.
    tokens: Vec<TokenId>,
}

impl TokenNumbers {
    /// The number of `t`, handed out now if `t` has none yet.
    #[inline]
    fn number(&mut self, t: TokenId) -> u32 {
        if self.by_id {
            if t.idx() >= self.tokens.len() {
                self.tokens.extend((self.tokens.len() as u32..=t.0).map(TokenId));
            }
            return t.0;
        }
        if 4 * (self.tokens.len() + 1) > 3 * self.slots.len() {
            self.slots = vec![0; (2 * (self.tokens.len() + 1)).next_power_of_two().max(16)];
            for (n, &u) in self.tokens.iter().enumerate() {
                let at = self.probe(u);
                self.slots[at] = n as u32 + 1;
            }
        }
        let at = self.probe(t);
        if self.slots[at] == 0 {
            self.tokens.push(t);
            self.slots[at] = self.tokens.len() as u32;
        }
        self.slots[at] - 1
    }

    /// The number of `t`, which has one.
    #[inline]
    fn get(&self, t: TokenId) -> u32 {
        if self.by_id {
            return t.0;
        }
        self.slots[self.probe(t)].checked_sub(1).expect("a numbered token")
    }

    /// The slot holding `t`, or the free one that would take it.
    #[inline]
    fn probe(&self, t: TokenId) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (u64::from(t.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while let Some(n) = self.slots[at].checked_sub(1) {
            if self.tokens[n as usize] == t {
                break;
            }
            at = (at + 1) & mask;
        }
        at
    }
}

/// A delta's or a build part's index before the order it is to be keyed by
/// exists: the blocks of its origins with every pool in the draft's own
/// token numbers, and how many of its variants hold each token.
///
/// A build goes derive → order → index, and the order needs every part's
/// frequencies; what the first step has to leave behind for the
/// last is each variant's distinct token *set*, which is exactly what a block
/// holds. So [`IndexDraft::derive`] writes each origin's block straight out
/// of the enumeration's buffers — no token sequence, rule id or offset of a
/// [`DerivedDictionary`] is ever stored — and counts a token once per mask bit
/// it sets; [`GlobalOrder::from_frequencies`] over the parts' summed counts
/// gives the order; and [`IndexDraft::into_index`] re-keys the blocks in place
/// and clusters them into a listed index over the draft's origins. Every
/// table of a draft is sized by the origins it derives and the tokens they
/// hold, so a delta's few origins cost what they are, whatever the
/// dictionary holds. Over a whole dictionary the result equals
/// [`ClusteredIndex::build_with_order`] over [`DerivedDictionary::build`]
/// array for array once [`ClusteredIndex::concat`] makes one whole index of
/// the parts.
#[derive(Debug)]
pub struct IndexDraft {
    /// Slot by slot over `origins`.
    variants: VariantTable,
    origins: Vec<EntityId>,
    sets: AlignedBlocks,
    /// Token ↔ number, and number → the variants whose set holds it.
    numbers: TokenNumbers,
    freq: Vec<u32>,
}

impl IndexDraft {
    /// Derives `origins` of `dict` (see [`aeetes_rules::derive_into`]) into
    /// their blocks, under the rules of `lookup`, built for their tokens.
    ///
    /// # Panics
    /// Panics under the conditions of [`aeetes_rules::derive_into`] and of
    /// the index build.
    pub fn derive(dict: &Dictionary, lookup: &RuleLookup<'_>, config: &DeriveConfig, origins: impl IntoIterator<Item = EntityId>) -> Self {
        let origins: Vec<EntityId> = origins.into_iter().collect();
        let mut numbers = TokenNumbers { by_id: origins.len() * 32 >= dict.len(), ..TokenNumbers::default() };
        let mut freq: Vec<u32> = Vec::new();
        let mut writer = BlockWriter::new(origins.len(), 0);
        let mut slot = 0;
        let variants = derive_into(dict, lookup, config, origins.iter().copied(), |origin| {
            while origins[slot] < origin.origin {
                slot += 1;
            }
            let count = |n: u32| {
                if n as usize >= freq.len() {
                    freq.resize(n as usize + 1, 0);
                }
                freq[n as usize] += 1;
            };
            writer.push_origin((origin.origin, slot), origin.iter().map(|d| d.tokens), |t| numbers.number(t), count);
        });
        let sets = writer.finish(&variants);
        Self { variants, origins, sets, numbers, freq }
    }

    /// Per token the draft holds, the number of its variants whose distinct
    /// set holds the token.
    pub fn frequencies(&self) -> impl Iterator<Item = (TokenId, u32)> + '_ {
        self.numbers.tokens.iter().copied().zip(self.freq.iter().copied()).filter(|&(_, count)| count > 0)
    }

    /// The variant table and the index under `order`, in which every token
    /// of the draft must be valid, both listed over the draft's origins:
    /// each pool's tokens become their keys and are sorted, and the bits of
    /// the origin's masks move with them — a permutation per origin, since
    /// an order keys distinct tokens apart — which is the block a build that
    /// knew the order would have written. The keyed blocks are then packed
    /// in the same arena, narrowed at [`IdWidth::U16`].
    pub fn into_index(mut self, order: Arc<GlobalOrder>) -> (VariantTable, ClusteredIndex) {
        let blocks = &mut self.sets.blocks;
        let tokens = &self.numbers.tokens;
        // Per pool bit: its key and where it stood; then where each old bit
        // goes; then the mask being moved.
        let mut by_key: Vec<(u32, u32)> = Vec::new();
        let mut moved_to: Vec<u32> = Vec::new();
        let mut moved: Vec<u32> = Vec::new();
        for (e, w) in self.sets.block_offsets.windows(2).enumerate() {
            let Some((&mut keys, rest)) = blocks[w[0] as usize..w[1] as usize].split_first_mut() else {
                continue;
            };
            let (pool, masks) = rest.split_at_mut(keys as usize);
            by_key.clear();
            by_key.extend(pool.iter().zip(0..).map(|(&n, bit)| (order.key(tokens[n as usize]), bit)));
            by_key.sort_unstable();
            assert!(by_key[0].0 & VALID_BIT != 0, "token {} of origin {} is not valid in the order", by_key[0].0, self.origins[e].0);
            moved_to.clear();
            moved_to.resize(pool.len(), 0);
            for ((slot, &(key, old_bit)), new_bit) in pool.iter_mut().zip(&by_key).zip(0..) {
                *slot = key;
                moved_to[old_bit as usize] = new_bit;
            }
            for mask in masks.chunks_exact_mut(words_of(pool.len())) {
                moved.clear();
                moved.resize(mask.len(), 0);
                for (word, moved_to) in mask.iter().zip(moved_to.chunks(32)) {
                    let mut rest = *word;
                    while rest != 0 {
                        let bit = moved_to[rest.trailing_zeros() as usize] as usize;
                        moved[bit / 32] |= 1 << (bit % 32);
                        rest &= rest - 1;
                    }
                }
                mask.copy_from_slice(&moved);
            }
        }
        // The listed tokens — those some variant holds — sorted, and where
        // each number's token stands among them.
        let numbers = self.numbers;
        let mut by_token: Vec<u32> = (0..numbers.tokens.len() as u32).filter(|&n| self.freq[n as usize] > 0).collect();
        drop(self.freq);
        by_token.sort_unstable_by_key(|&n| numbers.tokens[n as usize]);
        let tokens: Vec<TokenId> = by_token.iter().map(|&n| numbers.tokens[n as usize]).collect();
        let mut entry_of = vec![0u32; numbers.tokens.len()];
        for (entry, &n) in by_token.iter().enumerate() {
            entry_of[n as usize] = entry as u32;
        }
        drop(by_token);
        let listed = Listed { tokens, origins: self.origins };
        let index = ClusteredIndex::from_sets(order, self.sets, Some(listed), |t| entry_of[numbers.get(t) as usize]);
        (self.variants, index)
    }
}

/// Both "strictly ascending within each range" checks of
/// [`ClusteredIndex::from_raw_parts`] run as one sequential pass over the
/// value array with a boundary bitmap (range starts come from the prefix
/// array) — slicing per range costs more than the comparisons for tens of
/// thousands of tiny ranges. The offending range is only hunted down on
/// failure.
fn ascending_within(mut values_ok: impl FnMut(usize) -> bool, starts: &[u32], len: usize) -> bool {
    let mut boundary = vec![false; len];
    for &b in starts {
        if (b as usize) < len {
            boundary[b as usize] = true;
        }
    }
    (1..len).fold(true, |ok, i| ok & (boundary[i] | values_ok(i)))
}

/// Validates the clusters' stored origins: strictly ascending within each
/// group (`group_origins` cuts them), each below `origin_space` — a cluster's
/// origin is looked up in the variant table — and none in two groups of one
/// token (`tok_groups` cuts them) and length. The last is one pass over the
/// clusters of every length a token splits by position: each cluster stamps
/// its origin with the number of its `(token, length)` run, and finding the
/// run's own stamp there already is a repeat.
fn check_origins<I: StoredId>(
    origin_entity: &[I],
    tok_groups: &[u32],
    group_len: &[u16],
    group_origins: &[u32],
    origin_space: usize,
) -> Result<(), String> {
    if !ascending_within(|i| origin_entity[i - 1] < origin_entity[i], group_origins, origin_entity.len()) {
        let g = (0..group_origins.len() - 1)
            .find(|&g| {
                origin_entity[group_origins[g] as usize..group_origins[g + 1] as usize]
                    .windows(2)
                    .any(|w| w[0] >= w[1])
            })
            .expect("pass found a non-ascending origin range");
        return Err(format!("group {g}'s origin clusters are not strictly ascending"));
    }
    if origin_entity.iter().map(|e| e.get() as usize).max().is_some_and(|m| m >= origin_space) {
        let c = origin_entity.iter().position(|e| e.get() as usize >= origin_space).expect("max out of range");
        return Err(format!("origin cluster {c} names origin {:?} out of {origin_space}", EntityId(origin_entity[c].get())));
    }
    let mut stamp = vec![0u32; origin_space];
    let mut run = 0u32;
    for (t, w) in tok_groups.windows(2).enumerate() {
        let mut g = w[0] as usize;
        while g < w[1] as usize {
            let len = group_len[g];
            let end = g + group_len[g..w[1] as usize].partition_point(|&l| l == len);
            if end - g > 1 {
                run += 1;
                for &origin in &origin_entity[group_origins[g] as usize..group_origins[end] as usize] {
                    let seen = std::mem::replace(&mut stamp[origin.get() as usize], run);
                    if seen == run {
                        return Err(format!("origin {:?} stands in two groups of token {t}'s length {len}", EntityId(origin.get())));
                    }
                }
            }
            g = end;
        }
    }
    Ok(())
}

/// Validates a pool, whatever its width: valid keys, each rank handed out by
/// an order of `ranks`, strictly ascending.
fn check_pool(e: usize, pool: impl Keys, ranks: u32) -> Result<(), String> {
    // Branchless folds, as for the prefix arrays; the offender is hunted
    // down on failure.
    let key_ok = |k: u32| k.wrapping_sub(VALID_BIT) < ranks;
    let keys = (0..pool.len()).map(|i| pool.key(i));
    if !keys.clone().fold(true, |ok, k| ok & key_ok(k)) {
        let k = keys.clone().find(|&k| !key_ok(k)).expect("fold found a bad key");
        return Err(if k & VALID_BIT == 0 {
            format!("origin {e}'s pool holds key {k:#x} without the valid bit")
        } else {
            format!("origin {e}'s pool holds rank {} but the order hands out only {ranks}", k & !VALID_BIT)
        });
    }
    if !(1..pool.len()).fold(true, |ok, i| ok & (pool.key(i - 1) < pool.key(i))) {
        return Err(format!("origin {e}'s pool keys are not strictly ascending"));
    }
    Ok(())
}

/// Validates origin `e`'s block, stored at `width`, against the number of
/// variants the origin has (see [`ClusteredIndex::from_raw_parts`] for the
/// invariants).
fn check_block(e: usize, block: &[u32], variants: usize, ranks: u32, width: IdWidth) -> Result<(), String> {
    let Some((&keys, rest)) = block.split_first() else {
        return if variants == 0 {
            Ok(())
        } else {
            Err(format!("origin {e} has {variants} variants but no block"))
        };
    };
    if variants == 0 {
        return Err(format!("origin {e} has no variants but a block of {} words", block.len()));
    }
    let keys = keys as usize;
    let key_words = width.key_words(keys);
    if key_words > rest.len() {
        return Err(format!("origin {e}'s pool of {keys} keys exceeds its block of {} words", block.len()));
    }
    let bits = variants.checked_mul(keys).filter(|&bits| words_of(bits) == rest.len() - key_words);
    let Some(bits) = bits else {
        return Err(format!(
            "origin {e}'s block holds {} words, not 1 + {key_words} key words + {} mask words ({variants} masks of {keys} bits)",
            block.len(),
            variants.saturating_mul(keys).div_ceil(32)
        ));
    };
    let (pool, masks) = rest.split_at(key_words);
    match width {
        IdWidth::U32 => check_pool(e, pool, ranks)?,
        IdWidth::U16 => {
            // An odd pool leaves its last word's upper half over: zero, so
            // that one image stands for one index.
            if keys % 2 == 1 && pool[key_words - 1] >> 16 != 0 {
                return Err(format!("origin {e}'s pool of {keys} ranks leaves a non-zero spare half-word"));
            }
            check_pool(e, PackedRanks { words: pool, len: keys }, ranks)?;
        }
    }
    // The masks' last word is zero past them, so that one image stands for
    // one index (and none is left when they fill it).
    if bits % 32 != 0 && masks[masks.len() - 1] >> (bits % 32) != 0 {
        return Err(format!("origin {e}'s masks set a padding bit past their {variants} × {keys} bits"));
    }
    let block = OriginBlock::new(0..variants as u32, block, width);
    let mut shortest_allowed = 0;
    for slot in 0..variants {
        let len = block.set_len(slot);
        if len < shortest_allowed {
            return Err(format!("origin {e}'s variants are not sorted by set length"));
        }
        shortest_allowed = len;
    }
    Ok(())
}

/// Clusters the postings of every derived set (paper Algorithm 2): a count
/// pass over the blocks sizes every token's clusters, a walk files each
/// cluster straight into its token's range, each token's range is sorted by
/// `(len, lowest position, origin)`, and the forest is flattened into the
/// global prefix-linked arrays — tokens tile the group arrays, groups tile
/// the cluster array.
///
/// A cluster is filed as two entries at the same place of two exact-size
/// arrays: its origin, stored as `I` in what becomes the index's cluster
/// array, and its group's key, `len << 16 | lowest position`, in an array
/// of `u32`s that goes once the groups are read out of it. These are the
/// build's largest transient: beside what the index keeps, four bytes per
/// cluster, and one sort record per cluster of the largest token.
///
/// `slots` names the origin each of `sets`' slots stands for. A whole index
/// has a token list per token id; a listed one per entry of its token list,
/// which `slot_of` finds a token in among `token_slots` — so the count and
/// the cursors are sized by the tokens the sets hold.
fn cluster_postings<I: StoredId>(
    order: &GlobalOrder,
    sets: &OriginBlocks,
    slots: Slots<'_>,
    (token_slots, slot_of): (usize, impl Fn(TokenId) -> u32),
) -> ClusteredPostings<I> {
    let narrow = I::WIDTH == IdWidth::U16;
    debug_assert!(!narrow || IdWidth::of(order.ranks(), id_space(slots)) == IdWidth::U16, "16-bit blocks over a 32-bit space");
    let token_of = |key: u32| slot_of(if narrow { order.untie(key & !VALID_BIT) } else { order.token_of(key) });
    // Per pool key of the origin in hand, its token, looked up once per
    // origin, not once per posting.
    let mut pool_tokens: Vec<u32> = Vec::new();
    let mut mask: Vec<u32> = Vec::new();

    // The count: an origin's slots ascend by set length, so a key has one
    // cluster per length of the slots that hold it — one bit of the union
    // of their masks. Per token, the count lands one entry up, where the
    // prefix sum makes it the start of the next token.
    let mut starts = vec![0u32; token_slots + 1];
    let mut union: Vec<u32> = Vec::new();
    for (_, block) in sets.pooled() {
        pool_tokens.clear();
        pool_tokens.extend(block.pool.iter().map(token_of));
        mask.resize(block.words(), 0);
        union.clear();
        union.resize(block.words(), 0);
        let mut count = |union: &mut [u32]| {
            for (w, word) in union.iter_mut().enumerate() {
                while *word != 0 {
                    starts[pool_tokens[32 * w + word.trailing_zeros() as usize] as usize + 1] += 1;
                    *word &= *word - 1;
                }
            }
        };
        let mut union_len = 0;
        for slot in 0..block.ids.len() {
            block.mask_into(slot, &mut mask);
            let len = mask.iter().map(|w| w.count_ones()).sum::<u32>();
            if len != union_len {
                count(&mut union);
                union_len = len;
            }
            union.iter_mut().zip(&mask).for_each(|(u, m)| *u |= m);
        }
        count(&mut union);
    }
    // Cut behind the last token these sets hold.
    let num_tokens = starts.iter().rposition(|&count| count > 0).unwrap_or(0);
    starts.truncate(num_tokens + 1);
    for t in 0..num_tokens {
        starts[t + 1] += starts[t];
    }
    let clusters = starts[num_tokens] as usize;

    // The walk sees every cluster once, in block order: origins ascending,
    // so each token's range fills by origin. Per pool bit, the length of the
    // run of slots in hand that hold its key (0: none yet — a set that holds
    // a key is not empty) and the lowest position seen in it; a key's runs
    // close one after another. `cursor[t]` is where token `t`'s next cluster
    // goes.
    let mut keys = vec![0u32; clusters];
    let mut origin_entity = vec![I::store(0); clusters];
    let mut cursor = starts[..num_tokens].to_vec();
    let mut runs: Vec<(u16, u16)> = Vec::new();
    for (e, block) in sets.pooled() {
        pool_tokens.clear();
        pool_tokens.extend(block.pool.iter().map(token_of));
        runs.clear();
        runs.resize(block.pool.len(), (0, 0));
        let mut file = |token: u32, (len, min_pos): (u16, u16)| {
            let at = &mut cursor[token as usize];
            keys[*at as usize] = u32::from(len) << 16 | u32::from(min_pos);
            origin_entity[*at as usize] = I::store(slots.origin(e).0);
            *at += 1;
        };
        mask.resize(block.words(), 0);
        for slot in 0..block.ids.len() {
            block.mask_into(slot, &mut mask);
            let len = mask.iter().map(|w| w.count_ones()).sum::<u32>() as u16;
            let mut pos = 0u16;
            for (word, (tokens, runs)) in mask.iter().zip(pool_tokens.chunks(32).zip(runs.chunks_mut(32))) {
                let mut rest = *word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    let run = &mut runs[bit];
                    if run.0 == len {
                        run.1 = run.1.min(pos);
                    } else {
                        if run.0 != 0 {
                            file(tokens[bit], *run);
                        }
                        *run = (len, pos);
                    }
                    pos += 1;
                    rest &= rest - 1;
                }
            }
        }
        for (&token, &run) in pool_tokens.iter().zip(&runs) {
            if run.0 != 0 {
                file(token, run);
            }
        }
    }
    // The walk filed exactly the clusters the count counted: each token's
    // range is full and nothing spilled into the next one's.
    debug_assert!(cursor.iter().zip(&starts[1..]).all(|(c, s)| c == s), "count and walk disagree");

    // Each token's range sorted by key, origins ascending within one (one
    // origin has one cluster per token and length): through one record per
    // cluster of the range, `key << 32 | origin`, in a buffer the size of
    // the largest range. Then the groups counted, so that their arrays are
    // allocated at their exact sizes.
    let mut records: Vec<u64> = Vec::new();
    let mut groups = 0;
    for w in starts.windows(2) {
        let range = w[0] as usize..w[1] as usize;
        let (keys, origins) = (&mut keys[range.clone()], &mut origin_entity[range]);
        records.clear();
        records.extend(
            keys.iter()
                .zip(origins.iter())
                .map(|(&key, &origin)| u64::from(key) << 32 | u64::from(origin.get())),
        );
        records.sort_unstable();
        for ((key, origin), &record) in keys.iter_mut().zip(origins.iter_mut()).zip(&records) {
            (*key, *origin) = ((record >> 32) as u32, I::store(record as u32));
        }
        groups += keys.chunk_by(|a, b| a == b).count();
    }
    drop(records);

    let mut out = ClusteredPostings {
        tok_groups: Vec::with_capacity(num_tokens + 1),
        group_len: Vec::with_capacity(groups),
        group_pos: Vec::with_capacity(groups),
        group_origins: Vec::with_capacity(groups + 1),
        origin_entity,
    };
    for w in starts.windows(2) {
        out.tok_groups.push(out.group_len.len() as u32);
        let mut at = w[0];
        for group in keys[w[0] as usize..w[1] as usize].chunk_by(|a, b| a == b) {
            out.group_len.push((group[0] >> 16) as u16);
            out.group_pos.push(group[0] as u16);
            out.group_origins.push(at);
            at += group.len() as u32;
        }
    }
    // Close the prefix arrays with their final sentinels.
    out.tok_groups.push(out.group_len.len() as u32);
    out.group_origins.push(clusters as u32);
    out
}

impl<I: StoredId> ClusteredPostings<I> {
    /// Appends the clusters of `src`'s range `clusters` whose origin `keep`
    /// admits, one copy per unbroken stretch, re-stored at this width.
    fn push_kept(&mut self, src: &IndexArenasRef<'_>, clusters: Range<usize>, keep: impl Fn(EntityId) -> bool) {
        match src.origin_entity {
            Ids::U16(ids) => self.push_kept_from(ids, clusters, keep),
            Ids::U32(ids) => self.push_kept_from(ids, clusters, keep),
        }
    }

    fn push_kept_from<J: StoredId>(&mut self, ids: &[J], clusters: Range<usize>, keep: impl Fn(EntityId) -> bool) {
        let mut push = |stretch: Range<usize>| self.origin_entity.extend(ids[stretch].iter().map(|&id| I::store(id.get())));
        let mut stretch = clusters.start;
        for c in clusters.clone() {
            if !keep(EntityId(ids[c].get())) {
                if stretch < c {
                    push(stretch..c);
                }
                stretch = c + 1;
            }
        }
        if stretch < clusters.end {
            push(stretch..clusters.end);
        }
    }
}

/// The cluster arrays of an index under construction, at the width they
/// store origins at.
enum Postings {
    U16(ClusteredPostings<u16>),
    U32(ClusteredPostings<u32>),
}

/// One side of [`merge_postings`]: an index's raw arrays, and its tokens
/// when it is listed.
type Side<'a> = (IndexArenasRef<'a>, Option<&'a [TokenId]>);

/// The five cluster arrays, at `width`, of the index holding every cluster
/// of `sides` that `keep(side, origin)` admits — no origin admitted from two
/// sides: of [`ClusteredIndex::splice`], the old side's clusters of the
/// origins it keeps and all of the small side's; of
/// [`ClusteredIndex::concat`], every part's. Token by token, the sides'
/// groups merge by `(length, position)`; where several sides have a group of
/// one key, its clusters merge by origin, a side's clusters below every
/// other side's next one copied as one stretch (all of a part's group at
/// once, the parts' origins ascending). A group left without clusters is
/// not written. A whole result has a list per token id, and the trailing
/// tokens left without groups are cut, as a build over the admitted sets
/// would never have counted them; a `listed` result — every side listed —
/// walks only the tokens its sides list and returns those left with groups.
/// The sides may store origins at either width.
fn merge_postings(sides: &[Side<'_>], keep: impl Fn(usize, EntityId) -> bool, width: IdWidth, listed: bool) -> (Postings, Option<Vec<TokenId>>) {
    match width {
        IdWidth::U16 => {
            let (postings, tokens) = merge_postings_at::<u16>(sides, keep, listed);
            (Postings::U16(postings), tokens)
        }
        IdWidth::U32 => {
            let (postings, tokens) = merge_postings_at::<u32>(sides, keep, listed);
            (Postings::U32(postings), tokens)
        }
    }
}

fn merge_postings_at<I: StoredId>(
    sides: &[Side<'_>],
    keep: impl Fn(usize, EntityId) -> bool,
    listed: bool,
) -> (ClusteredPostings<I>, Option<Vec<TokenId>>) {
    assert!(!listed || sides.iter().all(|(_, tokens)| tokens.is_some()), "a listed merge has listed sides");
    // One past the last token id a side holds.
    let token_ids = |(ix, tokens): &Side<'_>| tokens.map_or(ix.tok_groups.len() - 1, |tokens| tokens.last().map_or(0, |t| t.idx() + 1));
    let tokens = sides.iter().map(token_ids).max().unwrap_or(0);
    let groups = sides.iter().map(|(ix, _)| ix.group_len.len()).sum::<usize>();
    let clusters = sides.iter().map(|(ix, _)| ix.origin_entity.len()).sum();
    let entries = if listed {
        sides.iter().map(|(ix, _)| ix.tok_groups.len() - 1).sum()
    } else {
        tokens
    };
    let mut out = ClusteredPostings {
        tok_groups: Vec::with_capacity(entries + 1),
        group_len: Vec::with_capacity(groups),
        group_pos: Vec::with_capacity(groups),
        group_origins: Vec::with_capacity(groups + 1),
        origin_entity: Vec::with_capacity(clusters),
    };
    let mut out_tokens = listed.then(|| Vec::with_capacity(entries));
    let key_of = |ix: &IndexArenasRef<'_>, g: usize| (ix.group_len[g], ix.group_pos[g]);
    // Per side, where its token list stands: the entry of the token in hand
    // or past it.
    let mut cursor = vec![0usize; sides.len()];
    // A token's group range on one side, empty where the side has none.
    let groups_of = |s: usize, t: usize, cursor: &mut [usize]| {
        let (ix, tokens) = &sides[s];
        let entry = match tokens {
            None => t,
            Some(tokens) => {
                while tokens.get(cursor[s]).is_some_and(|u| u.idx() < t) {
                    cursor[s] += 1;
                }
                if tokens.get(cursor[s]).is_none_or(|u| u.idx() != t) {
                    return 0..0;
                }
                cursor[s]
            }
        };
        match ix.tok_groups.get(entry + 1) {
            Some(&end) => ix.tok_groups[entry] as usize..end as usize,
            None => 0..0,
        }
    };
    // The next token a listed merge walks: the least one a side lists past
    // its cursor.
    let next_listed = |cursor: &[usize]| {
        sides
            .iter()
            .zip(cursor)
            .filter_map(|((_, tokens), &c)| tokens.and_then(|tokens| tokens.get(c)))
            .min()
            .map(|t| t.idx())
    };
    let clusters_of = |ix: &IndexArenasRef<'_>, g: usize| ix.group_origins[g] as usize..ix.group_origins[g + 1] as usize;
    // Per side: its groups of the token in hand not yet merged, then its
    // clusters of the key in hand not yet copied.
    let mut pending: Vec<Range<usize>> = vec![0..0; sides.len()];
    let mut runs: Vec<Range<usize>> = vec![0..0; sides.len()];
    let mut t = 0;
    loop {
        if listed {
            match next_listed(&cursor) {
                Some(next) => t = next,
                None => break,
            }
        } else if t == tokens {
            break;
        }
        let first_group = out.group_len.len();
        for (s, g) in pending.iter_mut().enumerate() {
            *g = groups_of(s, t, &mut cursor);
        }
        if listed {
            // Every side's cursor moves past the token in hand.
            for (c, (_, side_tokens)) in cursor.iter_mut().zip(sides) {
                if side_tokens.expect("listed").get(*c).is_some_and(|u| u.idx() == t) {
                    *c += 1;
                }
            }
        } else {
            out.tok_groups.push(first_group as u32);
        }
        while let Some(key) = sides
            .iter()
            .zip(&pending)
            .filter(|(_, g)| g.start < g.end)
            .map(|((ix, _), g)| key_of(ix, g.start))
            .min()
        {
            for (((ix, _), g), run) in sides.iter().zip(&mut pending).zip(&mut runs) {
                *run = 0..0;
                if g.start < g.end && key_of(ix, g.start) == key {
                    *run = clusters_of(ix, g.start);
                    g.start += 1;
                }
            }
            let first = out.origin_entity.len();
            let next = |s: usize, runs: &[Range<usize>]| (!runs[s].is_empty()).then(|| (sides[s].0.origin_entity.get(runs[s].start), s));
            while let Some((_, s)) = (0..sides.len()).filter_map(|s| next(s, &runs)).min() {
                // The stretch of side `s` that sorts, by `(origin, side)`,
                // before every other side's next cluster.
                let (ix, run) = (&sides[s].0, runs[s].clone());
                let end = (0..sides.len())
                    .filter(|&o| o != s)
                    .filter_map(|o| next(o, &runs))
                    .map(|bound| ix.origin_entity.partition_point(run.clone(), |e| (e, s) < bound))
                    .min()
                    .unwrap_or(run.end);
                out.push_kept(ix, run.start..end, |e| keep(s, e));
                runs[s].start = end;
            }
            if out.origin_entity.len() > first {
                out.group_len.push(key.0);
                out.group_pos.push(key.1);
                out.group_origins.push(first as u32);
            }
        }
        if let Some(out_tokens) = out_tokens.as_mut().filter(|_| out.group_len.len() > first_group) {
            out_tokens.push(TokenId(t as u32));
            out.tok_groups.push(first_group as u32);
        }
        t += 1;
    }
    if !listed {
        while out.tok_groups.last() == Some(&(out.group_len.len() as u32)) {
            out.tok_groups.pop();
        }
    }
    out.tok_groups.push(out.group_len.len() as u32);
    out.group_origins.push(out.origin_entity.len() as u32);
    out.tok_groups.shrink_to_fit();
    out.group_len.shrink_to_fit();
    out.group_pos.shrink_to_fit();
    out.group_origins.shrink_to_fit();
    out.origin_entity.shrink_to_fit();
    if let Some(out_tokens) = &mut out_tokens {
        out_tokens.shrink_to_fit();
    }
    (out, out_tokens)
}

/// A listed index's token → group prefix (`tok_groups[i]` for `tokens[i]`)
/// spread over the token ids up to its last token, as a whole index holds
/// it.
fn spread_tokens(tokens: &[TokenId], tok_groups: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(tokens.last().map_or(0, |t| t.idx() + 1) + 1);
    for (t, &start) in tokens.iter().zip(tok_groups) {
        // The ids up to `t` that hold nothing start where `t` does.
        out.resize(t.idx() + 1, start);
    }
    out.push(*tok_groups.last().expect("a prefix"));
    out
}

/// One past the largest origin id `slots` can name: what the width rule
/// sizes cluster ids by.
fn id_space(slots: Slots<'_>) -> usize {
    match slots {
        Slots::Whole(n) => n,
        Slots::Listed(origins) => origins.last().map_or(0, |e| e.idx() + 1),
    }
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
    use aeetes_rules::RuleSet;
    use aeetes_text::Tokenizer;

    /// A group's origins, in order.
    fn ids_of(ids: Ids<'_>) -> impl Iterator<Item = EntityId> + '_ {
        (0..ids.len()).map(move |i| ids.get(i))
    }

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

    /// Paper Example 3.2: "University" appears in derived entities of all
    /// four origins, clustered by length and then by origin, with a length-4
    /// group among them.
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
        assert_eq!(tp.entry_count(), tp.groups().map(|g| g.origin_count()).sum::<usize>());
        let mut origins: Vec<EntityId> = tp.groups().flat_map(|g| ids_of(g.clusters())).collect();
        origins.sort_unstable();
        origins.dedup();
        assert_eq!(origins, [0, 1, 2, 3].map(EntityId), "e1 and e2 hold it themselves, e3 and e4 through a rewrite");
        // Length 4 must hold ≥ 2 distinct origins, each once.
        let g4: Vec<LengthGroup<'_>> = tp.groups().filter(|g| g.len() == 4).collect();
        let mut origins: Vec<EntityId> = g4.iter().flat_map(|g| ids_of(g.clusters())).collect();
        assert!(origins.len() >= 2);
        origins.sort_unstable();
        assert!(origins.windows(2).all(|w| w[0] < w[1]), "an origin stands in one group of a length");
        // Groups ascend by position, their origins ascending and non-empty.
        assert!(g4.windows(2).all(|w| w[0].pos() < w[1].pos()));
        for g in &g4 {
            let origins: Vec<EntityId> = ids_of(g.clusters()).collect();
            assert!(!origins.is_empty() && origins.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(g.origin_count(), origins.len());
        }
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
            // "of" is the most frequent token → last position (2 of 0..3).
            assert_eq!(g.pos(), 2);
            for origin in ids_of(g.clusters()) {
                // cross-check against the stored set of the origin's one variant
                let last = f.index.block(origin).keys(0).nth(2).expect("three keys");
                assert_eq!(f.index.order().token_of(last), of);
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

    /// An entry is a `(token, set length, origin)` cluster, however many of
    /// the origin's variants of that length hold the token, and it keeps the
    /// lowest position the token takes in them.
    #[test]
    fn total_entries_counts_clusters() {
        let f = fixture(&["a b", "c d"], &[]);
        assert_eq!(f.index.total_entries(), 4);
        assert_eq!(f.dd.len(), 2);
        // "a b", "a c", "a d": three sets of length 2 holding "a", one cluster.
        let mut f = fixture(&["a b"], &[("b", "c"), ("b", "d")]);
        assert_eq!((f.dd.len(), f.index.total_entries()), (3, 4));
        // "x y" and its rewrite "x z z2 z3 z4": "x" is the most frequent
        // token, last in both sets — position 1 of 2 and 4 of 5.
        f = fixture(&["x y"], &[("y", "z z2 z3 z4")]);
        let x = f.int.intern("x");
        let clusters: Vec<(usize, usize)> = f
            .index
            .postings(x)
            .unwrap()
            .groups()
            .flat_map(|g| ids_of(g.clusters()).map(move |_| (g.len(), g.pos())))
            .collect();
        assert_eq!(clusters, [(2, 1), (5, 4)]);
    }

    /// Variants of one origin and one set length that hold a token at
    /// different positions: the cluster keeps the lowest.
    #[test]
    fn a_cluster_keeps_the_lowest_position() {
        // "m a z" and its rewrite "b m z" are both of length 3. "a" is the
        // most frequent token and "b" the rarest, so the sets order as
        // [m, z, a] and [b, m, z]: "m" sits at 0 and 1, "z" at 1 and 2.
        let mut f = fixture(&["m a z", "a", "a q", "a r"], &[("m a", "b m")]);
        let order = f.index.order();
        let sets: Vec<String> = (0..2)
            .map(|slot| {
                f.index
                    .block(EntityId(0))
                    .keys(slot)
                    .map(|k| f.int.resolve(order.token_of(k)))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        assert_eq!(sets, ["m z a", "b m z"]);
        let lowest = |t: TokenId| {
            let mut groups = f.index.postings(t).unwrap().groups();
            groups.find(|g| g.len() == 3 && ids_of(g.clusters()).any(|o| o == EntityId(0))).unwrap().pos()
        };
        let [m, z, a, b] = ["m", "z", "a", "b"].map(|t| f.int.intern(t));
        assert_eq!([m, z, a, b].map(lowest), [0, 1, 2, 0]);
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
            group_pos: r.group_pos.to_vec().into(),
            group_origins: r.group_origins.to_vec().into(),
            origin_entity: match r.origin_entity {
                Ids::U16(ids) => ids.to_vec().into(),
                Ids::U32(ids) => ids.to_vec().into(),
            },
            blocks: r.blocks.to_vec().into(),
            block_offsets: r.block_offsets.to_vec().into(),
            origin_offsets: r.origin_offsets.to_vec().into(),
        }
    }

    /// `ix`'s arrays with origins and pools stored at 32 bits, whatever the
    /// width rule would choose — what a wide index of the same sets stores.
    fn widened(ix: &ClusteredIndex) -> IndexArenas {
        let mut a = owned_arenas(ix);
        a.origin_entity = (0..ix.total_entries()).map(|c| ix.raw_parts().origin_entity.get(c).0).collect::<Vec<u32>>().into();
        let (mut blocks, mut block_offsets) = (Vec::new(), vec![0]);
        for e in 0..ix.sets.origins() {
            ix.sets.block(e).write(&mut blocks, IdWidth::U32);
            block_offsets.push(blocks.len() as u32);
        }
        (a.blocks, a.block_offsets) = (blocks.into(), block_offsets.into());
        a
    }

    /// Stores `origin` as cluster `c`'s, at the arenas' width.
    fn set_origin(a: &mut IndexArenas, c: usize, origin: u32) {
        match &mut a.origin_entity {
            IdArena::U16(ids) => ids.as_mut_vec()[c] = origin as u16,
            IdArena::U32(ids) => ids.as_mut_vec()[c] = origin,
        }
    }

    /// A token's groups as stored: key and origins.
    fn groups_of(ix: &ClusteredIndex, t: TokenId) -> Option<Vec<(usize, usize, Vec<EntityId>)>> {
        ix.postings(t)
            .map(|tp| tp.groups().map(|g| (g.len(), g.pos(), ids_of(g.clusters()).collect())).collect())
    }

    /// A fixture's index is 16-bit, and reads as its widened arrays do.
    #[test]
    fn both_widths_read_the_same_sets_and_clusters() {
        let f = fixture(
            &[
                "purdue university usa",
                "uq au",
                "a b c d e f g h i j k l m n o p q r s t u v w x y z aa bb cc dd ee ff",
            ],
            &[("uq", "university of queensland"), ("usa", "united states")],
        );
        assert_eq!(f.index.width(), IdWidth::U16);
        let wide = ClusteredIndex::from_raw_parts(f.index.shared_order(), widened(&f.index)).expect("a wide index validates");
        assert_eq!(wide.width(), IdWidth::U32);
        assert!(wide.size_bytes() > f.index.size_bytes());
        for e in (0..3).map(EntityId) {
            let (narrow, wide) = (f.index.block(e), wide.block(e));
            assert_eq!(narrow.pool.iter().collect::<Vec<_>>(), wide.pool.iter().collect::<Vec<_>>());
            for slot in 0..narrow.ids.len() {
                assert_eq!(narrow.keys(slot).collect::<Vec<_>>(), wide.keys(slot).collect::<Vec<_>>());
            }
        }
        for t in (0..f.int.len() as u32).map(TokenId) {
            assert_eq!(groups_of(&f.index, t), groups_of(&wide, t));
        }
        // A splice re-encodes a side of the other width: the wide index
        // spliced with itself, every origin changed, is the 16-bit build.
        let plan = MergePlan::new(&[wide.slots(), wide.slots()], |side, _| side == 1, Some(3));
        let spliced = ClusteredIndex::splice(&wide, &wide, plan, |_| false);
        assert_eq!(spliced.width(), IdWidth::U16);
        let (a, b) = (spliced.raw_parts(), f.index.raw_parts());
        assert_eq!((a.origin_entity, a.blocks, a.block_offsets), (b.origin_entity, b.blocks, b.block_offsets));
    }

    #[test]
    fn the_width_rule() {
        let limit = IdWidth::NARROW_SPACE;
        assert_eq!(
            [(0, 0), (limit, limit), (limit + 1, 1), (1, limit + 1)].map(|(r, o)| IdWidth::of(r, o)),
            [IdWidth::U16, IdWidth::U16, IdWidth::U32, IdWidth::U32]
        );
        // 16-bit ranks pack two to a word, the lower half first; an odd
        // pool's spare half is zero.
        let f = fixture(&["a b c"], &[]);
        assert_eq!(f.index.raw_parts().blocks, [3, 1 << 16, 2, 0b111]);
        assert_eq!(f.index.block(EntityId(0)).pool.iter().collect::<Vec<_>>(), [0, 1, 2].map(|r| VALID_BIT | r));
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
            assert_eq!(f.index.postings(t).map(|tp| tp.entry_count()), re.postings(t).map(|tp| tp.entry_count()));
            assert_eq!(groups_of(&f.index, t), groups_of(&re, t), "{t:?}");
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
        let n = bad.group_origins.len();
        bad.group_origins.as_mut_vec()[n - 1] += 1;
        assert!(ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).is_err(), "prefix past arena");

        let mut bad = ok.clone();
        // Token "a" occurs in both entities → its two groups sit first.
        bad.group_len.as_mut_vec().swap(0, 1);
        assert!(ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).is_err(), "group lengths unsorted");
    }

    /// A structurally sound image whose blocks or positions are wrong would
    /// be adopted and then under-count matches (or read out of bounds); each
    /// is named and refused.
    #[test]
    fn raw_validation_rejects_wrong_sets_and_positions() {
        let f = fixture(&["a b c", "a d"], &[]);
        let ok = owned_arenas(&f.index);
        let reject_in = |f: &Fixture, arenas: fn(&ClusteredIndex) -> IndexArenas, what: &str, mutate: &dyn Fn(&mut IndexArenas), expect: &str| {
            let mut bad = arenas(&f.index);
            mutate(&mut bad);
            let err = ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).expect_err(what);
            assert!(err.contains(expect), "{what}: unexpected message `{err}`");
        };
        let reject = |what: &str, mutate: &dyn Fn(&mut IndexArenas), expect: &str| reject_in(&f, owned_arenas, what, mutate, expect);
        let reject_wide = |what: &str, mutate: &dyn Fn(&mut IndexArenas), expect: &str| reject_in(&f, widened, what, mutate, expect);
        // Ranks: b 0, c 1, d 2, a 3 (ascending frequency, then string). At 16
        // bits origin 0, "a b c", is [3 | 0 1 | 3 - | 0b111] and origin 1,
        // "a d", [2 | 2 3 | 0b11]; at 32, [3 | 3 keys | 0b111] and [2 | 2 keys
        // | 0b11].
        assert_eq!((&ok.block_offsets[..], &ok.blocks[..]), (&[0, 4, 7][..], &[3, 1 << 16, 3, 0b111, 2, 2 | 3 << 16, 0b11][..]));
        let wide = widened(&f.index);
        assert_eq!(
            (&wide.block_offsets[..], wide.blocks[0], wide.blocks[4], wide.blocks[5], wide.blocks[8]),
            (&[0, 5, 9][..], 3, 0b111, 2, 0b11)
        );
        reject("a pool past its block", &|a| a.blocks.as_mut_vec()[0] = 9, "origin 0's pool of 9 keys exceeds its block of 4 words");
        reject(
            "a pool size the block length contradicts",
            &|a| a.blocks.as_mut_vec()[0] = 2,
            "origin 0's block holds 4 words, not 1 + 1 key words + 1 mask words (1 masks of 2 bits)",
        );
        reject(
            "a block one word longer",
            &|a| {
                a.blocks.as_mut_vec().push(0);
                a.block_offsets.as_mut_vec()[2] = 8;
            },
            "origin 1's block holds 4 words, not 1 + 1 key words + 1 mask words (1 masks of 2 bits)",
        );
        reject(
            "a block one word shorter",
            &|a| {
                a.blocks.as_mut_vec().pop();
                a.block_offsets.as_mut_vec()[2] = 6;
            },
            "origin 1's block holds 2 words, not 1 + 1 key words + 1 mask words (1 masks of 2 bits)",
        );
        reject("two ranks swapped", &|a| a.blocks.as_mut_vec()[5] = 3 | 2 << 16, "origin 1's pool keys are not strictly ascending");
        reject("a rank repeated", &|a| a.blocks.as_mut_vec()[1] = 0, "origin 0's pool keys are not strictly ascending");
        reject(
            "a spare half-word set",
            &|a| a.blocks.as_mut_vec()[2] |= 1 << 16,
            "origin 0's pool of 3 ranks leaves a non-zero spare half-word",
        );
        reject("rank out of range", &|a| a.blocks.as_mut_vec()[2] = 4, "origin 0's pool holds rank 4 but the order hands out only 4");
        reject("a padding bit set", &|a| a.blocks.as_mut_vec()[6] |= 1 << 2, "origin 1's masks set a padding bit past their 1 × 2 bits");
        reject(
            "a block for an origin without variants",
            &|a| a.origin_offsets.as_mut_vec()[2] = 1,
            "origin 1 has no variants but a block of 3 words",
        );
        reject(
            "variants without a block",
            &|a| {
                a.block_offsets.as_mut_vec()[2] = 4;
                a.blocks.as_mut_vec().truncate(4);
            },
            "origin 1 has 1 variants but no block",
        );
        reject(
            "a block prefix of another origin space",
            &|a| a.block_offsets.as_mut_vec().push(7),
            "block offsets hold 4 entries, expected 3",
        );
        // A 16-bit index names at most 2¹⁶ origins: one that claims more is
        // refused before any of them is read.
        reject(
            "a 16-bit index over 65 537 origins",
            &|a| {
                a.origin_offsets.as_mut_vec().resize(65_538, 2);
                a.block_offsets.as_mut_vec().resize(65_538, 7);
            },
            "a 16-bit index over 65537 origins and 4 ranks",
        );
        reject_wide(
            "a pool size the block length contradicts",
            &|a| a.blocks.as_mut_vec()[0] = 2,
            "origin 0's block holds 5 words, not 1 + 2 key words + 1 mask words (1 masks of 2 bits)",
        );
        reject_wide(
            "a block one word longer",
            &|a| {
                a.blocks.as_mut_vec().push(0);
                a.block_offsets.as_mut_vec()[2] = 10;
            },
            "origin 1's block holds 5 words, not 1 + 2 key words + 1 mask words (1 masks of 2 bits)",
        );
        reject_wide(
            "a block one word shorter",
            &|a| {
                a.blocks.as_mut_vec().pop();
                a.block_offsets.as_mut_vec()[2] = 8;
            },
            "origin 1's block holds 3 words, not 1 + 2 key words + 1 mask words (1 masks of 2 bits)",
        );
        reject_wide("two keys swapped", &|a| a.blocks.as_mut_vec().swap(6, 7), "origin 1's pool keys are not strictly ascending");
        reject_wide("valid bit cleared", &|a| a.blocks.as_mut_vec()[7] &= !VALID_BIT, "origin 1's pool holds key");
        reject_wide(
            "rank out of range",
            &|a| a.blocks.as_mut_vec()[3] = VALID_BIT | 4,
            "origin 0's pool holds rank 4 but the order hands out only 4",
        );
        reject_wide("a padding bit set", &|a| a.blocks.as_mut_vec()[8] |= 1 << 2, "origin 1's masks set a padding bit past their 1 × 2 bits");
        // "a b" and its rewrite "a c d": [4 | 2 key words | one word: the
        // 2-key mask in bits 0–3, the 3-key one in bits 4–7].
        let two = fixture(&["a b"], &[("b", "c d")]);
        assert_eq!(two.index.raw_parts().blocks.len(), 4);
        reject_in(
            &two,
            owned_arenas,
            "popcounts descending",
            &|a| {
                let masks = &mut a.blocks.as_mut_vec()[3];
                *masks = (*masks & 0xF) << 4 | *masks >> 4;
            },
            "origin 0's variants are not sorted by set length",
        );
        // 19 tokens and "t00" rewritten to "x y": a pool of 21 keys, masks of
        // 19 and 20 keys in bits 0–20 and 21–41, the second straddling the
        // masks' two words; 22 padding bits follow. At 16 bits the block is
        // [21 | 11 key words | 2 mask words], at 32 [21 | 21 keys | 2].
        let words = (0..19).map(|i| format!("t{i:02}")).collect::<Vec<_>>().join(" ");
        let straddle = fixture(&[&words], &[("t00", "x y")]);
        for (arenas, last) in [(owned_arenas as fn(&ClusteredIndex) -> IndexArenas, 13), (widened, 23)] {
            let reject = |what: &str, mutate: &dyn Fn(&mut IndexArenas), expect: &str| reject_in(&straddle, arenas, what, mutate, expect);
            assert_eq!(arenas(&straddle.index).blocks.len(), last + 1);
            assert_eq!([0, 1].map(|slot| straddle.index.block(EntityId(0)).set_len(slot)), [19, 20]);
            reject(
                "popcounts falling across a straddling slot",
                &|a| a.blocks.as_mut_vec()[last] &= !0x3FF,
                "origin 0's variants are not sorted by set length",
            );
            reject(
                "a padding bit after two straddling masks",
                &|a| a.blocks.as_mut_vec()[last] |= 1 << 10,
                "origin 0's masks set a padding bit past their 2 × 21 bits",
            );
            reject(
                "a block one word shorter",
                &|a| {
                    a.blocks.as_mut_vec().pop();
                    *a.block_offsets.as_mut_vec().last_mut().unwrap() -= 1;
                },
                &format!("origin 0's block holds {last} words, not 1 + {} key words + 2 mask words (2 masks of 21 bits)", last - 2),
            );
        }
        // Token "a" is id 0, b 1, c 2, d 3. "a" sits at 1 of "d a" (origin
        // 1) and at 2 of "b c a" (origin 0), so its groups are (2, 1) and
        // (3, 2); then b's (3, 0), c's (3, 1) and d's (2, 0), a cluster each.
        let keys: Vec<(u16, u16)> = ok.group_len.iter().copied().zip(ok.group_pos.iter().copied()).collect();
        assert_eq!((&keys[..], &ok.group_origins[..]), (&[(2, 1), (3, 2), (3, 0), (3, 1), (2, 0)][..], &[0, 1, 2, 3, 4, 5][..]));
        for arenas in [owned_arenas as fn(&ClusteredIndex) -> IndexArenas, widened] {
            let reject = |what: &str, mutate: &dyn Fn(&mut IndexArenas), expect: &str| reject_in(&f, arenas, what, mutate, expect);
            reject("a cluster of no origin", &|a| set_origin(a, 1, 2), "origin cluster 1 names origin e2 out of 2");
            reject(
                "lowest position = group length",
                &|a| a.group_pos.as_mut_vec()[0] = 2,
                "group 0 lowest position 2 outside its sets of 2",
            );
            reject(
                "a group position too many",
                &|a| a.group_pos.as_mut_vec().push(0),
                "group positions hold 6 entries, expected one per group: 5",
            );
            reject(
                "a group position too few",
                &|a| a.group_pos.as_mut_vec().truncate(4),
                "group positions hold 4 entries, expected one per group: 5",
            );
            // "a"'s groups made (3, 2) twice, then (3, 2) before (3, 1).
            reject(
                "one key twice",
                &|a| {
                    a.group_len.as_mut_vec()[0] = 3;
                    a.group_pos.as_mut_vec()[0] = 2;
                },
                "token 0's groups are not strictly ascending by (length, position)",
            );
            reject(
                "positions descending",
                &|a| {
                    a.group_len.as_mut_vec()[0] = 3;
                    a.group_pos.as_mut_vec()[0] = 2;
                    a.group_pos.as_mut_vec()[1] = 1;
                },
                "token 0's groups are not strictly ascending by (length, position)",
            );
            // "a"'s groups made (3, 1) and (3, 2), both of origin 0.
            reject(
                "an origin in two groups of one length",
                &|a| {
                    a.group_len.as_mut_vec()[0] = 3;
                    set_origin(a, 0, 0);
                },
                "origin e0 stands in two groups of token 0's length 3",
            );
        }
        // The same two groups, one origin each, are a sound image.
        let mut split = ok.clone();
        split.group_len.as_mut_vec()[0] = 3;
        assert!(ClusteredIndex::from_raw_parts(f.index.shared_order(), split).is_ok());
    }

    /// Pools past one mask word: 70 tokens and a rule make a 72-key pool,
    /// masks of three words once read out, stored in 144 bits — five words,
    /// the second mask starting at bit 8 of the third; 64 tokens fill two
    /// words to the last bit, where the padding check has no spare bits to
    /// look at (a shift by the word width, if it were computed, would wrap in
    /// release builds).
    #[test]
    fn wide_pools_span_several_mask_words() {
        let words = |n: usize| (0..n).map(|i| format!("t{i:02}")).collect::<Vec<_>>().join(" ");
        let f = fixture(&[&words(70), &words(64)], &[("t00", "x y")]);
        let order = f.index.order();
        for (e, (pool, lens)) in [(72, vec![70, 71]), (66, vec![64, 65])].into_iter().enumerate() {
            let block = f.index.block(EntityId(e as u32));
            assert_eq!((block.pool.len(), block.words()), (pool, 3));
            assert_eq!(block.ids.len(), lens.len());
            for (slot, &len) in lens.iter().enumerate() {
                let mut want: Vec<u32> = f.dd.derived(block.id(slot)).tokens.iter().map(|&t| order.key(t)).collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(block.keys(slot).collect::<Vec<_>>(), want);
                assert_eq!(block.set_len(slot), len);
            }
            assert_eq!([0, lens[0], lens[1], lens[1] + 1].map(|lo| block.first_slot_at_least(lo)), [0, 0, 1, 2]);
        }
        let full = fixture(&[&words(64)], &[]);
        assert_eq!(full.index.block(EntityId(0)).words(), 2);
        assert_eq!(full.index.raw_parts().blocks[33..], [u32::MAX, u32::MAX]);
        // Both widths: the 16-bit index as built, its pools two ranks to a
        // word, and the same sets at 32 bits, a key to a word.
        for (arenas, key_words) in [(owned_arenas as fn(&ClusteredIndex) -> IndexArenas, 36), (widened, 72)] {
            for f in [&f, &full] {
                let re = ClusteredIndex::from_raw_parts(f.index.shared_order(), arenas(&f.index)).expect("wide pools validate");
                assert_eq!((re.min_set_len(), re.max_set_len()), (f.index.min_set_len(), f.index.max_set_len()));
                assert_eq!(re.block(EntityId(0)).keys(0).collect::<Vec<_>>(), f.index.block(EntityId(0)).keys(0).collect::<Vec<_>>());
            }
            assert_eq!(arenas(&f.index).block_offsets[1] as usize, 1 + key_words + 5);
            let mut bad = arenas(&f.index);
            // Origin 0's masks end at bit 16 of its fifth mask word.
            bad.blocks.as_mut_vec()[key_words + 5] |= 1 << 16;
            let err = ClusteredIndex::from_raw_parts(f.index.shared_order(), bad).expect_err("bit 144 of 144");
            assert!(err.contains("origin 0's masks set a padding bit past their 2 × 72 bits"), "{err}");
        }
    }

    /// The retired build: one growing `Vec` of postings — one per key of
    /// every variant's set — per token, each sorted and flattened in turn,
    /// over sets made by one sort and dedup per variant; a cluster's lowest
    /// position is the minimum over the postings it stands for. Kept as the
    /// oracle for the counting build over the origins' masks, whose five
    /// arrays must equal these element for element.
    fn cluster_postings_per_token_vecs(dd: &DerivedDictionary, order: &GlobalOrder) -> ClusteredPostings<u32> {
        let num_tokens = dd.iter().flat_map(|(_, d)| d.tokens.iter()).map(|t| t.idx() + 1).max().unwrap_or(0);
        let mut raw: Vec<Vec<(u16, EntityId, u16)>> = vec![Vec::new(); num_tokens];
        for (_, d) in dd.iter() {
            // The retired per-variant set: its own sort and dedup.
            let mut set: Vec<u32> = d.tokens.iter().map(|&t| order.key(t)).collect();
            set.sort_unstable();
            set.dedup();
            for (pos, &key) in set.iter().enumerate() {
                raw[order.token_of(key).idx()].push((set.len() as u16, d.origin, pos as u16));
            }
        }
        let mut out = ClusteredPostings {
            tok_groups: Vec::new(),
            group_len: Vec::new(),
            group_pos: Vec::new(),
            group_origins: Vec::new(),
            origin_entity: Vec::new(),
        };
        for mut postings in raw {
            // Sorted by position last, a cluster's first posting is its lowest.
            postings.sort_unstable();
            postings.dedup_by_key(|&mut (len, origin, _)| (len, origin));
            let mut clusters: Vec<(u16, u16, EntityId)> = postings.into_iter().map(|(len, origin, pos)| (len, pos, origin)).collect();
            clusters.sort_unstable();
            out.tok_groups.push(out.group_len.len() as u32);
            let mut cur_key: Option<(u16, u16)> = None;
            for (len, pos, origin) in clusters {
                if cur_key != Some((len, pos)) {
                    out.group_len.push(len);
                    out.group_pos.push(pos);
                    out.group_origins.push(out.origin_entity.len() as u32);
                    cur_key = Some((len, pos));
                }
                out.origin_entity.push(origin.0);
            }
        }
        out.tok_groups.push(out.group_len.len() as u32);
        out.group_origins.push(out.origin_entity.len() as u32);
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
                let _ = rs.push_tokens(&tokens(l), &tokens(r), 1.0);
            }
            let dd = DerivedDictionary::build(&dict, &rs, &DeriveConfig::default());
            let index = ClusteredIndex::build(&dd, &int);
            let r = index.raw_parts();
            let built = cluster_postings::<u32>(index.order(), &index.sets, index.slots(), (index.order().tokens(), |t: TokenId| t.0));
            proptest::prop_assert_eq!(&built, &cluster_postings_per_token_vecs(&dd, index.order()));
            // The index clustered its 16-bit records, which file a cluster
            // under its rank, into the arrays of the 32-bit ones, filed under
            // their token.
            proptest::prop_assert_eq!(r.tok_groups, &built.tok_groups[..]);
            proptest::prop_assert_eq!(r.group_len, &built.group_len[..]);
            proptest::prop_assert_eq!(r.group_pos, &built.group_pos[..]);
            proptest::prop_assert_eq!(r.group_origins, &built.group_origins[..]);
            let narrow: Vec<u16> = built.origin_entity.iter().map(|&e| e as u16).collect();
            proptest::prop_assert_eq!(r.origin_entity, Ids::U16(&narrow));
        }
    }
}
