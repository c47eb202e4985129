//! What one extraction pass over an index segment reads: an index and its
//! variant table — the only tier a monolithic engine has, a generation's
//! *base* —
//! and, after dictionary deltas, the *tail* of origins re-derived since the
//! base was made.
//!
//! Every live origin sits in exactly one tier: the tail holds the origins a
//! delta changed (re-derived, or tombstoned to nothing), and a bit per base
//! origin marks the ones the tail supersedes. A pass probes both tiers inside
//! its one window walk — the base list of a token, its superseded clusters
//! dropped at emit with one bit test, then the tail's list of the same token —
//! and verifies an origin against whichever tier owns it.

use aeetes_index::{ClusteredIndex, GlobalOrder};
use aeetes_rules::VariantTable;
use aeetes_text::EntityId;

/// The tiers one extraction pass probes. Cheap to copy: borrows only.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// The base tier's index.
    pub index: &'a ClusteredIndex,
    /// The base tier's variant table.
    pub dd: &'a VariantTable,
    /// The origins changed since the base was made, if any were.
    pub tail: Option<Tail<'a>>,
}

/// The second tier of a [`Segment`].
#[derive(Debug, Clone, Copy)]
pub struct Tail<'a> {
    /// Listed index over the tail's origins and tokens, keyed by an order
    /// that extends the base's (extension never re-keys a token): it finds
    /// an origin's block and a token's list in its own sorted lists, so a
    /// tail costs what it holds, not the dictionary.
    pub index: &'a ClusteredIndex,
    /// Variant table over the index's listed origins, slot by slot: its
    /// variant ids are the tail's own.
    pub dd: &'a VariantTable,
    /// Bit `e % 64` of word `e / 64`: base origin `e` is superseded — its
    /// variants now live in the tail, or nowhere.
    pub superseded: &'a [u64],
}

impl Tail<'_> {
    /// Whether base origin `e`'s variants are no longer live.
    #[inline]
    pub fn supersedes(&self, e: EntityId) -> bool {
        self.superseded.get(e.idx() / 64).is_some_and(|word| word >> (e.idx() % 64) & 1 != 0)
    }
}

impl<'a> Segment<'a> {
    /// A segment of one tier.
    pub fn new(index: &'a ClusteredIndex, dd: &'a VariantTable) -> Self {
        Segment { index, dd, tail: None }
    }

    /// The order windows are keyed by: the tail's, which extends the base's,
    /// so base sets and positions read the same under it.
    pub fn order(&self) -> &'a GlobalOrder {
        self.tail.map_or(self.index, |tail| tail.index).order()
    }

    /// Whether origin `e`'s live variants are the tail's: it lies past the
    /// base's origin space or is superseded in it.
    #[inline]
    pub fn in_tail(&self, e: EntityId) -> bool {
        self.tail.is_some_and(|tail| e.idx() >= self.dd.origins() || tail.supersedes(e))
    }

    /// The index and variant table that hold origin `e`'s live variants:
    /// the index's [`ClusteredIndex::block`] finds the origin's slot, and
    /// the block's variant ids are the table's.
    #[inline]
    pub fn owner(&self, e: EntityId) -> (&'a ClusteredIndex, &'a VariantTable) {
        match self.tail {
            Some(tail) if self.in_tail(e) => (tail.index, tail.dd),
            _ => (self.index, self.dd),
        }
    }
}
