//! String interning: maps tokens to dense `u32` ids and back.
//!
//! Strings are stored as an artifact stores them, a UTF-8 byte arena and
//! `u32` offsets ([`StrArena`]), and found through FNV-1a slots — 16-bit
//! while a table holds fewer than 2¹⁶ strings, 32-bit past that. An
//! artifact stores no slots: open would have to probe every string of
//! stored ones to trust them, the same work as building them, and building
//! them proves that no string stands under two ids.

use crate::runs::StrArena;
use aeetes_frozen::Arena;
use std::fmt;
use std::sync::Arc;

/// A dense identifier for an interned token string.
///
/// Ids are assigned in first-seen order starting from zero, so they can be
/// used directly as indices into side tables (frequencies, ranks, postings).
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

// SAFETY: repr(transparent) over u32 — fixed layout, any bit pattern valid.
unsafe impl aeetes_frozen::Pod for TokenId {}

impl TokenId {
    /// Ids are minted strictly below this bound (2³¹). The global token
    /// order packs "valid token" into bit 31 of its `u32` keys and keys an
    /// unindexed token as its own id, so the top bit of an id must stay
    /// clear; [`Interner::intern`] refuses to mint past it.
    pub const LIMIT: u32 = 1 << 31;

    /// The id as a usize, for indexing side tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// FNV-1a 64-bit hash.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A table's slots, at 16 bits while every string's `i + 1` fits in them
/// (fewer than 2¹⁶ strings) and at 32 past that.
#[derive(Debug, Clone)]
enum Slots {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Slots {
    /// `n` empty slots, wide enough for `strings` strings.
    fn empty(n: usize, strings: usize) -> Self {
        if strings < 1 << 16 {
            Slots::U16(vec![0; n])
        } else {
            Slots::U32(vec![0; n])
        }
    }

    fn len(&self) -> usize {
        match self {
            Slots::U16(slots) => slots.len(),
            Slots::U32(slots) => slots.len(),
        }
    }

    /// Whether a slot holds `id`.
    fn fits(&self, id: u32) -> bool {
        matches!(self, Slots::U32(_)) || id <= u32::from(u16::MAX)
    }

    fn set(&mut self, slot: usize, id: u32) {
        match self {
            Slots::U16(slots) => slots[slot] = u16::try_from(id).expect("a 16-bit table's ids fit its slots"),
            Slots::U32(slots) => slots[slot] = id,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Slots::U16(slots) => 2 * slots.capacity(),
            Slots::U32(slots) => 4 * slots.capacity(),
        }
    }
}

/// Consecutive strings and the slots that find them.
#[derive(Debug, Clone)]
struct Table {
    /// String `i` of the table, in id order.
    strings: StrArena,
    /// `i + 1` per slot, 0 when empty: none while the table is empty, else
    /// a power of two of them, at least twice as many as strings, so an
    /// empty slot ends every probe.
    slots: Slots,
}

impl Table {
    /// No strings, continuing strings that end at byte `start`.
    fn empty_at(start: u32) -> Self {
        Self { strings: StrArena::empty_at(start), slots: Slots::U16(Vec::new()) }
    }

    fn len(&self) -> usize {
        self.strings.runs().len()
    }

    /// Where the probe for `s` ends: at the place of an equal string, or at
    /// the empty slot that would take it.
    #[inline]
    fn probe(&self, s: &str, hash: u64) -> Result<u32, usize> {
        match &self.slots {
            Slots::U16(slots) => self.probe_in(slots, s, hash),
            Slots::U32(slots) => self.probe_in(slots, s, hash),
        }
    }

    #[inline]
    fn probe_in<S: Copy + Into<u32>>(&self, slots: &[S], s: &str, hash: u64) -> Result<u32, usize> {
        let mask = slots.len() - 1;
        let mut slot = hash as usize & mask;
        while let Some(i) = slots[slot].into().checked_sub(1) {
            if self.strings.get(i as usize) == s {
                return Ok(i);
            }
            slot = (slot + 1) & mask;
        }
        Err(slot)
    }

    /// The place of `s` in the table.
    #[inline]
    fn find(&self, s: &str, hash: u64) -> Option<u32> {
        match &self.slots {
            Slots::U16(slots) if !slots.is_empty() => self.probe_in(slots, s, hash).ok(),
            Slots::U32(slots) if !slots.is_empty() => self.probe_in(slots, s, hash).ok(),
            _ => None,
        }
    }

    /// New slots, at least twice as many as strings and as wide as their
    /// count needs, every string filed: of two equal strings, the second is
    /// returned with the first.
    fn refile(&mut self) -> Result<(), (u32, u32)> {
        self.slots = Slots::empty((2 * self.len()).next_power_of_two().max(8), self.len());
        for i in 0..self.len() as u32 {
            let s = self.strings.get(i as usize);
            match self.probe(s, fnv1a(s.as_bytes())) {
                Ok(j) => return Err((i, j)),
                Err(slot) => self.slots.set(slot, i + 1),
            }
        }
        Ok(())
    }
}

/// An append-only string interner.
///
/// Tokens are stored once, as flat runs; lookups in both directions are
/// O(1). The interner is deliberately append-only: downstream structures
/// cache `TokenId`s and rely on them never being invalidated.
///
/// The strings of an opened artifact are adopted in place as a table every
/// clone shares ([`Self::from_raw_arenas`]); strings interned after that go
/// to an owned table starting at the next id, with slots of its own. A clone
/// shares the owned table too, and copies it on its first [`Self::intern`]
/// of a new string; a delta that brings a new word leaves the adopted one
/// shared.
#[derive(Clone)]
pub struct Interner {
    /// Ids `0..base.len()`, adopted from an artifact.
    base: Option<Arc<Table>>,
    /// The ids after them; its bytes continue the base's. Shared with the
    /// clones until one of them interns a new string.
    own: Arc<Table>,
}

impl Default for Interner {
    fn default() -> Self {
        Self { base: None, own: Arc::new(Table::empty_at(0)) }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts the byte arena and the `len + 1` prefix offsets
    /// [`Self::arena_runs`] yields as the strings of ids `0..len`, after
    /// validating them and building their slots: the offsets are non-empty,
    /// start at 0, are monotonic and end at the arena's length; the bytes
    /// are UTF-8 cut at character boundaries; no string stands twice; there
    /// are no more strings than ids. The arenas move in unchanged — frozen
    /// ones stay in the artifact.
    pub fn from_raw_arenas(bytes: Arena<u8>, offsets: Arena<u32>) -> Result<Self, String> {
        let strings = StrArena::new(bytes, offsets, "string")?;
        let n = strings.runs().len();
        if n > TokenId::LIMIT as usize {
            return Err(format!("{n} strings, the id space ends at {}", TokenId::LIMIT));
        }
        let end = strings.runs().end();
        let mut base = Table { strings, slots: Slots::U16(Vec::new()) };
        base.refile().map_err(|(i, j)| format!("duplicate string {i} = {j}"))?;
        Ok(Self { base: Some(Arc::new(base)), own: Arc::new(Table::empty_at(end)) })
    }

    /// The adopted table, if any, then the owned one.
    fn tables(&self) -> impl Iterator<Item = &Table> {
        self.base.as_deref().into_iter().chain([&*self.own])
    }

    /// The number of adopted strings.
    fn base_len(&self) -> u32 {
        self.base.as_ref().map_or(0, |b| b.len() as u32)
    }

    /// The id of `s`, when interned.
    #[inline]
    fn find(&self, s: &str, hash: u64) -> Option<TokenId> {
        if let Some(i) = self.base.as_ref().and_then(|b| b.find(s, hash)) {
            return Some(TokenId(i));
        }
        self.own.find(s, hash).map(|i| TokenId(self.base_len() + i))
    }

    /// Interns `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> TokenId {
        let hash = fnv1a(s.as_bytes());
        if let Some(id) = self.find(s, hash) {
            return id;
        }
        let local = self.own.len();
        let id = (self.base_len() as usize)
            .checked_add(local)
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n < TokenId::LIMIT)
            .expect("interner overflow: more than 2^31 distinct tokens");
        let own = Arc::make_mut(&mut self.own);
        // A full arena grows by a quarter rather than doubling, so that an
        // interner never holds more than a quarter of its strings spare.
        let (spare_bytes, spare_strings) = own.strings.runs().spare();
        if spare_bytes < s.len() || spare_strings == 0 {
            let bytes = own.strings.runs().items().len();
            own.strings.reserve_exact(s.len().max(bytes / 4), (local / 4).max(1));
        }
        own.strings.push(s);
        if 2 * (local + 1) > own.slots.len() || !own.slots.fits(local as u32 + 1) {
            own.refile().expect("interned strings are distinct");
        } else {
            let slot = own.probe(s, hash).expect_err("interned strings are distinct");
            own.slots.set(slot, local as u32 + 1);
        }
        TokenId(id)
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<TokenId> {
        self.find(s, fnv1a(s.as_bytes()))
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: TokenId) -> &str {
        match &self.base {
            Some(base) if id.idx() < base.len() => base.strings.get(id.idx()),
            _ => self.own.strings.get((id.0 - self.base_len()) as usize),
        }
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.base_len() as usize + self.own.len()
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all interned strings in id order (id 0 first). Re-interning
    /// them in order reproduces identical ids.
    pub fn iter_strings(&self) -> impl Iterator<Item = &str> {
        self.tables().flat_map(|t| (0..t.len()).map(|i| t.strings.get(i)))
    }

    /// The byte arena and the prefix offsets of every string, as the runs
    /// the interner holds, adopted first. Concatenating each over the runs
    /// gives the arenas [`Self::from_raw_arenas`] adopts: the offsets of a
    /// run after the first leave out the entry it shares with the one
    /// before.
    pub fn arena_runs(&self) -> impl Iterator<Item = (&[u8], &[u32])> {
        self.tables().enumerate().map(|(k, t)| {
            let runs = t.strings.runs();
            (runs.items(), &runs.offsets()[usize::from(k > 0)..])
        })
    }

    /// Heap bytes this interner owns: its owned strings and every slot
    /// table, the ones it shares with its clones included — 2 bytes a slot
    /// in a table of fewer than 2¹⁶ strings, 4 in a larger one.
    pub fn owned_bytes(&self) -> usize {
        self.tables().map(|t| t.strings.runs().owned_bytes() + t.slots.bytes()).sum()
    }

    /// Renders a token sequence back to a space-joined string (for display
    /// and debugging; the original inter-token whitespace is not preserved).
    pub fn render(&self, tokens: &[TokenId]) -> String {
        let mut out = String::new();
        for (i, t) in tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.resolve(*t));
        }
        out
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner").field("len", &self.len()).field("owned", &self.own.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("hello");
        let b = i.intern("hello");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let id = i.intern("université");
        assert_eq!(i.resolve(id), "université");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        assert!(i.is_empty());
        i.intern("x");
        assert!(i.get("x").is_some());
    }

    #[test]
    fn render_joins_with_spaces() {
        let mut i = Interner::new();
        let toks = vec![i.intern("new"), i.intern("york")];
        assert_eq!(i.render(&toks), "new york");
        assert_eq!(i.render(&[]), "");
    }

    #[test]
    fn distinct_strings_distinct_ids() {
        let mut i = Interner::new();
        assert_ne!(i.intern("a"), i.intern("A"));
    }

    #[test]
    fn iter_strings_round_trips_ids() {
        let mut i = Interner::new();
        for w in ["x", "y", "z"] {
            i.intern(w);
        }
        let mut j = Interner::new();
        for s in i.iter_strings() {
            j.intern(s);
        }
        assert_eq!(j.len(), i.len());
        assert_eq!(j.get("y"), i.get("y"));
    }

    /// The arenas of `words`, adopted.
    fn adopt(words: &[&str]) -> Result<Interner, String> {
        let (mut bytes, mut offsets) = (Vec::new(), vec![0u32]);
        for w in words {
            bytes.extend_from_slice(w.as_bytes());
            offsets.push(bytes.len() as u32);
        }
        Interner::from_raw_arenas(bytes.into(), offsets.into())
    }

    fn refused(bytes: &[u8], offsets: &[u32], expect: &str) {
        let err = Interner::from_raw_arenas(bytes.to_vec().into(), offsets.to_vec().into()).err();
        let err = err.unwrap_or_else(|| panic!("must be refused: {expect}"));
        assert!(err.contains(expect), "expected `{expect}` in `{err}`");
    }

    #[test]
    fn adopted_arenas_answer_and_grow_past_them() {
        let mut i = adopt(&["purdue", "", "université"]).unwrap();
        assert_eq!((i.len(), i.get(""), i.get("université")), (3, Some(TokenId(1)), Some(TokenId(2))));
        assert_eq!(i.intern("purdue"), TokenId(0), "an adopted string is not interned again");
        assert_eq!(i.intern("indiana"), TokenId(3));
        assert_eq!((i.resolve(TokenId(3)), i.get("indiana")), ("indiana", Some(TokenId(3))));
        assert_eq!(i.iter_strings().collect::<Vec<_>>(), ["purdue", "", "université", "indiana"]);
        let empty = adopt(&[]).unwrap();
        assert_eq!((empty.len(), empty.get("")), (0, None));
    }

    #[test]
    fn corrupted_arenas_are_refused() {
        let words = ["x", "token-7", "université", "y"];
        let (mut bytes, mut offsets) = (Vec::new(), vec![0u32]);
        for w in words {
            bytes.extend_from_slice(w.as_bytes());
            offsets.push(bytes.len() as u32);
        }
        refused(&bytes, &[], "string offsets empty");
        let mut bad = offsets.clone();
        bad[1] = bad[2] + 1;
        refused(&bytes, &bad, "string offsets not monotonic");
        let mut bad = offsets.clone();
        *bad.last_mut().unwrap() += 4;
        refused(&bytes, &bad, "string offsets end at");
        let mut bad = bytes.clone();
        bad[0] = 0xFF;
        refused(&bad, &offsets, "string arena is not UTF-8");
        // "é" is two bytes: an offset between them starts a string mid-character.
        refused("aé".as_bytes(), &[0, 2, 3], "string 1 starts mid-character");
        // A string stored twice, the empty one too.
        assert_eq!(adopt(&["x", "token-7", "y", "token-7"]).err().unwrap(), "duplicate string 3 = 1");
        assert_eq!(adopt(&["", "a", ""]).err().unwrap(), "duplicate string 2 = 0");
    }
}
