//! The frozen (zero-copy) string table behind an [`Interner`] overlay.
//!
//! Layout: one UTF-8 byte arena holding every string back to back and a
//! `u32` prefix-offset array (`len + 1` entries). Both live in [`Arena`]s,
//! so an engine opened from a frozen artifact resolves token strings straight
//! out of the file image with no per-string allocation.
//!
//! The string → id direction is an open-addressing FNV-1a hash table that
//! [`FrozenStrings::new`] builds on the heap, one probe per string: it stores
//! `id + 1` per slot (0 = empty) in a power-of-two slot array, probed
//! linearly. An artifact stores no table: open would have to probe every
//! string of a stored one anyway to trust it, which is the same hashing work
//! as building it, and building it proves the one property a stored table
//! could break — that no string stands under two ids.
//!
//! [`Interner`]: crate::Interner

use crate::interner::{StringTable, TokenId};
use crate::runs::Runs;
use aeetes_frozen::Arena;
use std::fmt;

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

/// The byte arena and the `len + 1` prefix offsets of `strings`, in id
/// order: what an artifact stores of a string table.
///
/// # Panics
/// Panics when the strings take more than `u32::MAX` bytes.
pub fn string_arenas<'a>(strings: impl IntoIterator<Item = &'a str>) -> (Vec<u8>, Vec<u32>) {
    let mut bytes = Vec::new();
    let mut offsets = vec![0u32];
    for s in strings {
        bytes.extend_from_slice(s.as_bytes());
        offsets.push(u32::try_from(bytes.len()).expect("string arena overflows u32 offsets"));
    }
    (bytes, offsets)
}

/// UTF-8 strings as [`Runs`] of bytes: the layout of the interner's string
/// table and of the dictionary's surface forms.
///
/// The bytes are proved UTF-8, cut at character boundaries, once: by
/// [`StrArena::new`] for bytes that come from outside, by construction for
/// strings pushed and arenas concatenated. Reading a string never validates
/// again.
#[derive(Debug)]
pub(crate) struct StrArena(Runs<u8>);

impl StrArena {
    /// Validates arenas that come from outside: [`Runs::new`]'s offset
    /// checks, then one UTF-8 pass over the whole arena (std's SIMD
    /// validator) and a char-boundary check per offset, which together prove
    /// every string is itself valid UTF-8 without n separate validations.
    /// Errors name the strings `what` are.
    pub(crate) fn new(bytes: Arena<u8>, offsets: Arena<u32>, what: &str) -> Result<Self, String> {
        let runs = Runs::new(bytes, offsets, what)?;
        let all = std::str::from_utf8(runs.items()).map_err(|e| format!("{what} arena is not UTF-8: {e}"))?;
        if let Some(i) = (0..runs.len()).find(|&i| !all.is_char_boundary(runs.offsets()[i] as usize)) {
            return Err(format!("{what} {i} starts mid-character"));
        }
        Ok(Self(runs))
    }

    /// No strings, owned, continuing strings that end at byte `start`.
    pub(crate) fn empty_at(start: u32) -> Self {
        Self(Runs::empty_at(start))
    }

    /// The owned concatenation of `parts`, each continuing the one before,
    /// with the last one's spare room.
    pub(crate) fn concat<'a>(parts: impl Iterator<Item = &'a Self> + Clone) -> Self {
        Self(Runs::concat(parts.map(|p| &p.0)))
    }

    /// Appends `s`.
    ///
    /// # Panics
    /// As [`Runs::push`].
    pub(crate) fn push(&mut self, s: &str) {
        self.0.push(s.bytes());
    }

    /// String `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &str {
        // SAFETY: the bytes are UTF-8 and every offset a character boundary:
        // validated in `new`, pushed as whole `&str`s, or concatenated from
        // such arenas (`Runs::concat` asserts each continues the one before,
        // so no offset moves off its boundary).
        unsafe { std::str::from_utf8_unchecked(self.0.get(i)) }
    }

    /// The bytes and their offsets.
    pub(crate) fn runs(&self) -> &Runs<u8> {
        &self.0
    }

    /// Makes room for exactly `bytes` more bytes in `strings` more strings.
    pub(crate) fn reserve_exact(&mut self, bytes: usize, strings: usize) {
        self.0.reserve_exact(bytes, strings);
    }
}

/// A validated read-only string table over flat arenas.
pub struct FrozenStrings {
    /// Every string, in id order.
    strings: StrArena,
    /// Open-addressing slots holding `id + 1`: a power of two of them, at
    /// least twice as many as strings, so an empty slot ends every probe.
    table: Vec<u32>,
}

impl FrozenStrings {
    /// Validates the arenas of a string table and builds its hash table.
    ///
    /// Checks: the offset array is non-empty, starts at 0, is monotonic and
    /// ends at `bytes.len()`; every string is valid UTF-8; no string stands
    /// twice. Any violation is a clean error.
    pub fn new(bytes: Arena<u8>, offsets: Arena<u32>) -> Result<Self, String> {
        let strings = StrArena::new(bytes, offsets, "string")?;
        let n = strings.runs().len();
        // One probe per string: an empty slot takes it, a slot holding the
        // same string is a string stored twice.
        let mut table = vec![0u32; (2 * n).next_power_of_two().max(8)];
        let mask = table.len() - 1;
        for i in 0..n {
            let s = strings.get(i);
            let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
            while table[slot] != 0 {
                let j = (table[slot] - 1) as usize;
                if strings.get(j) == s {
                    return Err(format!("duplicate string {i} = {j}"));
                }
                slot = (slot + 1) & mask;
            }
            table[slot] = i as u32 + 1;
        }
        Ok(Self { strings, table })
    }

    fn probe(&self, s: &str) -> Option<TokenId> {
        let mask = self.table.len() - 1;
        let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
        // Linear probing; at 50% max load an empty slot always ends the
        // scan, and every slot holds an id in range.
        loop {
            let id = self.table[slot].checked_sub(1)? as usize;
            if self.strings.get(id) == s {
                return Some(TokenId(id as u32));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The raw byte arena (writer/serialization access).
    pub fn raw_bytes(&self) -> &[u8] {
        self.strings.runs().items()
    }

    /// The raw offset array (writer/serialization access).
    #[cfg(test)]
    fn raw_offsets(&self) -> &[u32] {
        self.strings.runs().offsets()
    }
}

impl StringTable for FrozenStrings {
    fn len(&self) -> usize {
        self.strings.runs().len()
    }

    fn lookup(&self, s: &str) -> Option<TokenId> {
        self.probe(s)
    }

    fn resolve(&self, id: u32) -> &str {
        self.strings.get(id as usize)
    }
}

impl fmt::Debug for FrozenStrings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrozenStrings").field("len", &StringTable::len(self)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use std::sync::Arc;

    fn sample() -> Vec<String> {
        (0..100).map(|i| format!("token-{i}")).chain(["", "université", "a"].map(String::from)).collect()
    }

    fn open(bytes: &[u8], offsets: &[u32]) -> Result<FrozenStrings, String> {
        FrozenStrings::new(bytes.to_vec().into(), offsets.to_vec().into())
    }

    #[test]
    fn arenas_round_trip() {
        let words = sample();
        let (bytes, offsets) = string_arenas(words.iter().map(|s| s.as_str()));
        let fs = open(&bytes, &offsets).unwrap();
        assert_eq!((fs.raw_bytes(), fs.raw_offsets()), (&bytes[..], &offsets[..]));
        assert_eq!(StringTable::len(&fs), words.len());
        for (i, w) in words.iter().enumerate() {
            assert_eq!(fs.resolve(i as u32), w);
            assert_eq!(fs.lookup(w), Some(TokenId(i as u32)), "lookup {w:?}");
        }
        assert_eq!(fs.lookup("not-present"), None);
        let empty = open(&[], &[0]).unwrap();
        assert_eq!((StringTable::len(&empty), empty.lookup("")), (0, None));
    }

    #[test]
    fn corrupted_arenas_rejected() {
        let words = sample();
        let (bytes, offsets) = string_arenas(words.iter().map(|s| s.as_str()));
        let refused = |bytes: &[u8], offsets: &[u32], expect: &str| {
            let err = open(bytes, offsets).err().unwrap_or_else(|| panic!("must be refused: {expect}"));
            assert!(err.contains(expect), "expected `{expect}` in `{err}`");
        };
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
        let (twice, twice_off) = string_arenas(["x", "token-7", "y", "token-7"]);
        refused(&twice, &twice_off, "duplicate string 3 = 1");
        let (empty_twice, empty_off) = string_arenas(["", "a", ""]);
        refused(&empty_twice, &empty_off, "duplicate string 2 = 0");
    }

    #[test]
    fn interner_overlay_over_frozen_strings() {
        let mut warm = Interner::new();
        for w in ["purdue", "university", "usa"] {
            warm.intern(w);
        }
        let (bytes, offsets) = string_arenas(warm.iter_strings());
        let fs = Arc::new(open(&bytes, &offsets).unwrap());
        let mut cold = Interner::with_base(fs);
        assert_eq!(cold.len(), 3);
        assert_eq!(cold.get("university"), warm.get("university"));
        assert_eq!(cold.intern("indiana"), TokenId(3));
        assert_eq!(cold.resolve(TokenId(0)), "purdue");
        let round: Vec<&str> = cold.iter_strings().collect();
        assert_eq!(round, vec!["purdue", "university", "usa", "indiana"]);
    }
}
