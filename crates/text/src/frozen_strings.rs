//! The frozen (zero-copy) string table behind an [`Interner`] overlay.
//!
//! Layout: one UTF-8 byte arena holding every string back to back, a
//! `u32` prefix-offset array (`len + 1` entries), and an open-addressing
//! FNV-1a hash table for the string → id direction. All three live in
//! [`Arena`]s, so an engine opened from a frozen artifact resolves token
//! strings straight out of the file image with no per-string allocation.
//!
//! The hash table stores `id + 1` per slot (0 = empty) in a power-of-two
//! slot array; probing is linear. [`FrozenStrings::new`] re-probes every
//! string once, which simultaneously validates UTF-8, offset monotonicity
//! and the table itself — a corrupted table yields a clean error, and
//! lookups afterwards can trust bounded probes.

use crate::interner::{StringTable, TokenId};
use aeetes_frozen::Arena;
use std::fmt;

/// FNV-1a 64-bit hash; the writer and the open path must agree on it.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Number of hash-table slots for `n` strings: next power of two of `2n`,
/// at least 8, keeping the load factor at or below 50%.
pub fn table_slots(n: usize) -> usize {
    (2 * n).next_power_of_two().max(8)
}

/// Builds the open-addressing table for `strings` (writer side). The
/// returned vector has [`table_slots`]`(strings.len())` entries holding
/// `id + 1`, with 0 marking an empty slot.
pub fn build_table<'a>(strings: impl ExactSizeIterator<Item = &'a str>) -> Vec<u32> {
    let slots = table_slots(strings.len());
    let mask = slots - 1;
    let mut table = vec![0u32; slots];
    for (id, s) in strings.enumerate() {
        let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
        while table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        table[slot] = id as u32 + 1;
    }
    table
}

/// A validated read-only string table over flat arenas.
pub struct FrozenStrings {
    /// UTF-8 bytes of all strings, back to back.
    bytes: Arena<u8>,
    /// `offsets[i]..offsets[i+1]` is string `i`; `len + 1` entries.
    offsets: Arena<u32>,
    /// Open-addressing slots holding `id + 1`; power-of-two length.
    table: Arena<u32>,
}

impl FrozenStrings {
    /// Assembles and fully validates a string table.
    ///
    /// Checks: the offset array is non-empty, starts at 0, is monotonic and
    /// ends at `bytes.len()`; every string is valid UTF-8; the hash table
    /// has the expected power-of-two size and, probed with every string,
    /// finds exactly that string's id. Any violation is a clean error.
    pub fn new(bytes: Arena<u8>, offsets: Arena<u32>, table: Arena<u32>) -> Result<Self, String> {
        let n = offsets.len().checked_sub(1).ok_or("string offsets empty")?;
        let off: &[u32] = &offsets;
        let raw: &[u8] = &bytes;
        let slots: &[u32] = &table;
        if off[0] != 0 {
            return Err("string offsets do not start at 0".into());
        }
        if !off.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1])) {
            return Err("string offsets not monotonic".into());
        }
        if off[n] as usize != raw.len() {
            return Err(format!("string offsets end at {} but byte arena holds {}", off[n], raw.len()));
        }
        if slots.len() != table_slots(n) {
            return Err(format!("string hash table has {} slots, expected {}", slots.len(), table_slots(n)));
        }
        // One UTF-8 pass over the whole arena (std's SIMD validator), then a
        // char-boundary check per offset: together these prove every
        // substring is itself valid UTF-8 without n separate validations.
        let all = std::str::from_utf8(raw).map_err(|e| format!("string arena is not UTF-8: {e}"))?;
        if let Some(i) = (0..n).find(|&i| !all.is_char_boundary(off[i] as usize)) {
            return Err(format!("string {i} starts mid-character"));
        }
        // Re-probe every string once: a corrupted table yields a clean error
        // here, and lookups afterwards can trust bounded probes.
        let mask = slots.len() - 1;
        for i in 0..n {
            let s = &raw[off[i] as usize..off[i + 1] as usize];
            let mut slot = (fnv1a(s) as usize) & mask;
            let mut found = false;
            for _ in 0..=slots.len() {
                let v = slots[slot];
                if v == 0 {
                    return Err(format!("string hash table inconsistent: string {i} probes to None"));
                }
                let id = (v - 1) as usize;
                if id == i {
                    found = true;
                    break;
                }
                if id < n && &raw[off[id] as usize..off[id + 1] as usize] == s {
                    return Err(format!("string hash table inconsistent: string {i} probes to Some(TokenId({id}))"));
                }
                slot = (slot + 1) & mask;
            }
            if !found {
                return Err(format!("string hash table inconsistent: string {i} probes to None"));
            }
        }
        Ok(Self { bytes, offsets, table })
    }

    /// Builds an owned (heap) table from strings in id order — the writer
    /// path and the unit-test path.
    pub fn from_strings<'a>(strings: impl IntoIterator<Item = &'a str>) -> Self {
        let all: Vec<&str> = strings.into_iter().collect();
        let mut bytes = Vec::new();
        let mut offsets = Vec::with_capacity(all.len() + 1);
        offsets.push(0u32);
        for s in &all {
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(u32::try_from(bytes.len()).expect("string arena overflows u32 offsets"));
        }
        let table = build_table(all.iter().copied());
        Self { bytes: bytes.into(), offsets: offsets.into(), table: table.into() }
    }

    fn probe(&self, s: &str) -> Option<TokenId> {
        let mask = self.table.len() - 1;
        let mut slot = (fnv1a(s.as_bytes()) as usize) & mask;
        // Linear probing; at 50% max load an empty slot always terminates
        // the scan, and validation re-probed every string at open, so the
        // bound also holds for tables read from disk. Slot values were
        // checked to resolve in range during validation probing itself:
        // guard anyway so a hand-crafted table cannot index out of bounds.
        for _ in 0..=self.table.len() {
            let v = self.table[slot];
            if v == 0 {
                return None;
            }
            let id = (v - 1) as usize;
            if id + 1 < self.offsets.len() {
                let raw = &self.bytes[self.offsets[id] as usize..self.offsets[id + 1] as usize];
                if raw == s.as_bytes() {
                    return Some(TokenId(id as u32));
                }
            }
            slot = (slot + 1) & mask;
        }
        None
    }

    /// The raw byte arena (writer/serialization access).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The raw offset array (writer/serialization access).
    pub fn raw_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw hash-table slots (writer/serialization access).
    pub fn raw_table(&self) -> &[u32] {
        &self.table
    }
}

impl StringTable for FrozenStrings {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn lookup(&self, s: &str) -> Option<TokenId> {
        self.probe(s)
    }

    fn resolve(&self, id: u32) -> &str {
        let raw = &self.bytes[self.offsets[id as usize] as usize..self.offsets[id as usize + 1] as usize];
        // Validated as UTF-8 in `new`/`from_strings` construction.
        unsafe { std::str::from_utf8_unchecked(raw) }
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

    #[test]
    fn from_strings_round_trips() {
        let words = sample();
        let fs = FrozenStrings::from_strings(words.iter().map(|s| s.as_str()));
        assert_eq!(StringTable::len(&fs), words.len());
        for (i, w) in words.iter().enumerate() {
            assert_eq!(fs.resolve(i as u32), w);
            assert_eq!(fs.lookup(w), Some(TokenId(i as u32)), "lookup {w:?}");
        }
        assert_eq!(fs.lookup("not-present"), None);
    }

    #[test]
    fn validated_reassembly_matches() {
        let words = sample();
        let fs = FrozenStrings::from_strings(words.iter().map(|s| s.as_str()));
        let re = FrozenStrings::new(fs.raw_bytes().to_vec().into(), fs.raw_offsets().to_vec().into(), fs.raw_table().to_vec().into()).unwrap();
        assert_eq!(re.lookup("token-42"), Some(TokenId(42)));
    }

    #[test]
    fn corrupted_tables_rejected() {
        let words = sample();
        let fs = FrozenStrings::from_strings(words.iter().map(|s| s.as_str()));
        let bytes: Vec<u8> = fs.raw_bytes().to_vec();
        let offsets: Vec<u32> = fs.raw_offsets().to_vec();
        let table: Vec<u32> = fs.raw_table().to_vec();

        assert!(FrozenStrings::new(bytes.clone().into(), Vec::new().into(), table.clone().into()).is_err(), "empty offsets");
        let mut bad = offsets.clone();
        bad[1] = bad[2] + 1;
        assert!(FrozenStrings::new(bytes.clone().into(), bad.into(), table.clone().into()).is_err(), "non-monotonic offsets");
        let mut bad = offsets.clone();
        *bad.last_mut().unwrap() += 4;
        assert!(FrozenStrings::new(bytes.clone().into(), bad.into(), table.clone().into()).is_err(), "offsets past arena");
        let mut bad = table.clone();
        bad[0] = bad[0].wrapping_add(1);
        assert!(FrozenStrings::new(bytes.clone().into(), offsets.clone().into(), bad.into()).is_err(), "poisoned table slot");
        assert!(
            FrozenStrings::new(bytes.clone().into(), offsets.clone().into(), table[1..].to_vec().into()).is_err(),
            "wrong slot count"
        );
        let mut bad_bytes = bytes.clone();
        bad_bytes[0] = 0xFF;
        let err = FrozenStrings::new(bad_bytes.into(), offsets.into(), table.into());
        assert!(err.is_err(), "invalid UTF-8 or table mismatch");
    }

    #[test]
    fn interner_overlay_over_frozen_strings() {
        let mut warm = Interner::new();
        for w in ["purdue", "university", "usa"] {
            warm.intern(w);
        }
        let fs = Arc::new(FrozenStrings::from_strings(warm.iter_strings()));
        let mut cold = Interner::with_base(fs);
        assert_eq!(cold.len(), 3);
        assert_eq!(cold.get("university"), warm.get("university"));
        assert_eq!(cold.intern("indiana"), TokenId(3));
        assert_eq!(cold.resolve(TokenId(0)), "purdue");
        let round: Vec<&str> = cold.iter_strings().collect();
        assert_eq!(round, vec!["purdue", "university", "usa", "indiana"]);
    }
}
