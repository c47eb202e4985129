//! Entities and the reference dictionary.

use crate::interner::{Interner, TokenId};
use crate::tokenize::Tokenizer;
use std::fmt;

/// Identifier of an *origin* entity in a [`Dictionary`].
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

// SAFETY: repr(transparent) over u32 — fixed layout, any bit pattern valid.
unsafe impl aeetes_frozen::Pod for EntityId {}

impl EntityId {
    /// The id as a usize, for indexing side tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A borrowed view of one entity: a non-empty token sequence plus its
/// source string, both resolved out of the dictionary's flat arenas.
#[derive(Debug, Clone, Copy)]
pub struct Entity<'a> {
    /// Original surface form as it appeared in the reference table.
    pub raw: &'a str,
    /// Interned tokens, in surface order.
    pub tokens: &'a [TokenId],
}

impl Entity<'_> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the entity has no tokens (never true for dictionary entries).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// The reference entity table (the paper's dictionary `E0`).
///
/// Entities are stored in insertion order; [`EntityId`]s are dense indices.
/// Storage is four flat arenas (surface bytes + offsets, tokens + offsets)
/// rather than a `Vec` of per-entity records: a clone is four allocations
/// regardless of entity count, and deserializing a dictionary appends into
/// the arenas without any per-entity heap traffic.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Every surface form, concatenated.
    raws: String,
    /// `raws[raw_off[i]..raw_off[i+1]]` is entity `i`'s surface form.
    raw_off: Vec<u32>,
    /// Every token sequence, concatenated.
    tokens: Vec<TokenId>,
    /// `tokens[tok_off[i]..tok_off[i+1]]` is entity `i`'s token sequence.
    tok_off: Vec<u32>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self { raws: String::new(), raw_off: vec![0], tokens: Vec::new(), tok_off: vec![0] }
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for exactly `entities` more entities of `tokens` tokens and
    /// `raw_bytes` surface bytes in all, so that a copy grown by a few
    /// entities holds no spare capacity.
    pub fn reserve_exact(&mut self, entities: usize, tokens: usize, raw_bytes: usize) {
        self.raws.reserve_exact(raw_bytes);
        self.raw_off.reserve_exact(entities);
        self.tokens.reserve_exact(tokens);
        self.tok_off.reserve_exact(entities);
    }

    /// Tokenizes and appends an entity, returning its id.
    ///
    /// Entities that tokenize to nothing (all punctuation) are still stored
    /// so that ids remain aligned with the caller's input order, but they
    /// will never match anything.
    pub fn push(&mut self, raw: &str, tokenizer: &Tokenizer, interner: &mut Interner) -> EntityId {
        let tokens = tokenizer.tokenize(raw, interner);
        self.push_from(raw, tokens.into_iter())
    }

    /// Appends a pre-tokenized entity.
    pub fn push_tokens(&mut self, raw: String, tokens: Vec<TokenId>) -> EntityId {
        self.push_from(&raw, tokens.into_iter())
    }

    /// Appends an entity from borrowed parts without intermediate
    /// allocations (the arenas absorb the bytes directly).
    pub fn push_from(&mut self, raw: &str, tokens: impl Iterator<Item = TokenId>) -> EntityId {
        let id = EntityId(u32::try_from(self.len()).expect("dictionary overflow"));
        self.raws.push_str(raw);
        self.raw_off.push(u32::try_from(self.raws.len()).expect("dictionary surface arena overflow"));
        self.tokens.extend(tokens);
        self.tok_off.push(u32::try_from(self.tokens.len()).expect("dictionary token arena overflow"));
        id
    }

    /// The four flat arenas backing the dictionary, in storage order:
    /// `(raws, raw_off, tokens, tok_off)`. The offset tables are prefix
    /// sums of `len() + 1` entries each, starting at 0.
    pub fn raw_arenas(&self) -> (&str, &[u32], &[TokenId], &[u32]) {
        (&self.raws, &self.raw_off, &self.tokens, &self.tok_off)
    }

    /// Reassembles a dictionary from the arenas [`Self::raw_arenas`]
    /// exposes, re-validating every invariant the push path maintains:
    /// matching offset tables forming monotone prefix sums that span their
    /// arenas, UTF-8 raw bytes cut at character boundaries, and token ids
    /// below `n_tokens`. The arenas move in unchanged — reassembly costs no
    /// per-entity work beyond the validation scans.
    pub fn from_raw_arenas(raws: Vec<u8>, raw_off: Vec<u32>, tokens: Vec<TokenId>, tok_off: Vec<u32>, n_tokens: u32) -> Result<Self, String> {
        if raw_off.len() != tok_off.len() {
            return Err(format!("offset tables disagree: {} raw offsets, {} token offsets", raw_off.len(), tok_off.len()));
        }
        let spans = |off: &[u32], len: usize, what: &str| -> Result<(), String> {
            let ok = len <= u32::MAX as usize
                && off.first() == Some(&0)
                && off.last() == Some(&(len as u32))
                && off.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]));
            if ok {
                Ok(())
            } else {
                Err(format!("{what} offsets are not a prefix sum spanning {len} elements"))
            }
        };
        spans(&raw_off, raws.len(), "surface")?;
        spans(&tok_off, tokens.len(), "token")?;
        let raws = String::from_utf8(raws).map_err(|e| format!("surface arena is not UTF-8: {e}"))?;
        if let Some(i) = raw_off.iter().position(|&o| !raws.is_char_boundary(o as usize)) {
            return Err(format!("surface offset {i} splits a UTF-8 character"));
        }
        if let Some(t) = tokens.iter().find(|t| t.0 >= n_tokens) {
            return Err(format!("entity token {:?} out of interner range {n_tokens}", t));
        }
        Ok(Self { raws, raw_off, tokens, tok_off })
    }

    /// The token sequence of entity `id`.
    pub fn entity(&self, id: EntityId) -> &[TokenId] {
        &self.tokens[self.tok_off[id.idx()] as usize..self.tok_off[id.idx() + 1] as usize]
    }

    /// The full record of entity `id`.
    pub fn record(&self, id: EntityId) -> Entity<'_> {
        Entity {
            raw: &self.raws[self.raw_off[id.idx()] as usize..self.raw_off[id.idx() + 1] as usize],
            tokens: self.entity(id),
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.tok_off.len() - 1
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, entity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Entity<'_>)> {
        (0..self.len()).map(|i| (EntityId(i as u32), self.record(EntityId(i as u32))))
    }

    /// Builds a dictionary from an iterator of raw strings.
    pub fn from_strings<'a, I>(raws: I, tokenizer: &Tokenizer, interner: &mut Interner) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut d = Self::new();
        for raw in raws {
            d.push(raw, tokenizer, interner);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut i = Interner::new();
        let t = Tokenizer::default();
        let mut d = Dictionary::new();
        let a = d.push("Purdue University USA", &t, &mut i);
        let b = d.push("UQ AU", &t, &mut i);
        assert_eq!(d.len(), 2);
        assert_eq!(d.entity(a).len(), 3);
        assert_eq!(d.entity(b).len(), 2);
        assert_eq!(d.record(a).raw, "Purdue University USA");
    }

    #[test]
    fn ids_are_dense() {
        let mut i = Interner::new();
        let t = Tokenizer::default();
        let d = Dictionary::from_strings(["a", "b", "c"], &t, &mut i);
        let ids: Vec<u32> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn shared_tokens_share_ids() {
        let mut i = Interner::new();
        let t = Tokenizer::default();
        let mut d = Dictionary::new();
        let a = d.push("University of Washington", &t, &mut i);
        let b = d.push("University of Queensland", &t, &mut i);
        assert_eq!(d.entity(a)[0], d.entity(b)[0]);
        assert_eq!(d.entity(a)[1], d.entity(b)[1]);
        assert_ne!(d.entity(a)[2], d.entity(b)[2]);
    }

    #[test]
    fn empty_entity_is_stored_but_empty() {
        let mut i = Interner::new();
        let t = Tokenizer::default();
        let mut d = Dictionary::new();
        let e = d.push("!!!", &t, &mut i);
        assert!(d.record(e).is_empty());
    }
}
