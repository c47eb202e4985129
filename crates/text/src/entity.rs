//! Entities and the reference dictionary.

use crate::interner::{Interner, TokenId};
use crate::runs::{Runs, StrArena};
use crate::tokenize::Tokenizer;
use aeetes_frozen::Arena;
use std::fmt;
use std::sync::Arc;

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

/// Consecutive entities in the four flat arenas of a dictionary: surface
/// bytes + offsets, tokens + offsets. The offsets are positions in the whole
/// dictionary's arenas, so a part continuing another starts where that one
/// ends, and parts concatenate with no offset rewritten.
#[derive(Debug)]
struct Part {
    /// Id of the part's first entity.
    first: u32,
    /// Entity `first + i`'s surface form is string `i`.
    raws: StrArena,
    /// Entity `first + i`'s token sequence is run `i`.
    tokens: Runs<TokenId>,
}

impl Part {
    /// An empty owned part continuing `prev` (or starting the dictionary).
    fn after(prev: Option<&Part>) -> Self {
        let (first, raw_end, tok_end) = prev.map_or((0, 0, 0), |p| (p.end(), p.raws.runs().end(), p.tokens.end()));
        Part { first, raws: StrArena::empty_at(raw_end), tokens: Runs::empty_at(tok_end) }
    }

    /// The owned concatenation of `parts`, each continuing the one before,
    /// with the last one's spare room.
    fn concat(parts: &[Arc<Part>]) -> Self {
        Part {
            first: parts[0].first,
            raws: StrArena::concat(parts.iter().map(|p| &p.raws)),
            tokens: Runs::concat(parts.iter().map(|p| &p.tokens)),
        }
    }

    fn len(&self) -> usize {
        self.tokens.len()
    }

    /// One past the id of the part's last entity.
    fn end(&self) -> u32 {
        self.first + self.len() as u32
    }

    /// Whether entities can be pushed onto the part in place.
    fn is_owned(&self) -> bool {
        self.raws.runs().is_owned() && self.tokens.is_owned()
    }

    fn record(&self, i: usize) -> Entity<'_> {
        Entity { raw: self.raws.get(i), tokens: self.tokens.get(i) }
    }
}

/// The reference entity table (the paper's dictionary `E0`).
///
/// Entities are stored in insertion order; [`EntityId`]s are dense indices.
/// Storage is four flat arenas (surface bytes + offsets, tokens + offsets)
/// rather than a `Vec` of per-entity records, held in `Arc`-shared *parts*
/// of consecutive entities. A part is owned or borrows a frozen artifact:
/// opening one adopts its dictionary as the first part with no copy. The
/// dictionary is append-only: a push lands in the last part when this
/// dictionary alone holds it and it is owned, and in a new part otherwise,
/// so a clone copies part pointers and a clone grown by a delta allocates
/// only what the delta adds. The newest part absorbs its owned predecessors
/// while a predecessor holds no more than twice the entities absorbed so far
/// (an adopted part stays where it is, in the artifact), so each owned part
/// holds more than twice the entities of the next: a dictionary has
/// `O(log len)` parts, and an entity is copied `O(log len)` times over any
/// sequence of pushes.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Never empty; the first starts at id 0 and each continues the one
    /// before.
    parts: Vec<Arc<Part>>,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self { parts: vec![Arc::new(Part::after(None))] }
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The part pushes land in: the last one if this dictionary alone holds
    /// it and it is owned, else a new one after it.
    fn writable(&mut self) -> &mut Part {
        let in_place = self.parts.last_mut().and_then(Arc::get_mut).is_some_and(|p| p.is_owned());
        if !in_place {
            let next = Part::after(self.parts.last().map(|p| &**p));
            self.parts.push(Arc::new(next));
        }
        Arc::get_mut(self.parts.last_mut().expect("parts")).expect("a part this dictionary alone holds")
    }

    /// Merges the newest part with the owned predecessors holding no more
    /// than twice the entities merged so far, in one copy.
    fn absorb(&mut self) {
        let mut from = self.parts.len() - 1;
        let mut merged = self.parts[from].len();
        while from > 0 && self.parts[from - 1].is_owned() && self.parts[from - 1].len() <= 2 * merged {
            from -= 1;
            merged += self.parts[from].len();
        }
        if from + 1 < self.parts.len() {
            let part = Part::concat(&self.parts[from..]);
            self.parts.truncate(from);
            self.parts.push(Arc::new(part));
        }
    }

    /// Makes room for exactly `entities` more entities of `tokens` tokens and
    /// `raw_bytes` surface bytes in all, so that a dictionary grown by a few
    /// entities holds no spare capacity.
    pub fn reserve_exact(&mut self, entities: usize, tokens: usize, raw_bytes: usize) {
        if entities == 0 {
            return;
        }
        let part = self.writable();
        part.raws.reserve_exact(raw_bytes, entities);
        part.tokens.reserve_exact(tokens, entities);
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
        let part = self.writable();
        part.raws.push(raw);
        part.tokens.push(tokens);
        self.absorb();
        id
    }

    /// The four flat arenas backing the dictionary, in storage order
    /// `(raws, raw_off, tokens, tok_off)`, as the runs its parts hold, first
    /// to last. Concatenating each arena over the runs gives the flat arena
    /// of the whole dictionary: the offset tables are prefix sums of
    /// `len() + 1` entries, starting at 0 (a run after the first leaves out
    /// the entry it shares with the one before).
    pub fn arena_runs(&self) -> impl Iterator<Item = (&[u8], &[u32], &[TokenId], &[u32])> {
        self.parts.iter().enumerate().map(|(k, p)| {
            let skip = usize::from(k > 0);
            let raws = p.raws.runs();
            (raws.items(), &raws.offsets()[skip..], p.tokens.items(), &p.tokens.offsets()[skip..])
        })
    }

    /// Heap bytes the dictionary's arenas own, shared parts included: 0 for
    /// a dictionary adopted from an artifact, until it grows.
    pub fn owned_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.raws.runs().owned_bytes() + p.tokens.owned_bytes()).sum()
    }

    /// Adopts the four flat arenas [`Self::arena_runs`] yields for a
    /// one-part dictionary as its one part, after validating every
    /// invariant the push path maintains: matching offset tables forming
    /// monotone prefix sums from 0 that span their arenas, UTF-8 raw bytes
    /// cut at character boundaries, and token ids below `n_tokens`. The
    /// arenas move in unchanged — frozen ones stay in the artifact, and
    /// adoption costs no per-entity work beyond the validation scans.
    pub fn from_raw_arenas(raws: Arena<u8>, raw_off: Arena<u32>, tokens: Arena<TokenId>, tok_off: Arena<u32>, n_tokens: u32) -> Result<Self, String> {
        if raw_off.len() != tok_off.len() {
            return Err(format!("offset tables disagree: {} raw offsets, {} token offsets", raw_off.len(), tok_off.len()));
        }
        let raws = StrArena::new(raws, raw_off, "surface form")?;
        let tokens = Runs::new(tokens, tok_off, "token")?;
        if let Some(t) = tokens.items().iter().find(|t| t.0 >= n_tokens) {
            return Err(format!("entity token {:?} out of interner range {n_tokens}", t));
        }
        Ok(Self { parts: vec![Arc::new(Part { first: 0, raws, tokens })] })
    }

    /// The part holding `id`, and `id`'s place in it.
    #[inline]
    fn locate(&self, id: EntityId) -> (&Part, usize) {
        let k = self.parts.partition_point(|p| p.first <= id.0) - 1;
        let part = &self.parts[k];
        (part, (id.0 - part.first) as usize)
    }

    /// The token sequence of entity `id`.
    pub fn entity(&self, id: EntityId) -> &[TokenId] {
        let (part, i) = self.locate(id);
        part.tokens.get(i)
    }

    /// The full record of entity `id`.
    pub fn record(&self, id: EntityId) -> Entity<'_> {
        let (part, i) = self.locate(id);
        part.record(i)
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.parts.last().map_or(0, |p| p.end() as usize)
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, entity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Entity<'_>)> {
        self.parts
            .iter()
            .flat_map(|p| (0..p.len()).map(move |i| (EntityId(p.first + i as u32), p.record(i))))
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
