//! String interning: maps tokens to dense `u32` ids and back.

use std::collections::HashMap;
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

/// A read-only table of interned strings an [`Interner`] can layer an
/// append-only overlay on top of. Implemented by the frozen (mmap-backed)
/// string table so that opening an artifact costs no per-string allocation.
pub trait StringTable: Send + Sync + fmt::Debug {
    /// Number of strings; ids `0..len` are resolvable.
    fn len(&self) -> usize;
    /// Whether the table is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Looks up a string, returning its id if present.
    fn lookup(&self, s: &str) -> Option<TokenId>;
    /// The string for id `id` (which must be `< len`).
    fn resolve(&self, id: u32) -> &str;
}

/// An append-only string interner.
///
/// Tokens are stored once; lookups in both directions are O(1) (amortized for
/// the string → id direction). The interner is deliberately append-only:
/// downstream structures cache `TokenId`s and rely on them never being
/// invalidated.
///
/// An interner can be layered over a read-only [`StringTable`] base (the
/// frozen path): ids below the base length resolve from the base with zero
/// copies, and newly interned strings go to a heap overlay starting at the
/// next id. Cloning such an interner clones only the overlay.
#[derive(Default, Clone)]
pub struct Interner {
    base: Option<Arc<dyn StringTable>>,
    base_len: u32,
    map: HashMap<Box<str>, TokenId>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner layered over a read-only base table. Ids
    /// `0..base.len()` resolve from the base; fresh strings are assigned ids
    /// starting at `base.len()`.
    pub fn with_base(base: Arc<dyn StringTable>) -> Self {
        let base_len = u32::try_from(base.len())
            .ok()
            .filter(|&n| n <= TokenId::LIMIT)
            .expect("base string table overflows the token id space");
        Self { base: Some(base), base_len, map: HashMap::new(), strings: Vec::new() }
    }

    /// Interns `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> TokenId {
        if let Some(id) = self.base.as_ref().and_then(|b| b.lookup(s)) {
            return id;
        }
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let next = (self.base_len as usize)
            .checked_add(self.strings.len())
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n < TokenId::LIMIT)
            .expect("interner overflow: more than 2^31 distinct tokens");
        let id = TokenId(next);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, id);
        id
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<TokenId> {
        if let Some(id) = self.base.as_ref().and_then(|b| b.lookup(s)) {
            return Some(id);
        }
        self.map.get(s).copied()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: TokenId) -> &str {
        if id.0 < self.base_len {
            return self.base.as_ref().expect("base_len > 0 implies a base").resolve(id.0);
        }
        &self.strings[(id.0 - self.base_len) as usize]
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.base_len as usize + self.strings.len()
    }

    /// Whether no token has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all interned strings in id order (id 0 first). Useful for
    /// serialization: re-interning them in order reproduces identical ids.
    pub fn iter_strings(&self) -> impl Iterator<Item = &str> {
        let base = self.base.as_deref();
        (0..self.base_len)
            .map(move |i| base.expect("base ids imply a base").resolve(i))
            .chain(self.strings.iter().map(|s| s.as_ref()))
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
        f.debug_struct("Interner").field("len", &self.len()).field("overlay", &self.strings.len()).finish()
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

    /// A toy heap-backed base table for overlay tests.
    #[derive(Debug)]
    struct VecTable(Vec<String>);

    impl StringTable for VecTable {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn lookup(&self, s: &str) -> Option<TokenId> {
            self.0.iter().position(|x| x == s).map(|i| TokenId(i as u32))
        }
        fn resolve(&self, id: u32) -> &str {
            &self.0[id as usize]
        }
    }

    fn based() -> Interner {
        Interner::with_base(Arc::new(VecTable(vec!["alpha".into(), "beta".into()])))
    }

    #[test]
    fn overlay_resolves_base_ids() {
        let i = based();
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(TokenId(0)), "alpha");
        assert_eq!(i.get("beta"), Some(TokenId(1)));
    }

    #[test]
    fn overlay_interns_above_base() {
        let mut i = based();
        assert_eq!(i.intern("alpha"), TokenId(0), "base hit does not allocate");
        let g = i.intern("gamma");
        assert_eq!(g, TokenId(2));
        assert_eq!(i.resolve(g), "gamma");
        assert_eq!(i.intern("gamma"), g);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn overlay_iter_strings_covers_base_and_overlay() {
        let mut i = based();
        i.intern("gamma");
        let all: Vec<&str> = i.iter_strings().collect();
        assert_eq!(all, vec!["alpha", "beta", "gamma"]);
    }
}
