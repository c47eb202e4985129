//! The synonym rule table.

use aeetes_text::{Interner, TokenId, Tokenizer};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a rule in a [`RuleSet`].
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

impl RuleId {
    /// The id as a usize, for indexing side tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A bidirectional synonym rule `⟨lhs ⇔ rhs⟩`.
///
/// Both sides are non-empty token sequences. `weight ∈ (0, 1]` supports the
/// weighted-rule extension (paper §8 future work); the classic semantics use
/// weight `1.0` everywhere.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Left-hand side tokens.
    pub lhs: Vec<TokenId>,
    /// Right-hand side tokens.
    pub rhs: Vec<TokenId>,
    /// Confidence weight in `(0, 1]`; `1.0` for classic (unweighted) rules.
    pub weight: f64,
}

/// Errors when inserting rules.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// A rule side tokenized to zero tokens.
    EmptySide,
    /// Both sides are the identical token sequence (the rule is a no-op).
    Trivial,
    /// The weight is not in `(0, 1]`.
    BadWeight(f64),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::EmptySide => write!(f, "rule side tokenizes to zero tokens"),
            RuleError::Trivial => write!(f, "rule rewrites a sequence to itself"),
            RuleError::BadWeight(w) => write!(f, "rule weight {w} outside (0, 1]"),
        }
    }
}

impl std::error::Error for RuleError {}

/// A table of synonym rules with a first-token lookup index.
///
/// The index maps the first token of every rule side to the `(rule, side)`
/// pairs starting with it, so scanning an entity for applicable rules costs
/// `O(|e| · avg bucket)` instead of `O(|e| · |R|)`.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    /// first token of a side → the sides starting there
    heads: HashMap<TokenId, Vec<Head>, std::hash::BuildHasherDefault<TokenIdHasher>>,
}

/// One rule side, filed under its first token with enough of it that a scan
/// of the bucket decides nearly every candidate without touching the rule: a
/// common first token heads hundreds of sides, almost all of them one or two
/// tokens long.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    pub(crate) rule: RuleId,
    pub(crate) side: Side,
    /// Tokens on the side.
    pub(crate) len: u32,
    /// The side's second token (its first again when that is all of it).
    pub(crate) second: TokenId,
}

/// Mixes the single `u32` of a [`TokenId`] key (splitmix64 finalizer) —
/// SipHash shows up in rule-set reassembly on the frozen open path, and
/// `heads` never hashes anything but token ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenIdHasher(u64);

impl std::hash::Hasher for TokenIdHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | b as u64;
        }
    }
    fn write_u32(&mut self, i: u32) {
        self.0 = i as u64;
    }
}

/// Which side of a rule matched inside an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Lhs,
    Rhs,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates for `n` more rules (a deserializer's bulk-load hint).
    pub fn reserve(&mut self, n: usize) {
        self.rules.reserve(n);
        self.heads.reserve(n);
    }

    /// Adds a rule from raw strings with weight `1.0`.
    pub fn push_str(&mut self, lhs: &str, rhs: &str, tokenizer: &Tokenizer, interner: &mut Interner) -> Result<RuleId, RuleError> {
        let l = tokenizer.tokenize(lhs, interner);
        let r = tokenizer.tokenize(rhs, interner);
        self.push_tokens(l, r, 1.0)
    }

    /// Adds a weighted rule from raw strings.
    pub fn push_weighted_str(
        &mut self,
        lhs: &str,
        rhs: &str,
        weight: f64,
        tokenizer: &Tokenizer,
        interner: &mut Interner,
    ) -> Result<RuleId, RuleError> {
        let l = tokenizer.tokenize(lhs, interner);
        let r = tokenizer.tokenize(rhs, interner);
        self.push_tokens(l, r, weight)
    }

    /// Adds a pre-tokenized rule.
    pub fn push_tokens(&mut self, lhs: Vec<TokenId>, rhs: Vec<TokenId>, weight: f64) -> Result<RuleId, RuleError> {
        if lhs.is_empty() || rhs.is_empty() {
            return Err(RuleError::EmptySide);
        }
        if lhs == rhs {
            return Err(RuleError::Trivial);
        }
        if !(weight > 0.0 && weight <= 1.0) {
            return Err(RuleError::BadWeight(weight));
        }
        let id = RuleId(u32::try_from(self.rules.len()).expect("rule set overflow"));
        for (side, tokens) in [(Side::Lhs, &lhs), (Side::Rhs, &rhs)] {
            let head = Head {
                rule: id,
                side,
                len: tokens.len() as u32,
                second: tokens[tokens.len().min(2) - 1],
            };
            self.heads.entry(tokens[0]).or_default().push(head);
        }
        self.rules.push(Rule { lhs, rhs, weight });
        Ok(id)
    }

    /// The rule with id `id`.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.idx()]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set contains no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over `(id, rule)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules.iter().enumerate().map(|(i, r)| (RuleId(i as u32), r))
    }

    /// The token sequence of the given side of rule `id` (public accessor).
    pub fn side_of(&self, id: RuleId, side: Side) -> &[TokenId] {
        self.side(id, side)
    }

    /// The token sequence of the side *opposite* to `side` of rule `id` —
    /// i.e. what an [`crate::Application`] on `side` rewrites the match to.
    pub fn other_side_of(&self, id: RuleId, side: Side) -> &[TokenId] {
        self.other_side(id, side)
    }

    /// The sides that start with token `t`.
    pub(crate) fn heads(&self, t: TokenId) -> &[Head] {
        self.heads.get(&t).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The token sequence of the given side of rule `id`.
    pub(crate) fn side(&self, id: RuleId, side: Side) -> &[TokenId] {
        let r = self.rule(id);
        match side {
            Side::Lhs => &r.lhs,
            Side::Rhs => &r.rhs,
        }
    }

    /// The token sequence of the *opposite* side of rule `id`.
    pub(crate) fn other_side(&self, id: RuleId, side: Side) -> &[TokenId] {
        let r = self.rule(id);
        match side {
            Side::Lhs => &r.rhs,
            Side::Rhs => &r.lhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Interner, Tokenizer, RuleSet) {
        (Interner::new(), Tokenizer::default(), RuleSet::new())
    }

    #[test]
    fn push_and_lookup() {
        let (mut i, t, mut rs) = setup();
        let id = rs.push_str("Big Apple", "New York", &t, &mut i).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rule(id).lhs.len(), 2);
        assert_eq!(rs.rule(id).rhs.len(), 2);
        assert_eq!(rs.rule(id).weight, 1.0);
    }

    #[test]
    fn empty_side_rejected() {
        let (mut i, t, mut rs) = setup();
        assert_eq!(rs.push_str("", "New York", &t, &mut i), Err(RuleError::EmptySide));
        assert_eq!(rs.push_str("NY", "...", &t, &mut i), Err(RuleError::EmptySide));
    }

    #[test]
    fn trivial_rule_rejected() {
        let (mut i, t, mut rs) = setup();
        assert_eq!(rs.push_str("usa", "USA", &t, &mut i), Err(RuleError::Trivial));
    }

    #[test]
    fn bad_weight_rejected() {
        let (mut i, t, mut rs) = setup();
        assert!(matches!(rs.push_weighted_str("a", "b", 0.0, &t, &mut i), Err(RuleError::BadWeight(_))));
        assert!(matches!(rs.push_weighted_str("a", "b", 1.5, &t, &mut i), Err(RuleError::BadWeight(_))));
        assert!(rs.push_weighted_str("a", "b", 0.5, &t, &mut i).is_ok());
    }

    #[test]
    fn heads_index_both_sides() {
        let (mut i, t, mut rs) = setup();
        rs.push_str("UW", "University of Washington", &t, &mut i).unwrap();
        let uw = i.get("uw").unwrap();
        let uni = i.get("university").unwrap();
        assert_eq!(rs.heads(uw).len(), 1);
        assert_eq!(rs.heads(uni).len(), 1);
        assert_eq!((rs.heads(uw)[0].side, rs.heads(uw)[0].len, rs.heads(uw)[0].second), (Side::Lhs, 1, uw));
        assert_eq!((rs.heads(uni)[0].side, rs.heads(uni)[0].len, rs.heads(uni)[0].second), (Side::Rhs, 3, i.get("of").unwrap()));
    }

    #[test]
    fn other_side_flips() {
        let (mut i, t, mut rs) = setup();
        let id = rs.push_str("NY", "New York", &t, &mut i).unwrap();
        let ny = i.get("ny").unwrap();
        assert_eq!(rs.side(id, Side::Lhs), &[ny]);
        assert_eq!(rs.other_side(id, Side::Rhs), &[ny]);
    }
}
