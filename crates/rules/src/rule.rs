//! The synonym rule table.

use aeetes_text::{Interner, Runs, TokenId, Tokenizer};
use std::fmt;
use std::sync::Arc;

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

/// A borrowed view of a bidirectional synonym rule `⟨lhs ⇔ rhs⟩`, resolved
/// out of its [`RuleSet`]'s flat arenas.
///
/// Both sides are non-empty token sequences. `weight ∈ (0, 1]` supports the
/// weighted-rule extension (paper §8 future work); the classic semantics use
/// weight `1.0` everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule<'a> {
    /// Left-hand side tokens.
    pub lhs: &'a [TokenId],
    /// Right-hand side tokens.
    pub rhs: &'a [TokenId],
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

/// What every rule must be, pushed or read from an artifact.
fn check(lhs: &[TokenId], rhs: &[TokenId], weight: f64) -> Result<(), RuleError> {
    if lhs.is_empty() || rhs.is_empty() {
        return Err(RuleError::EmptySide);
    }
    if lhs == rhs {
        return Err(RuleError::Trivial);
    }
    if !(weight > 0.0 && weight <= 1.0) {
        return Err(RuleError::BadWeight(weight));
    }
    Ok(())
}

/// Which side of a rule matched inside an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Lhs,
    Rhs,
}

/// One rule side, filed under its first token with enough of it that a scan
/// of the bucket decides nearly every candidate without touching the rule —
/// almost every side is one or two tokens long — in 8 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    /// `2 · rule + side`: the side's index among the table's sides.
    side: u32,
    /// [`Head::SINGLE`] for a side of one token; else its second token,
    /// with [`Head::LONG`] set when more follow.
    second: u32,
}

impl Head {
    /// `second` of a one-token side: no token id reaches it.
    const SINGLE: u32 = u32::MAX;
    /// Set in `second` of a side of three or more tokens (token ids stay
    /// below 2³¹, [`TokenId::LIMIT`]).
    const LONG: u32 = TokenId::LIMIT;

    /// The head of the side numbered `side`, of `tokens`.
    fn new(side: u32, tokens: &[TokenId]) -> Self {
        let second = match tokens {
            [_, second] => second.0,
            [_, second, ..] => second.0 | Self::LONG,
            _ => Self::SINGLE,
        };
        Head { side, second }
    }

    pub(crate) fn rule(self) -> RuleId {
        RuleId(self.side / 2)
    }

    pub(crate) fn side(self) -> Side {
        if self.side.is_multiple_of(2) {
            Side::Lhs
        } else {
            Side::Rhs
        }
    }

    /// How many tokens of `rest` — an entity from the side's first token
    /// on — the side matches, if it does; `side_of` reads a long side's
    /// tokens once its first two have matched.
    #[inline]
    pub(crate) fn matches<'r>(self, rest: &[TokenId], side_of: impl FnOnce() -> &'r [TokenId]) -> Option<usize> {
        if self.second == Self::SINGLE {
            return Some(1);
        }
        if rest.get(1).is_none_or(|t| t.0 != self.second & !Self::LONG) {
            return None;
        }
        if self.second & Self::LONG == 0 {
            return Some(2);
        }
        let side = side_of();
        (side.len() <= rest.len() && rest[2..side.len()] == side[2..]).then_some(side.len())
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// [`Slot::EMPTY`] or a head token: no token id reaches it
    /// ([`TokenId::LIMIT`]).
    token: u32,
    start: u32,
    end: u32,
}

impl Slot {
    const EMPTY: Slot = Slot { token: u32::MAX, start: 0, end: 0 };
}

#[inline]
fn slot_hash(t: TokenId) -> usize {
    (u64::from(t.0).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize
}

/// The distinct tokens a lookup is built for, each given a dense place in
/// the order first handed, found through open-addressing slots behind a
/// bit filter: sized by how many tokens there are, not by their ids.
#[derive(Default)]
struct Places {
    /// `(token, place)`, [`Slot::EMPTY`]'s token where free: a power of two
    /// of them, at most half taken, so an empty slot ends every probe.
    slots: Vec<(u32, u32)>,
    len: usize,
    /// A bit per token id, wrapped to a power of two of words — no more
    /// than a word a token, no more than the ids handed need — set for each
    /// token placed: a side whose first token's bit is clear, most of those
    /// a delta's pass meets, is passed over without a probe.
    filter: Vec<u64>,
}

impl Places {
    fn of(tokens: impl IntoIterator<Item = TokenId>) -> Self {
        let mut places = Places::default();
        for t in tokens {
            if 2 * (places.len + 1) > places.slots.len() {
                let old = std::mem::replace(&mut places.slots, vec![(Slot::EMPTY.token, 0); (4 * (places.len + 1)).next_power_of_two()]);
                for (u, at) in old.into_iter().filter(|&(u, _)| u != Slot::EMPTY.token) {
                    let s = places.probe(TokenId(u));
                    places.slots[s] = (u, at);
                }
            }
            let s = places.probe(t);
            if places.slots[s].0 == Slot::EMPTY.token {
                places.slots[s] = (t.0, places.len as u32);
                places.len += 1;
            }
        }
        let ids = places.iter().map(|(t, _)| t.idx() + 1).max().unwrap_or(0);
        let mut filter = vec![0u64; (64 * places.len).min(ids).div_ceil(64).next_power_of_two()];
        let mask = 64 * filter.len() - 1;
        for (t, _) in places.iter() {
            filter[(t.idx() & mask) / 64] |= 1 << (t.idx() % 64);
        }
        places.filter = filter;
        places
    }

    /// Whether `t` may have been handed: false for most tokens that were
    /// not, true for every one that was.
    #[inline]
    fn may_hold(&self, t: TokenId) -> bool {
        let bit = t.idx() & (64 * self.filter.len() - 1);
        self.filter[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// The slot holding `t`, or the free one that would take it.
    #[inline]
    fn probe(&self, t: TokenId) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = slot_hash(t) & mask;
        while self.slots[s].0 != t.0 && self.slots[s].0 != Slot::EMPTY.token {
            s = (s + 1) & mask;
        }
        s
    }

    /// The place of `t`, if it was handed.
    #[inline]
    fn get(&self, t: TokenId) -> Option<usize> {
        if !self.may_hold(t) {
            return None;
        }
        let (u, at) = self.slots[self.probe(t)];
        (u == t.0).then_some(at as usize)
    }

    /// Every handed token with its place.
    fn iter(&self) -> impl Iterator<Item = (TokenId, usize)> + '_ {
        self.slots
            .iter()
            .filter(|&&(u, _)| u != Slot::EMPTY.token)
            .map(|&(u, at)| (TokenId(u), at as usize))
    }
}

/// The sides of a [`RuleSet`] by first token, for the tokens one derivation
/// holds: every side made only of those tokens — no other can occur in an
/// entity made of them — once, a token's sides together in rule-id order
/// (lhs before rhs), found through an open-addressing table.
///
/// A lookup is built for a derivation and dropped with it
/// ([`RuleSet::lookup`]): a delta's covers the few tokens of the origins it
/// changes, a build's the tokens of the dictionary, shared by its parts. No
/// table keeps one, so a served table that a delta derives from costs that
/// delta what its tokens make up, not a lookup over every rule.
#[derive(Debug)]
pub struct RuleLookup<'r> {
    rules: &'r RuleSet,
    heads: Vec<Head>,
    /// A power of two of slots, at least twice as many as head tokens, so an
    /// empty slot ends every probe: a head token and its range of `heads`;
    /// none when no side is filed.
    slots: Vec<Slot>,
}

impl<'r> RuleLookup<'r> {
    /// The lookup of `rules`' sides headed by a token of `places`: every
    /// side made only of its tokens — and, now and then, one whose later
    /// tokens only share filter bits with them, which no entity made of
    /// those tokens can match — or every such side when `every` is set. One
    /// pass over every side files the ones it keeps under their first
    /// token's place, and a counting pass lays them out by it — in the order
    /// the pass met them, so a token's sides stand in rule-id order, lhs
    /// before rhs.
    fn build(rules: &'r RuleSet, places: &Places, every: bool) -> Self {
        let mut filed: Vec<(u32, Head)> = Vec::new();
        let mut ends = vec![0u32; places.len + 1];
        for (first, part) in rules.parts() {
            // A part's offsets start at 0.
            let (items, offsets) = (part.sides.items(), part.sides.offsets());
            let sides = offsets.len() - 1;
            for base in (0..sides).step_by(64) {
                // Which of these 64 sides may start with a placed token: a
                // bit each, set without a branch, for the few the filter
                // lets through to be looked at one by one.
                let mut candidates = 0u64;
                for (i, &start) in offsets[base..sides.min(base + 64)].iter().enumerate() {
                    candidates |= u64::from(every || places.may_hold(items[start as usize])) << i;
                }
                while candidates != 0 {
                    let s = base + candidates.trailing_zeros() as usize;
                    candidates &= candidates - 1;
                    let side = &items[offsets[s] as usize..offsets[s + 1] as usize];
                    if !(every || side[1..].iter().all(|&t| places.may_hold(t))) {
                        continue;
                    }
                    if let Some(at) = places.get(side[0]) {
                        ends[at + 1] += 1;
                        filed.push((at as u32, Head::new(2 * first + s as u32, side)));
                    }
                }
            }
        }
        for at in 0..places.len {
            ends[at + 1] += ends[at];
        }
        let mut heads = vec![Head { side: 0, second: 0 }; filed.len()];
        let mut next = ends.clone();
        for (at, head) in filed {
            heads[next[at as usize] as usize] = head;
            next[at as usize] += 1;
        }
        let headed = || places.iter().filter(|&(_, at)| ends[at] < ends[at + 1]);
        let tokens = headed().count();
        let mut slots = if tokens == 0 {
            Vec::new()
        } else {
            vec![Slot::EMPTY; (2 * tokens).next_power_of_two()]
        };
        let mask = slots.len().wrapping_sub(1);
        for (t, at) in headed() {
            let mut s = slot_hash(t) & mask;
            while slots[s].token != Slot::EMPTY.token {
                s = (s + 1) & mask;
            }
            slots[s] = Slot { token: t.0, start: ends[at], end: ends[at + 1] };
        }
        Self { rules, heads, slots }
    }

    /// The table the lookup reads.
    pub fn rules(&self) -> &'r RuleSet {
        self.rules
    }

    /// The sides headed by `t` that the lookup filed; none for a token it
    /// was not built for.
    #[inline]
    pub(crate) fn heads(&self, t: TokenId) -> &[Head] {
        if self.slots.is_empty() {
            return &[];
        }
        let mask = self.slots.len() - 1;
        let mut s = slot_hash(t) & mask;
        loop {
            let slot = self.slots[s];
            if slot.token == t.0 {
                return &self.heads[slot.start as usize..slot.end as usize];
            }
            if slot.token == Slot::EMPTY.token {
                return &[];
            }
            s = (s + 1) & mask;
        }
    }
}

/// Consecutive rules: their sides as runs, rule `i`'s lhs run `2i` and its
/// rhs run `2i + 1`, with offsets from 0, so a part reads the same wherever
/// its rules' ids start.
#[derive(Debug)]
pub(crate) struct Part {
    sides: Runs<TokenId>,
    /// One per rule, or none while every rule of the part weighs `1.0`.
    weights: Vec<f64>,
}

impl Part {
    fn new() -> Self {
        Part { sides: Runs::empty_at(0), weights: Vec::new() }
    }

    fn len(&self) -> usize {
        self.sides.len() / 2
    }

    fn push(&mut self, lhs: &[TokenId], rhs: &[TokenId], weight: f64) {
        self.sides.push(lhs.iter().copied());
        self.sides.push(rhs.iter().copied());
        if weight != 1.0 || !self.weights.is_empty() {
            self.weights.resize(self.len() - 1, 1.0);
            self.weights.push(weight);
        }
    }

    /// The owned concatenation of `parts`.
    fn concat<'a>(parts: impl Iterator<Item = &'a Part> + Clone) -> Self {
        let (rules, tokens) = parts.clone().fold((0, 0), |(r, t), p| (r + p.len(), t + p.sides.items().len()));
        let mut out = Part::new();
        out.sides.reserve_exact(tokens, 2 * rules);
        for p in parts {
            for i in 0..p.len() {
                let rule = p.rule(i);
                out.push(rule.lhs, rule.rhs, rule.weight);
            }
        }
        out
    }

    #[inline]
    fn side(&self, rule: u32, side: Side) -> &[TokenId] {
        self.sides.get(2 * rule as usize + side as usize)
    }

    fn rule(&self, i: usize) -> Rule<'_> {
        Rule {
            lhs: self.sides.get(2 * i),
            rhs: self.sides.get(2 * i + 1),
            weight: self.weights.get(i).copied().unwrap_or(1.0),
        }
    }

    fn owned_bytes(&self) -> usize {
        self.sides.owned_bytes() + 8 * self.weights.capacity()
    }
}

/// A table of synonym rules.
///
/// Storage is flat: each rule's two sides are runs of one token arena, held
/// in `Arc`-shared *parts* of consecutive rules, so a clone copies part
/// pointers and a clone grown by a delta allocates only the rules it adds.
/// A push lands in the last part when this table alone holds it, and in a
/// new part otherwise; the newest part absorbs its predecessors while one
/// holds no more than twice the rules absorbed so far, so a table has
/// `O(log len)` parts, and a rule is copied `O(log len)` times over any
/// sequence of pushes.
///
/// A derivation looks sides up by first token through a [`RuleLookup`] it
/// builds for the tokens of the origins it derives and drops when done, so
/// scanning an entity for applicable rules costs `O(|e| · avg bucket)`
/// instead of `O(|e| · |R|)`, and the table keeps nothing for it.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Each part with the id of its first rule; each continues the one
    /// before, the first at 0.
    parts: Vec<(u32, Arc<Part>)>,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule from raw strings with weight `1.0`.
    pub fn push_str(&mut self, lhs: &str, rhs: &str, tokenizer: &Tokenizer, interner: &mut Interner) -> Result<RuleId, RuleError> {
        self.push_weighted_str(lhs, rhs, 1.0, tokenizer, interner)
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
        self.push_tokens(&l, &r, weight)
    }

    /// Adds a pre-tokenized rule.
    pub fn push_tokens(&mut self, lhs: &[TokenId], rhs: &[TokenId], weight: f64) -> Result<RuleId, RuleError> {
        check(lhs, rhs, weight)?;
        let id = RuleId(u32::try_from(self.len()).expect("rule set overflow"));
        if self.parts.last_mut().is_none_or(|(_, p)| Arc::get_mut(p).is_none()) {
            self.parts.push((id.0, Arc::new(Part::new())));
        }
        let (_, last) = self.parts.last_mut().expect("a part to push into");
        Arc::get_mut(last).expect("a part this table alone holds").push(lhs, rhs, weight);
        self.absorb();
        Ok(id)
    }

    /// Appends the rules of `other`, their ids continuing this table's: its
    /// parts move in as they are, then merge as pushes merge them.
    pub fn append(&mut self, other: RuleSet) {
        for (_, part) in other.parts {
            let first = u32::try_from(self.len()).expect("rule set overflow");
            self.parts.push((first, part));
            self.absorb();
        }
    }

    /// Merges the newest part with the predecessors holding no more than
    /// twice the rules merged so far, in one copy.
    fn absorb(&mut self) {
        let mut from = self.parts.len() - 1;
        let mut merged = self.parts[from].1.len();
        while from > 0 && self.parts[from - 1].1.len() <= 2 * merged {
            from -= 1;
            merged += self.parts[from].1.len();
        }
        if from + 1 < self.parts.len() {
            let part = Part::concat(self.parts[from..].iter().map(|(_, p)| &**p));
            let first = self.parts[from].0;
            self.parts.truncate(from);
            self.parts.push((first, Arc::new(part)));
        }
    }

    /// The part holding `id`, and `id`'s index in it.
    #[inline]
    fn locate(&self, id: RuleId) -> (&Part, u32) {
        let k = self.parts.partition_point(|&(first, _)| first <= id.0) - 1;
        let (first, part) = &self.parts[k];
        (part, id.0 - first)
    }

    /// The parts, each with the id of its first rule.
    fn parts(&self) -> impl Iterator<Item = (u32, &Part)> {
        self.parts.iter().map(|(first, p)| (*first, &**p))
    }

    /// The lookup of the sides made only of `tokens` — those of the origins
    /// a derivation is about to expand, in any order and repeated as often
    /// as they stand: no other side occurs in those origins. Sized by the
    /// distinct tokens handed and the sides they make up; built in one pass
    /// over every side.
    pub fn lookup(&self, tokens: impl IntoIterator<Item = TokenId>) -> RuleLookup<'_> {
        RuleLookup::build(self, &Places::of(tokens), false)
    }

    /// The lookup of every side: for scanning entities a derivation did not
    /// hand in, as a delta scans the dictionary for the origins its few new
    /// rules reach. Sized by the sides and their distinct first tokens.
    pub fn lookup_all(&self) -> RuleLookup<'_> {
        let firsts = self
            .parts()
            .flat_map(|(_, p)| p.sides.offsets()[..p.sides.len()].iter().map(|&o| p.sides.items()[o as usize]));
        RuleLookup::build(self, &Places::of(firsts), true)
    }

    /// The rule with id `id`.
    pub fn rule(&self, id: RuleId) -> Rule<'_> {
        let (part, i) = self.locate(id);
        part.rule(i as usize)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.parts.last().map_or(0, |(first, p)| *first as usize + p.len())
    }

    /// Whether the set contains no rules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, rule)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, Rule<'_>)> {
        self.parts
            .iter()
            .flat_map(|(first, p)| (0..p.len()).map(move |i| (RuleId(first + i as u32), p.rule(i))))
    }

    /// The token sequence of the given side of rule `id`.
    pub fn side_of(&self, id: RuleId, side: Side) -> &[TokenId] {
        let (part, i) = self.locate(id);
        part.side(i, side)
    }

    /// The token sequence of the side *opposite* to `side` of rule `id` —
    /// i.e. what an [`crate::Application`] on `side` rewrites the match to.
    pub fn other_side_of(&self, id: RuleId, side: Side) -> &[TokenId] {
        let other = match side {
            Side::Lhs => Side::Rhs,
            Side::Rhs => Side::Lhs,
        };
        self.side_of(id, other)
    }

    /// The sides of each part, first to last: its rules' lhs and rhs runs
    /// back to back and their `2 · rules + 1` offsets, from 0. Run together
    /// — each part's offsets moved past the sides before it — they are the
    /// flat form [`Self::from_flat`] reads.
    pub fn part_sides(&self) -> impl Iterator<Item = (&[TokenId], &[u32])> {
        self.parts.iter().map(|(_, p)| (p.sides.items(), p.sides.offsets()))
    }

    /// One weight per rule in id order, or none when every rule weighs
    /// `1.0`.
    pub fn weights(&self) -> Vec<f64> {
        if self.parts.iter().all(|(_, p)| p.weights.is_empty()) {
            return Vec::new();
        }
        self.iter().map(|(_, r)| r.weight).collect()
    }

    /// Heap bytes the table owns, shared parts included: sides, offsets and
    /// weights.
    pub fn owned_bytes(&self) -> usize {
        self.parts.iter().map(|(_, p)| p.owned_bytes()).sum()
    }

    /// Reads a table from its flat form, at either stored width: `sides`
    /// holds every rule's lhs run and then its rhs run, in id order,
    /// `side_off` the `2 · rules + 1` offsets cutting them, and `weight` one
    /// weight per rule or none for unit weights. Every invariant a push
    /// keeps is checked — offsets from 0, monotone, ending at the last side
    /// token; no empty side, no rule rewriting a sequence to itself, weights
    /// in `(0, 1]`; token ids below `n_tokens` — and the arrays are widened
    /// into one owned part. Errors name the array at fault as an artifact's
    /// sections do: `rules.sides`, `rules.side_off`, `rules.weight`.
    pub fn from_flat<S: Copy + Into<u32>>(sides: &[S], side_off: &[S], weight: &[f64], n_tokens: u32) -> Result<Self, String> {
        let items: Vec<TokenId> = sides.iter().map(|&t| TokenId(t.into())).collect();
        let offsets: Vec<u32> = side_off.iter().map(|&o| o.into()).collect();
        let runs = Runs::new(items.into(), offsets.into(), "side").map_err(|e| format!("rules.side_off: {e}"))?;
        if runs.len() % 2 != 0 {
            return Err(format!("rules.side_off holds {} offsets, not two per rule and one more", side_off.len()));
        }
        let rules = runs.len() / 2;
        if let Some(t) = runs.items().iter().find(|t| t.0 >= n_tokens) {
            return Err(format!("rules.sides: token {t:?} out of interner range {n_tokens}"));
        }
        if !weight.is_empty() && weight.len() != rules {
            return Err(format!("rules.weight holds {} entries, expected none or {rules}", weight.len()));
        }
        let part = Part { sides: runs, weights: weight.to_vec() };
        for i in 0..rules {
            let rule = part.rule(i);
            check(rule.lhs, rule.rhs, rule.weight).map_err(|e| match e {
                RuleError::EmptySide => format!("rules.sides: rule {i} has an empty side"),
                RuleError::Trivial => format!("rules.sides: rule {i} rewrites a sequence to itself"),
                RuleError::BadWeight(w) => format!("rules.weight: rule {i} weight {w} outside (0, 1]"),
            })?;
        }
        Ok(Self { parts: if rules == 0 { Vec::new() } else { vec![(0, Arc::new(part))] } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Interner, Tokenizer, RuleSet) {
        (Interner::new(), Tokenizer::default(), RuleSet::new())
    }

    fn heads(rs: &RuleSet, t: TokenId) -> Vec<(u32, Side, u32, TokenId)> {
        let lookup = rs.lookup_all();
        let side = |h: &Head| rs.side_of(h.rule(), h.side());
        lookup
            .heads(t)
            .iter()
            .map(|h| (h.rule().0, h.side(), side(h).len() as u32, side(h).get(1).copied().unwrap_or(t)))
            .collect()
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
        assert_eq!(heads(&rs, uw), [(0, Side::Lhs, 1, uw)]);
        assert_eq!(heads(&rs, uni), [(0, Side::Rhs, 3, i.get("of").unwrap())]);
        assert!(heads(&rs, i.get("washington").unwrap()).is_empty());
    }

    #[test]
    fn other_side_flips() {
        let (mut i, t, mut rs) = setup();
        let id = rs.push_str("NY", "New York", &t, &mut i).unwrap();
        let ny = i.get("ny").unwrap();
        assert_eq!(rs.side_of(id, Side::Lhs), &[ny]);
        assert_eq!(rs.other_side_of(id, Side::Rhs), &[ny]);
    }

    /// A clone grown by pushes or an appended table keeps its source's parts
    /// and ids; the appended part's lookup reports the ids it now has.
    #[test]
    fn appended_rules_continue_the_ids() {
        let (mut i, t, mut rs) = setup();
        for k in 0..8 {
            rs.push_str(&format!("a{k}"), &format!("b{k}"), &t, &mut i).unwrap();
        }
        let mut fresh = RuleSet::new();
        fresh.push_weighted_str("a0", "c", 0.5, &t, &mut i).unwrap();
        let mut grown = rs.clone();
        grown.append(fresh);
        assert_eq!((grown.len(), grown.part_sides().count(), rs.len()), (9, 2, 8));
        let a0 = i.get("a0").unwrap();
        assert_eq!(heads(&grown, a0).iter().map(|h| h.0).collect::<Vec<_>>(), [0, 8]);
        assert_eq!(grown.rule(RuleId(8)).weight, 0.5);
        assert_eq!(grown.weights().len(), 9);
        assert!(rs.weights().is_empty());
    }
}
