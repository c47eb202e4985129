//! The global token order `O` (paper §3.2).

use aeetes_frozen::Arena;
use aeetes_rules::{each_distinct_token, DerivedDictionary};
use aeetes_text::{Interner, TokenId};
use std::sync::Arc;

/// Bit 31 of a key: set exactly when the token is valid (occurs in some
/// derived entity). The low 31 bits of a valid key are the token's rank;
/// an invalid token keys as its own id, which [`TokenId::LIMIT`] keeps
/// below this bit — so every invalid key sorts before every valid one.
pub const VALID_BIT: u32 = TokenId::LIMIT;

/// Ascending-frequency global order over tokens.
///
/// A token's *frequency* is the number of derived entities whose distinct
/// token set contains it. Valid tokens are ranked densely in ascending
/// `(frequency, token string)` order and keyed `VALID_BIT | rank`: smaller
/// key ⇒ rarer ⇒ earlier in every sorted prefix. Equal-frequency tokens
/// tie-break by their *string* rather than their interner id, so two builds
/// that intern the same vocabulary in different insertion orders (e.g. a
/// monolithic build vs. a partitioned one) still produce identical
/// prefixes. Tokens that appear in no derived entity (the paper's *invalid*
/// tokens, including tokens interned after the index was built) key as
/// their own id and therefore sort before all valid tokens — harmless,
/// because their posting lists are empty. The frequencies rank the tokens
/// and are then let go: validity is the key's `VALID_BIT`.
///
/// The two flat arrays live in [`Arena`]s — heap vectors when built in
/// memory, zero-copy windows into the file image when opened from a frozen
/// artifact — behind an `Arc` that every order extended from them shares.
/// An extension ([`GlobalOrder::extend_with`]) keeps the tokens it admits in
/// a small overlay beside them, read only where the flat key says
/// "invalid".
#[derive(Debug, Clone, Default)]
pub struct GlobalOrder {
    flat: Arc<Flat>,
    /// The tokens extensions admitted, none in a built or opened order.
    overlay: Overlay,
}

/// The order as it was built or opened.
#[derive(Debug, Default)]
struct Flat {
    /// token idx → key: `VALID_BIT | rank` for a valid token, the token's
    /// own id elsewhere.
    key: Arena<u32>,
    /// rank → token, inverse of `key` (valid tokens only).
    untie: Arena<TokenId>,
}

/// What extensions added to a [`Flat`] order: the admitted tokens, each
/// invalid in the flat arrays, by rank — their ranks continue the flat
/// `untie` — and by token, sorted, for a binary search.
#[derive(Debug, Clone, Default)]
struct Overlay {
    /// Rank `flat.untie.len() + i` → token.
    untie: Vec<TokenId>,
    /// `(token, key)` per admitted token, by token.
    keys: Vec<(TokenId, u32)>,
}

/// Per-token count of the derived entities of `dd` whose distinct set
/// contains the token: one pass, over ids `0..tokens` and as far past that
/// as an occurring token reaches.
///
/// # Panics
/// Panics when a token id reaches [`TokenId::LIMIT`] — such an id cannot
/// come from an [`Interner`], and its key would collide with `VALID_BIT`.
fn count_frequencies(dd: &DerivedDictionary, tokens: usize) -> Vec<u32> {
    let mut freq = vec![0u32; tokens];
    let mut sorted: Vec<TokenId> = Vec::new();
    for (_, d) in dd.iter() {
        each_distinct_token(d.tokens, &mut sorted, |t| {
            if t.idx() >= freq.len() {
                assert!(t.0 < TokenId::LIMIT, "token id {} is outside the 2^31 id space", t.0);
                freq.resize(t.idx() + 1, 0);
            }
            freq[t.idx()] += 1;
        });
    }
    freq
}

impl GlobalOrder {
    /// Builds the order from a derived dictionary. The interner must be the
    /// one the dictionary was tokenized with; it supplies the tie-break
    /// strings.
    pub fn build(dd: &DerivedDictionary, interner: &Interner) -> Self {
        Self::from_frequencies(count_frequencies(dd, interner.len()), interner)
    }

    /// The order of a dictionary of which only the token frequencies are in
    /// hand: `freq[t]` derived entities hold token `t` in their distinct set
    /// (a build sums one such array per part). The order spans
    /// the ids up to the last token that occurs at all.
    ///
    /// # Panics
    /// Panics when a token id at or past [`TokenId::LIMIT`] occurs.
    pub fn from_frequencies(mut freq: Vec<u32>, interner: &Interner) -> Self {
        freq.truncate(freq.iter().rposition(|&f| f > 0).map_or(0, |last| last + 1));
        assert!(freq.len() <= TokenId::LIMIT as usize, "token id {} is outside the 2^31 id space", freq.len() - 1);
        let mut fresh: Vec<(u32, TokenId)> = (0..freq.len() as u32)
            .map(TokenId)
            .filter(|t| freq[t.idx()] > 0)
            .map(|t| (freq[t.idx()], t))
            .collect();
        drop(freq);
        let mut key: Vec<u32> = (0..fresh.last().map_or(0, |&(_, t)| t.0 + 1)).collect();
        let mut untie = Vec::with_capacity(fresh.len());
        rank(&mut fresh, interner, |t| {
            key[t.idx()] = VALID_BIT | untie.len() as u32;
            untie.push(t);
        });
        Self {
            flat: Arc::new(Flat { key: key.into(), untie: untie.into() }),
            overlay: Overlay::default(),
        }
    }

    /// Extends the order with the tokens that `delta` — frequencies counted
    /// over a delta's fresh variants, as for
    /// [`GlobalOrder::from_frequencies`] — holds and this order does not,
    /// keeping every existing key frozen (append-only).
    ///
    /// This is the delta path: a generation update must not re-key tokens
    /// that the shared base already indexed, so existing keys are left
    /// untouched and only previously-invalid tokens are admitted, ranked by
    /// their frequency as `delta` counts it after all existing ranks — new
    /// vocabulary sorts last until the next full build. The resulting order
    /// drifts from the true corpus frequencies — that affects prefix sizes
    /// (performance), never correctness; a full rebuild re-keys everything.
    ///
    /// Returns `None` when `delta` admits no token: the order is unchanged
    /// and the caller keeps sharing `self`. Otherwise the result shares this
    /// order's flat arrays, mapped or not, and holds the admitted tokens in
    /// an overlay beside them: this order's overlay copied, the new ones
    /// added. Nothing is allocated per token id.
    ///
    /// # Panics
    /// Panics when a token id at or past [`TokenId::LIMIT`] occurs.
    pub fn extend_with(&self, delta: impl IntoIterator<Item = (TokenId, u32)>, interner: &Interner) -> Option<Self> {
        let mut fresh: Vec<(u32, TokenId)> = delta.into_iter().filter(|&(t, n)| n > 0 && !self.is_valid(t)).map(|(t, n)| (n, t)).collect();
        if fresh.is_empty() {
            return None;
        }
        assert!(fresh.iter().all(|&(_, t)| t.0 < TokenId::LIMIT), "a token id is outside the 2^31 id space");
        let mut untie = Vec::with_capacity(self.overlay.untie.len() + fresh.len());
        untie.extend_from_slice(&self.overlay.untie);
        rank(&mut fresh, interner, |t| untie.push(t));
        Some(Self { flat: Arc::clone(&self.flat), overlay: Overlay::of(untie, self.flat.untie.len()) })
    }

    /// This order with its overlay folded into flat heap arrays — what a
    /// compaction keys the whole index it builds by, and what an artifact
    /// stores — or `None` when it has no overlay. Keys, ranks and validity
    /// are those of `self`.
    pub fn flattened(&self) -> Option<Self> {
        if self.overlay.untie.is_empty() {
            return None;
        }
        let tokens = self.tokens();
        let mut key = Vec::with_capacity(tokens);
        key.extend_from_slice(&self.flat.key);
        key.extend(self.flat.key.len() as u32..tokens as u32);
        for (rank, &t) in (self.flat.untie.len()..).zip(&self.overlay.untie) {
            key[t.idx()] = VALID_BIT | rank as u32;
        }
        let mut untie = Vec::with_capacity(self.ranks());
        untie.extend_from_slice(&self.flat.untie);
        untie.extend_from_slice(&self.overlay.untie);
        Some(Self {
            flat: Arc::new(Flat { key: key.into(), untie: untie.into() }),
            overlay: Overlay::default(),
        })
    }

    /// Reassembles an order from raw (possibly frozen) arenas, validating
    /// the key space: at most 2³¹ tokens, `untie` holding exactly the tokens
    /// keyed valid, each in range, with `key` as its `VALID_BIT`-tagged
    /// inverse, and every invalid token keyed as its own id.
    ///
    /// # Errors
    /// Returns a message describing the first violated invariant.
    pub fn from_raw_parts(key: Arena<u32>, untie: Arena<TokenId>) -> Result<Self, String> {
        if key.len() > TokenId::LIMIT as usize {
            return Err(format!("order covers {} tokens, the id space ends at {}", key.len(), TokenId::LIMIT));
        }
        let valid = key.iter().filter(|&&k| k & VALID_BIT != 0).count();
        if untie.len() != valid {
            return Err(format!("untie array holds {} ranks but {} tokens are keyed valid", untie.len(), valid));
        }
        for (rank, &t) in untie.iter().enumerate() {
            if t.idx() >= key.len() {
                return Err(format!("untie rank {rank} names token {t:?} out of range {}", key.len()));
            }
            if key[t.idx()] & VALID_BIT == 0 {
                return Err(format!("untie rank {rank} names token {t:?}, keyed invalid"));
            }
            if key[t.idx()] != VALID_BIT | rank as u32 {
                return Err(format!("key/untie disagree at rank {rank}: key[{t:?}] = {:#x}", key[t.idx()]));
            }
        }
        // The loop above pinned every valid token's key (the ranks name
        // `valid` distinct valid tokens); what is left are the invalid ones.
        if let Some(t) = (0..key.len()).find(|&t| key[t] & VALID_BIT == 0 && key[t] as usize != t) {
            return Err(format!("invalid token {t} is keyed {:#x}, not as its own id", key[t]));
        }
        Ok(Self { flat: Arc::new(Flat { key, untie }), overlay: Overlay::default() })
    }

    /// The flat arrays in [`GlobalOrder::from_raw_parts`] order (the frozen
    /// writer serializes exactly these two). An extended order's overlay is
    /// not in them: [`GlobalOrder::flattened`] folds it in.
    pub fn raw_parts(&self) -> (&[u32], &[TokenId]) {
        (&self.flat.key, &self.flat.untie)
    }

    /// Heap bytes the overlay holds: what extending the order allocated.
    pub fn overlay_bytes(&self) -> usize {
        4 * self.overlay.untie.capacity() + 8 * self.overlay.keys.capacity()
    }

    /// The token ids the order covers: every valid token's is below this.
    pub fn tokens(&self) -> usize {
        self.overlay.untie.iter().map(|t| t.idx() + 1).max().unwrap_or(0).max(self.flat.key.len())
    }

    /// Whether `t` occurs in at least one derived entity.
    #[inline]
    pub fn is_valid(&self, t: TokenId) -> bool {
        self.key(t) & VALID_BIT != 0
    }

    /// The total-order key of `t`: `VALID_BIT | rank` for a valid token
    /// (smaller rank = rarer token = earlier in prefixes), the token's own
    /// id — below `VALID_BIT`, i.e. before every valid token — otherwise,
    /// including for tokens interned after the order was built.
    #[inline]
    pub fn key(&self, t: TokenId) -> u32 {
        self.keyer()(t)
    }

    /// [`GlobalOrder::key`] with the arrays it reads looked up once, for
    /// keying a document's tokens in one loop.
    #[inline]
    pub fn keyer(&self) -> impl Fn(TokenId) -> u32 + '_ {
        let (key, overlay) = (&self.flat.key[..], &self.overlay);
        move |t| {
            // Without an overlay — an order as built or opened — a token's
            // key is the flat one or its own id, with no branch on which.
            let k = key.get(t.idx()).copied().unwrap_or(t.0);
            if overlay.keys.is_empty() || k & VALID_BIT != 0 {
                k
            } else {
                overlay.key(t)
            }
        }
    }

    /// Recovers the token id from a key produced by [`GlobalOrder::key`].
    #[inline]
    pub fn token_of(&self, key: u32) -> TokenId {
        if key & VALID_BIT == 0 {
            TokenId(key)
        } else {
            self.untie(key & !VALID_BIT)
        }
    }

    /// The token of rank `rank`, which must be below [`GlobalOrder::ranks`].
    #[inline]
    pub fn untie(&self, rank: u32) -> TokenId {
        match self.flat.untie.get(rank as usize) {
            Some(&t) => t,
            None => self.overlay.untie[rank as usize - self.flat.untie.len()],
        }
    }

    /// Number of ranks handed out: every valid key's rank is below this.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.flat.untie.len() + self.overlay.untie.len()
    }

    /// Sorts `tokens` in place by the global order and removes duplicates.
    #[cfg(test)]
    fn sort_distinct(&self, tokens: &mut Vec<TokenId>) {
        tokens.sort_unstable_by_key(|&t| self.key(t));
        tokens.dedup();
    }
}

impl Overlay {
    /// The overlay of `untie`, the tokens of the ranks from `first` on.
    fn of(untie: Vec<TokenId>, first: usize) -> Self {
        let mut keys: Vec<(TokenId, u32)> = (first..).zip(&untie).map(|(rank, &t)| (t, VALID_BIT | rank as u32)).collect();
        keys.sort_unstable();
        Self { untie, keys }
    }

    /// The key of `t`: its admitted one, else its own id.
    #[inline]
    fn key(&self, t: TokenId) -> u32 {
        match self.keys.binary_search_by_key(&t, |&(u, _)| u) {
            Ok(i) => self.keys[i].1,
            Err(_) => t.0,
        }
    }
}

/// Sorts `fresh` `(frequency, token)` pairs by `(frequency, string)` and
/// hands the tokens to `assign` in that order, the one their ranks go out
/// in. The interner never stores the same string twice, so the order is
/// total and rank assignment is deterministic.
fn rank(fresh: &mut [(u32, TokenId)], interner: &Interner, assign: impl FnMut(TokenId)) {
    fresh.sort_unstable_by(|&(f, t), &(g, u)| f.cmp(&g).then_with(|| interner.resolve(t).cmp(interner.resolve(u))));
    fresh.iter().map(|&(_, t)| t).for_each(assign);
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::{DeriveConfig, RuleSet};
    use aeetes_text::{Dictionary, Tokenizer};

    fn derive(entries: &[&str], rules: &[(&str, &str)]) -> (DerivedDictionary, Interner) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let dict = Dictionary::from_strings(entries.iter().copied(), &tok, &mut int);
        let mut rs = RuleSet::new();
        for (l, r) in rules {
            rs.push_str(l, r, &tok, &mut int).unwrap();
        }
        (DerivedDictionary::build(&dict, &rs, &DeriveConfig::default()), int)
    }

    fn build(entries: &[&str], rules: &[(&str, &str)]) -> (GlobalOrder, Interner) {
        let (dd, int) = derive(entries, rules);
        (GlobalOrder::build(&dd, &int), int)
    }

    /// The frequency of `word` in the derivation of `entries` under `rules`.
    fn frequency(entries: &[&str], rules: &[(&str, &str)], word: &str) -> u32 {
        let (dd, int) = derive(entries, rules);
        count_frequencies(&dd, int.len())[int.get(word).unwrap().idx()]
    }

    #[test]
    fn frequency_counts_derived_entities() {
        let entries = ["university of washington", "university of queensland"];
        assert_eq!(frequency(&entries, &[], "university"), 2);
        assert_eq!(frequency(&entries, &[], "washington"), 1);
    }

    #[test]
    fn rarer_tokens_have_smaller_keys() {
        let (o, mut i) = build(&["a b", "a c"], &[]);
        let a = i.intern("a");
        let b = i.intern("b");
        assert!(o.key(b) < o.key(a));
    }

    #[test]
    fn invalid_tokens_rank_first_with_empty_semantics() {
        let (o, mut i) = build(&["alpha beta"], &[]);
        let unknown = i.intern("zzz-unknown");
        let alpha = i.intern("alpha");
        assert!(!o.is_valid(unknown));
        assert!(o.is_valid(alpha));
        assert!(o.key(unknown) < o.key(alpha));
    }

    #[test]
    fn duplicate_tokens_in_one_entity_count_once() {
        assert_eq!(frequency(&["ny ny ny"], &[], "ny"), 1);
    }

    #[test]
    fn derived_variants_contribute() {
        // variants: "uq au", "university of queensland au" → au appears in 2.
        let rules = [("uq", "university of queensland")];
        assert_eq!(frequency(&["uq au"], &rules, "au"), 2);
        assert_eq!(frequency(&["uq au"], &rules, "university"), 1);
    }

    #[test]
    fn sort_distinct_orders_and_dedups() {
        let (o, mut i) = build(&["a b", "a c", "a d"], &[]);
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        let mut v = vec![a, b, a, c];
        o.sort_distinct(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], a, "most frequent token sorts last");
    }

    #[test]
    fn key_round_trips_token() {
        let (o, mut i) = build(&["x y"], &[]);
        let x = i.intern("x");
        assert_eq!(o.token_of(o.key(x)), x);
        let unknown = i.intern("unseen");
        assert_eq!(o.token_of(o.key(unknown)), unknown, "invalid tokens round-trip through raw-id keys");
    }

    #[test]
    fn equal_frequency_ties_break_by_string_not_insertion_order() {
        // Same vocabulary, opposite interner insertion orders.
        let tok = Tokenizer::default();
        let mut i1 = Interner::new();
        let d1 = Dictionary::from_strings(["zebra", "apple"], &tok, &mut i1);
        let o1 = GlobalOrder::build(&DerivedDictionary::build(&d1, &RuleSet::new(), &DeriveConfig::default()), &i1);
        let mut i2 = Interner::new();
        let d2 = Dictionary::from_strings(["apple", "zebra"], &tok, &mut i2);
        let o2 = GlobalOrder::build(&DerivedDictionary::build(&d2, &RuleSet::new(), &DeriveConfig::default()), &i2);
        // Both tokens have frequency 1; "apple" must sort before "zebra" in
        // both builds even though the interner ids are swapped.
        assert!(o1.key(i1.intern("apple")) < o1.key(i1.intern("zebra")));
        assert!(o2.key(i2.intern("apple")) < o2.key(i2.intern("zebra")));
    }

    #[test]
    fn extend_freezes_existing_keys_and_ranks_new_tokens_last() {
        let tok = Tokenizer::default();
        let mut int = Interner::new();
        let dict = Dictionary::from_strings(["a b", "a c"], &tok, &mut int);
        let rs = RuleSet::new();
        let cfg = DeriveConfig::default();
        let base = GlobalOrder::build(&DerivedDictionary::build(&dict, &rs, &cfg), &int);
        let a = int.intern("a");
        // The delta introduces "a z y" twice over: `a` gains real frequency
        // (ignored — its key is frozen), `z` and `y` are new vocabulary, and
        // "unseen" is interned but stays invalid.
        let (z, y) = (int.intern("z"), int.intern("y"));
        let unseen = int.intern("unseen");
        let mut dict2 = dict.clone();
        dict2.push_tokens("a z y".to_string(), vec![a, z, y]);
        dict2.push_tokens("a z".to_string(), vec![a, z]);
        let delta = DerivedDictionary::build_filtered(&dict2, &rs, &cfg, |e| e.0 >= 2);
        let delta = count_frequencies(&delta, int.len());
        let delta = || (0..).map(TokenId).zip(delta.iter().copied());
        let ext = base.extend_with(delta(), &int).expect("z and y are admitted");
        let old_tokens = base.tokens() as u32;
        for t in (0..old_tokens).map(TokenId) {
            assert_eq!(ext.key(t), base.key(t), "existing key of {t:?} is frozen");
        }
        // The flat arrays are shared, not copied; the admitted tokens stand
        // beside them, and folding them in answers the same.
        assert_eq!(ext.raw_parts().0.as_ptr(), base.raw_parts().0.as_ptr());
        assert_eq!((ext.ranks(), ext.tokens()), (base.ranks() + 2, unseen.idx()));
        let flat = ext.flattened().expect("an extended order has an overlay");
        for t in (0..=unseen.0).map(TokenId) {
            assert_eq!(flat.key(t), ext.key(t));
        }
        assert!(flat.flattened().is_none() && base.flattened().is_none());
        // Rarer first among the new tokens (y: 1, z: 2), all of them after
        // every key the base order handed out.
        let last_old = (0..old_tokens).map(|t| base.key(TokenId(t))).max().unwrap();
        assert!(last_old < ext.key(y) && ext.key(y) < ext.key(z));
        assert!(ext.is_valid(z) && ext.is_valid(y) && !ext.is_valid(unseen));
        assert_eq!(ext.key(unseen), unseen.0);
        for t in [a, z, y, unseen] {
            assert_eq!(ext.token_of(ext.key(t)), t);
        }
        // Nothing left to admit: the caller keeps sharing the order it has.
        assert!(ext.extend_with(delta(), &int).is_none());
        assert!(ext.extend_with([], &int).is_none());
    }

    #[test]
    #[should_panic(expected = "outside the 2^31 id space")]
    fn token_ids_past_the_valid_bit_are_refused() {
        // Such an id cannot come from an interner (it stops minting at
        // 2^31); a hand-built dictionary carrying one must not be keyed.
        let mut dict = Dictionary::new();
        dict.push_tokens("big".into(), vec![TokenId(VALID_BIT)]);
        let dd = DerivedDictionary::build(&dict, &RuleSet::new(), &DeriveConfig::default());
        GlobalOrder::build(&dd, &Interner::new());
    }

    #[test]
    fn raw_round_trip_and_validation() {
        // Token 0 is interned but occurs in no entity, so the own-id rule
        // has a subject inside the order's range.
        let mut int = Interner::new();
        let unused = int.intern("unused");
        let dict = Dictionary::from_strings(["university of washington", "school of rock"], &Tokenizer::default(), &mut int);
        let o = GlobalOrder::build(&DerivedDictionary::build(&dict, &RuleSet::new(), &DeriveConfig::default()), &int);
        let (key, untie) = o.raw_parts();
        let open = |key: &[u32], untie: &[TokenId]| GlobalOrder::from_raw_parts(key.to_vec().into(), untie.to_vec().into());
        let re = open(key, untie).unwrap();
        assert_eq!(re.raw_parts(), (key, untie));
        assert_eq!((re.tokens(), re.ranks()), (o.tokens(), o.ranks()));
        // Corruptions must be refused, each by name.
        let refused = |key: &[u32], untie: &[TokenId], what: &str| {
            let err = open(key, untie).expect_err(what);
            assert!(err.contains(what), "expected `{what}` in `{err}`");
        };
        refused(key, &untie[1..], "untie array holds 4 ranks but 5 tokens are keyed valid");
        let mut bad = untie.to_vec();
        bad[0] = TokenId(u32::MAX);
        refused(key, &bad, "out of range");
        let mut bad = untie.to_vec();
        bad.swap(0, 1);
        refused(key, &bad, "key/untie disagree at rank 0");
        // A rank naming a token keyed invalid, and the valid count kept by
        // moving the valid bit to another token.
        let mut bad_key = key.to_vec();
        bad_key[untie[0].idx()] = untie[0].0;
        bad_key[unused.idx()] = VALID_BIT | 7;
        refused(&bad_key, untie, "untie rank 0 names token");
        let mut bad_key = key.to_vec();
        bad_key[untie[0].idx()] ^= 1;
        refused(&bad_key, untie, "key/untie disagree");
        let mut bad_key = key.to_vec();
        bad_key[unused.idx()] = 3;
        refused(&bad_key, untie, "invalid token 0 is keyed 0x3, not as its own id");
    }
}
