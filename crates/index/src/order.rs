//! The global token order `O` (paper §3.2).

use aeetes_frozen::Arena;
use aeetes_rules::{each_distinct_token, DerivedDictionary};
use aeetes_text::{Interner, TokenId};

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
/// because their posting lists are empty.
///
/// The three arrays live in [`Arena`]s: heap vectors when built in memory,
/// zero-copy windows into the file image when opened from a frozen artifact.
#[derive(Debug, Clone, Default)]
pub struct GlobalOrder {
    /// token idx → number of derived entities containing it (0 = invalid).
    freq: Arena<u32>,
    /// token idx → key: `VALID_BIT | rank` where `freq > 0`, the token's
    /// own id elsewhere.
    key: Arena<u32>,
    /// rank → token, inverse of `key` (valid tokens only).
    untie: Arena<TokenId>,
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
        let fresh: Vec<TokenId> = (0..freq.len() as u32).map(TokenId).filter(|t| freq[t.idx()] > 0).collect();
        let mut key: Vec<u32> = (0..freq.len() as u32).collect();
        let mut untie = Vec::with_capacity(fresh.len());
        assign_ranks(&freq, &mut key, &mut untie, fresh, interner);
        Self { freq: freq.into(), key: key.into(), untie: untie.into() }
    }

    /// Extends the order with the tokens that `delta` — frequencies counted
    /// over a delta's fresh variants, as for
    /// [`GlobalOrder::from_frequencies`] — holds and this order does not,
    /// keeping every existing key frozen (append-only).
    ///
    /// This is the delta path: a generation update must not re-key tokens
    /// that the shared base already indexed, so existing frequencies and
    /// keys are left untouched and only previously-invalid tokens are
    /// admitted, with their frequency as `delta` counts it and their ranks
    /// appended after all existing ones — new vocabulary sorts last until
    /// the next full build. The resulting order drifts from the true corpus
    /// frequencies — that affects prefix sizes (performance), never
    /// correctness; a full rebuild re-keys everything.
    ///
    /// Returns `None` when `delta` admits no token: the order is unchanged
    /// and the caller keeps sharing `self`. Otherwise the result is
    /// heap-owned, even when `self` is frozen — this is the copy-on-write
    /// step of a frozen deployment's update path.
    ///
    /// # Panics
    /// Panics when a token id at or past [`TokenId::LIMIT`] occurs.
    pub fn extend_with(&self, delta: impl IntoIterator<Item = (TokenId, u32)>, interner: &Interner) -> Option<Self> {
        let mut fresh: Vec<(TokenId, u32)> = delta.into_iter().filter(|&(t, n)| n > 0 && !self.is_valid(t)).collect();
        fresh.sort_unstable();
        // Every token past this order's ids is fresh, so the last fresh one
        // is the last that occurs there.
        let tokens = self.freq.len().max(fresh.last()?.0.idx() + 1);
        assert!(tokens <= TokenId::LIMIT as usize, "token id {} is outside the 2^31 id space", tokens - 1);
        // Copied at their new lengths: grown in place, each would keep up to
        // as much again spare for as long as the order lives.
        let exact = |old: &[u32], len: usize| {
            let mut copy = Vec::with_capacity(len);
            copy.extend_from_slice(old);
            copy
        };
        let mut freq = exact(&self.freq, tokens);
        let mut key = exact(&self.key, tokens);
        let mut untie = Vec::with_capacity(self.untie.len() + fresh.len());
        untie.extend_from_slice(&self.untie);
        freq.resize(tokens, 0);
        key.extend(self.key.len() as u32..tokens as u32);
        for &(t, n) in &fresh {
            freq[t.idx()] = n;
        }
        assign_ranks(&freq, &mut key, &mut untie, fresh.into_iter().map(|(t, _)| t).collect(), interner);
        Some(Self { freq: freq.into(), key: key.into(), untie: untie.into() })
    }

    /// Reassembles an order from raw (possibly frozen) arenas, validating
    /// the key space: at most 2³¹ tokens, `untie` holding exactly the valid
    /// tokens, each in range, with `key` as its `VALID_BIT`-tagged inverse,
    /// and every invalid token keyed as its own id.
    ///
    /// # Errors
    /// Returns a message describing the first violated invariant.
    pub fn from_raw_parts(freq: Arena<u32>, key: Arena<u32>, untie: Arena<TokenId>) -> Result<Self, String> {
        if key.len() != freq.len() {
            return Err(format!("key array holds {} entries, freq holds {}", key.len(), freq.len()));
        }
        if freq.len() > TokenId::LIMIT as usize {
            return Err(format!("order covers {} tokens, the id space ends at {}", freq.len(), TokenId::LIMIT));
        }
        let valid = freq.iter().filter(|&&f| f > 0).count();
        if untie.len() != valid {
            return Err(format!("untie array holds {} ranks but {} tokens are valid", untie.len(), valid));
        }
        for (rank, &t) in untie.iter().enumerate() {
            if t.idx() >= freq.len() {
                return Err(format!("untie rank {rank} names token {t:?} out of range {}", freq.len()));
            }
            if freq[t.idx()] == 0 {
                return Err(format!("untie rank {rank} names invalid token {t:?}"));
            }
            if key[t.idx()] != VALID_BIT | rank as u32 {
                return Err(format!("key/untie disagree at rank {rank}: key[{t:?}] = {:#x}", key[t.idx()]));
            }
        }
        // The loop above pinned every valid token's key (the ranks name
        // `valid` distinct valid tokens); what is left are the invalid ones.
        if let Some(t) = (0..freq.len()).find(|&t| freq[t] == 0 && key[t] as usize != t) {
            return Err(format!("invalid token {t} is keyed {:#x}, not as its own id", key[t]));
        }
        Ok(Self { freq, key, untie })
    }

    /// Raw arena views in [`GlobalOrder::from_raw_parts`] order (the frozen
    /// writer serializes exactly these three arrays).
    pub fn raw_parts(&self) -> (&[u32], &[u32], &[TokenId]) {
        (&self.freq, &self.key, &self.untie)
    }

    /// The frequency of `t` in the derived dictionary (0 for invalid tokens).
    #[inline]
    pub fn freq(&self, t: TokenId) -> u32 {
        self.freq.get(t.idx()).copied().unwrap_or(0)
    }

    /// Whether `t` occurs in at least one derived entity.
    #[inline]
    pub fn is_valid(&self, t: TokenId) -> bool {
        self.freq(t) > 0
    }

    /// The total-order key of `t`: `VALID_BIT | rank` for a valid token
    /// (smaller rank = rarer token = earlier in prefixes), the token's own
    /// id — below `VALID_BIT`, i.e. before every valid token — otherwise,
    /// including for tokens interned after the order was built.
    #[inline]
    pub fn key(&self, t: TokenId) -> u32 {
        self.key.get(t.idx()).copied().unwrap_or(t.0)
    }

    /// Recovers the token id from a key produced by [`GlobalOrder::key`].
    #[inline]
    pub fn token_of(&self, key: u32) -> TokenId {
        if key & VALID_BIT == 0 {
            TokenId(key)
        } else {
            self.untie[(key & !VALID_BIT) as usize]
        }
    }

    /// Number of ranks handed out: every valid key's rank is below this.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.untie.len()
    }

    /// Sorts `tokens` in place by the global order and removes duplicates.
    #[cfg(test)]
    fn sort_distinct(&self, tokens: &mut Vec<TokenId>) {
        tokens.sort_unstable_by_key(|&t| self.key(t));
        tokens.dedup();
    }
}

/// Sorts `fresh` tokens by `(frequency, string)` and appends their ranks
/// after all existing ones. The interner never stores the same string
/// twice, so the order is total and rank assignment is deterministic.
fn assign_ranks(freq: &[u32], key: &mut [u32], untie: &mut Vec<TokenId>, mut fresh: Vec<TokenId>, interner: &Interner) {
    fresh.sort_unstable_by_key(|&t| (freq[t.idx()], interner.resolve(t)));
    for t in fresh {
        key[t.idx()] = VALID_BIT | untie.len() as u32;
        untie.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::{DeriveConfig, RuleSet};
    use aeetes_text::{Dictionary, Tokenizer};

    fn build(entries: &[&str], rules: &[(&str, &str)]) -> (GlobalOrder, Interner) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let dict = Dictionary::from_strings(entries.iter().copied(), &tok, &mut int);
        let mut rs = RuleSet::new();
        for (l, r) in rules {
            rs.push_str(l, r, &tok, &mut int).unwrap();
        }
        let dd = DerivedDictionary::build(&dict, &rs, &DeriveConfig::default());
        (GlobalOrder::build(&dd, &int), int)
    }

    #[test]
    fn frequency_counts_derived_entities() {
        let (o, mut i) = build(&["university of washington", "university of queensland"], &[]);
        let uni = i.intern("university");
        let wash = i.intern("washington");
        assert_eq!(o.freq(uni), 2);
        assert_eq!(o.freq(wash), 1);
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
        let (o, mut i) = build(&["ny ny ny"], &[]);
        assert_eq!(o.freq(i.intern("ny")), 1);
    }

    #[test]
    fn derived_variants_contribute() {
        let (o, mut i) = build(&["uq au"], &[("uq", "university of queensland")]);
        // variants: "uq au", "university of queensland au" → au appears in 2.
        assert_eq!(o.freq(i.intern("au")), 2);
        assert_eq!(o.freq(i.intern("university")), 1);
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
        let old_tokens = base.raw_parts().0.len() as u32;
        for t in (0..old_tokens).map(TokenId) {
            assert_eq!(ext.key(t), base.key(t), "existing key of {t:?} is frozen");
            assert_eq!(ext.freq(t), base.freq(t));
        }
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
        let (freq, key, untie) = o.raw_parts();
        let open = |freq: &[u32], key: &[u32], untie: &[TokenId]| {
            GlobalOrder::from_raw_parts(freq.to_vec().into(), key.to_vec().into(), untie.to_vec().into())
        };
        let re = open(freq, key, untie).unwrap();
        for t in 0..freq.len() as u32 {
            assert_eq!(re.key(TokenId(t)), o.key(TokenId(t)));
        }
        // Corruptions must be rejected.
        assert!(open(freq, &key[1..], untie).is_err(), "length mismatch");
        assert!(open(freq, key, &untie[1..]).is_err(), "missing rank");
        let mut bad = untie.to_vec();
        bad[0] = TokenId(u32::MAX);
        assert!(open(freq, key, &bad).is_err(), "rank out of range");
        let mut bad_key = key.to_vec();
        bad_key[untie[0].idx()] ^= 1;
        assert!(open(freq, &bad_key, untie).is_err(), "inverse broken");
        let mut bad_key = key.to_vec();
        bad_key[untie[0].idx()] &= !VALID_BIT;
        assert!(open(freq, &bad_key, untie).is_err(), "valid token without the valid bit");
        let mut bad_key = key.to_vec();
        bad_key[unused.idx()] = key[untie[0].idx()];
        assert!(open(freq, &bad_key, untie).unwrap_err().contains("own id"), "invalid token borrowing a valid key");
    }
}
