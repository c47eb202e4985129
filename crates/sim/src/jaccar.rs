//! Asymmetric Rule-based Jaccard (JaccAR) verification — paper Definition 2.1.
//!
//! `JaccAR(e, s) = max_{eᵢ ∈ D(e)} Jaccard(eᵢ, s)`: rules were applied to the
//! entity off-line; verification scans the precomputed variants and keeps the
//! best syntactic score.

use crate::set::{intersection_size, jaccard_length_bounds, sorted_set};
use aeetes_rules::{DerivedDictionary, DerivedId};
use aeetes_text::{EntityId, TokenId};

/// The outcome of a JaccAR verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JaccArScore {
    /// The similarity value in `[0, 1]`.
    pub value: f64,
    /// Which variant achieved the maximum (`None` when the entity has no
    /// variants, i.e. the score is `0`). The id is the offset of the variant
    /// within `D(e)` re-based to a global [`DerivedId`].
    pub best: Option<DerivedId>,
}

/// Verifies JaccAR scores against a [`DerivedDictionary`].
///
/// Construction precomputes the sorted distinct token set of every derived
/// entity once, so each verification is a pure merge-count per variant with
/// a length-filter early exit.
#[derive(Debug)]
pub struct JaccArVerifier<'a> {
    dd: &'a DerivedDictionary,
    /// Sorted distinct token sets, parallel to the derived dictionary.
    sets: Vec<Vec<TokenId>>,
    /// Global id of the first variant of each origin entity.
    first_id: Vec<u32>,
}

impl<'a> JaccArVerifier<'a> {
    /// Builds the verifier (O(total derived tokens · log)).
    pub fn new(dd: &'a DerivedDictionary) -> Self {
        let mut sets = Vec::with_capacity(dd.len());
        for (_, d) in dd.iter() {
            sets.push(sorted_set(d.tokens));
        }
        let mut first_id = Vec::with_capacity(dd.origins());
        let mut acc = 0u32;
        for e in 0..dd.origins() {
            first_id.push(acc);
            acc += dd.variants(EntityId(e as u32)).len() as u32;
        }
        Self { dd, sets, first_id }
    }

    /// Exact `JaccAR(e, s)` for a sorted distinct substring set `s_set`.
    ///
    /// `tau` enables the per-variant length filter and an early exit on a
    /// perfect score; pass `0.0` to always compute the true maximum.
    pub fn verify(&self, e: EntityId, s_set: &[TokenId], tau: f64) -> JaccArScore {
        let base = self.first_id[e.idx()];
        let variants = self.dd.variants(e);
        let (lo, hi) = if tau > 0.0 {
            jaccard_length_bounds(s_set.len(), tau)
        } else {
            (0, usize::MAX)
        };
        let mut best = JaccArScore { value: 0.0, best: None };
        for off in 0..variants.len() {
            let id = DerivedId(base + off as u32);
            let set = &self.sets[id.idx()];
            if tau > 0.0 && (set.len() < lo || set.len() > hi) {
                continue;
            }
            let inter = intersection_size(set, s_set);
            let denom = set.len() + s_set.len() - inter;
            let score = if denom == 0 { 1.0 } else { inter as f64 / denom as f64 };
            if score > best.value || best.best.is_none() && score > 0.0 {
                best = JaccArScore { value: score, best: Some(id) };
            }
            if best.value >= 1.0 {
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::{DeriveConfig, RuleSet};
    use aeetes_text::{Dictionary, Interner, Tokenizer};

    struct Ctx {
        int: Interner,
        tok: Tokenizer,
        dict: Dictionary,
        rules: RuleSet,
    }

    impl Ctx {
        fn new() -> Self {
            Self {
                int: Interner::new(),
                tok: Tokenizer::default(),
                dict: Dictionary::new(),
                rules: RuleSet::new(),
            }
        }
        fn entity(&mut self, s: &str) -> EntityId {
            self.dict.push(s, &self.tok, &mut self.int)
        }
        fn rule(&mut self, l: &str, r: &str) {
            self.rules.push_str(l, r, &self.tok.clone(), &mut self.int).unwrap();
        }
        fn build(&self) -> DerivedDictionary {
            DerivedDictionary::build(&self.dict, &self.rules, &DeriveConfig::default())
        }
        fn set(&mut self, s: &str) -> Vec<TokenId> {
            let toks = self.tok.clone().tokenize(s, &mut self.int);
            sorted_set(&toks)
        }
    }

    /// Paper Example 1.1 / §2.2: synonym-rewritten mention scores 1.0.
    #[test]
    fn synonym_mention_scores_one() {
        let mut c = Ctx::new();
        let e = c.entity("UQ AU");
        c.rule("UQ", "University of Queensland");
        c.rule("AU", "Australia");
        let dd = c.build();
        let s = c.set("university of queensland australia");
        let v = JaccArVerifier::new(&dd);
        let score = v.verify(e, &s, 0.9);
        assert_eq!(score.value, 1.0);
        assert!(score.best.is_some());
    }

    #[test]
    fn jaccar_at_least_plain_jaccard() {
        let mut c = Ctx::new();
        let e = c.entity("purdue university usa");
        c.rule("usa", "united states");
        let dd = c.build();
        let s = c.set("purdue university usa");
        let v = JaccArVerifier::new(&dd);
        assert_eq!(v.verify(e, &s, 0.0).value, 1.0);
    }

    #[test]
    fn picks_best_variant_not_first() {
        let mut c = Ctx::new();
        let e = c.entity("big apple marathon");
        c.rule("big apple", "new york");
        let dd = c.build();
        let s = c.set("new york marathon");
        let v = JaccArVerifier::new(&dd);
        let score = v.verify(e, &s, 0.5);
        assert_eq!(score.value, 1.0);
        let best = score.best.unwrap();
        assert_eq!(dd.derived(best).rules.len(), 1);
    }

    #[test]
    fn no_variants_scores_zero() {
        let mut c = Ctx::new();
        let e = c.entity("...");
        let dd = c.build();
        let s = c.set("anything");
        let v = JaccArVerifier::new(&dd);
        let score = v.verify(e, &s, 0.0);
        assert_eq!(score.value, 0.0);
        assert!(score.best.is_none());
    }

    #[test]
    fn tau_zero_equals_tau_filtered_when_above_threshold() {
        let mut c = Ctx::new();
        let e = c.entity("machine learning conference");
        c.rule("machine learning", "ml");
        let dd = c.build();
        let s = c.set("ml conference");
        let v = JaccArVerifier::new(&dd);
        let unfiltered = v.verify(e, &s, 0.0);
        let filtered = v.verify(e, &s, 0.9);
        assert_eq!(unfiltered.value, 1.0);
        assert_eq!(filtered.value, unfiltered.value);
    }

    #[test]
    fn multi_entity_ids_line_up() {
        let mut c = Ctx::new();
        let a = c.entity("alpha beta");
        let b = c.entity("gamma delta");
        c.rule("alpha", "a1");
        c.rule("gamma", "g1");
        let dd = c.build();
        let v = JaccArVerifier::new(&dd);
        let sa = c.set("a1 beta");
        let sb = c.set("g1 delta");
        let ra = v.verify(a, &sa, 0.0);
        let rb = v.verify(b, &sb, 0.0);
        assert_eq!(ra.value, 1.0);
        assert_eq!(rb.value, 1.0);
        assert_eq!(dd.derived(ra.best.unwrap()).origin, a);
        assert_eq!(dd.derived(rb.best.unwrap()).origin, b);
    }
}
