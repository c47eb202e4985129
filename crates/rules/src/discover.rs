//! Synonym-rule discovery from the dictionary itself.
//!
//! The paper assumes rules are given (§2.2) and points at discovery systems
//! as complementary work (§5 "Gathering Synonym Rules"; pkduck [29] handles
//! abbreviations specifically). This module implements the most common —
//! and most mechanical — rule source: **abbreviation patterns inside the
//! entity table**. When one dictionary entry's token is the initialism of a
//! token sequence appearing in other entries ("UQ" ↔ "University of
//! Queensland"), the pair is emitted as a candidate rule for human review
//! or direct use.
//!
//! Detected patterns, all case-normalized:
//!
//! * **Initialisms** — `uq ⇔ university of queensland` (first letters,
//!   optionally skipping stopwords: `nyu ⇔ new york university`).
//! * **Prefix truncations** — `univ ⇔ university` (a token that is a
//!   ≥ 3-character prefix of a longer token).

use crate::rule::{RuleError, RuleSet};
use aeetes_text::{Dictionary, Interner, TokenId};
use std::collections::{HashMap, HashSet};

/// Options for [`discover_abbreviations`].
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Minimum expansion length in tokens for initialism rules (an
    /// initialism of a single token is just a prefix truncation).
    pub min_expansion_tokens: usize,
    /// Maximum expansion length in tokens.
    pub max_expansion_tokens: usize,
    /// Tokens ignored when matching initial letters ("of", "the", …) —
    /// both with and without them is attempted.
    pub stopwords: Vec<String>,
    /// Minimum abbreviation length in characters (1-char "abbreviations"
    /// are noise).
    pub min_abbrev_chars: usize,
    /// Also emit prefix-truncation rules (`univ ⇔ university`).
    pub prefix_truncations: bool,
    /// Minimum characters of a truncation, and it must be at least this
    /// many characters shorter than the full token.
    pub min_truncation_chars: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            min_expansion_tokens: 2,
            max_expansion_tokens: 6,
            stopwords: ["of", "the", "and", "for", "in", "at", "de"].map(str::to_string).to_vec(),
            min_abbrev_chars: 2,
            prefix_truncations: true,
            min_truncation_chars: 3,
        }
    }
}

/// A discovered candidate rule, with provenance for review.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredRule {
    /// The short side (abbreviation / truncation), one token.
    pub short: TokenId,
    /// The expansion token sequence.
    pub expansion: Vec<TokenId>,
    /// What kind of pattern produced it.
    pub kind: DiscoveryKind,
    /// In how many entities the expansion occurs.
    pub support: usize,
}

/// The pattern behind a discovered rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryKind {
    /// First letters of the expansion tokens.
    Initialism,
    /// First letters of the non-stopword expansion tokens.
    InitialismSkippingStopwords,
    /// Character prefix of a single longer token.
    PrefixTruncation,
}

/// Scans the dictionary for abbreviation-style rule candidates.
///
/// Returns rules sorted by descending support, then by the short token id
/// for determinism. Rules are *candidates*: pipe them through
/// [`add_discovered`] (or review them first) to use them.
pub fn discover_abbreviations(dict: &Dictionary, interner: &Interner, config: &DiscoveryConfig) -> Vec<DiscoveredRule> {
    let stop: HashSet<&str> = config.stopwords.iter().map(String::as_str).collect();

    // 1. Collect every candidate expansion window (token subsequences of
    //    entities) keyed by its initialism string, with support counts.
    type ExpansionInfo = (DiscoveryKind, HashSet<u32>);
    let mut by_initialism: HashMap<String, HashMap<Vec<TokenId>, ExpansionInfo>> = HashMap::new();
    for (eid, e) in dict.iter() {
        let n = e.tokens.len();
        for start in 0..n {
            for len in config.min_expansion_tokens..=config.max_expansion_tokens.min(n - start) {
                let window = &e.tokens[start..start + len];
                let full: String = window.iter().filter_map(|&t| interner.resolve(t).chars().next()).collect();
                let skipped: String = window
                    .iter()
                    .filter(|&&t| !stop.contains(interner.resolve(t)))
                    .filter_map(|&t| interner.resolve(t).chars().next())
                    .collect();
                for (key, kind) in [
                    (full.clone(), DiscoveryKind::Initialism),
                    (skipped.clone(), DiscoveryKind::InitialismSkippingStopwords),
                ] {
                    if key.chars().count() < config.min_abbrev_chars {
                        continue;
                    }
                    if kind == DiscoveryKind::InitialismSkippingStopwords && skipped == full {
                        continue; // no stopword was skipped: identical key
                    }
                    let slot = by_initialism.entry(key).or_default().entry(window.to_vec()).or_insert((kind, HashSet::new()));
                    slot.1.insert(eid.0);
                }
            }
        }
    }

    // 2. Dictionary tokens that *are* some expansion's initialism.
    let mut out = Vec::new();
    let mut seen_tokens: HashSet<TokenId> = HashSet::new();
    for (_, e) in dict.iter() {
        for &t in e.tokens {
            if !seen_tokens.insert(t) {
                continue;
            }
            let word = interner.resolve(t);
            if word.chars().count() < config.min_abbrev_chars {
                continue;
            }
            if let Some(expansions) = by_initialism.get(word) {
                for (expansion, (kind, support)) in expansions {
                    // The abbreviation must not be part of its own expansion.
                    if expansion.contains(&t) {
                        continue;
                    }
                    out.push(DiscoveredRule { short: t, expansion: expansion.clone(), kind: *kind, support: support.len() });
                }
            }
        }
    }

    // 3. Prefix truncations: token u is a prefix of token v (both in the
    //    dictionary vocabulary).
    if config.prefix_truncations {
        let vocab: Vec<TokenId> = seen_tokens.iter().copied().collect();
        let mut words: Vec<(&str, TokenId)> = vocab.iter().map(|&t| (interner.resolve(t), t)).collect();
        words.sort_unstable();
        // token frequency over entities, as support
        let mut tok_support: HashMap<TokenId, usize> = HashMap::new();
        for (_, e) in dict.iter() {
            let mut distinct: Vec<TokenId> = e.tokens.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            for t in distinct {
                *tok_support.entry(t).or_insert(0) += 1;
            }
        }
        for (i, &(w, t)) in words.iter().enumerate() {
            if w.chars().count() < config.min_truncation_chars {
                continue;
            }
            // All strictly longer words sharing the prefix follow w in sort order.
            for &(longer, lt) in words[i + 1..].iter().take_while(|(l, _)| l.starts_with(w)) {
                if longer.chars().count() >= w.chars().count() + config.min_truncation_chars {
                    out.push(DiscoveredRule {
                        short: t,
                        expansion: vec![lt],
                        kind: DiscoveryKind::PrefixTruncation,
                        support: tok_support.get(&lt).copied().unwrap_or(0),
                    });
                }
            }
        }
    }

    out.sort_by_key(|r| (std::cmp::Reverse(r.support), r.short, r.expansion.clone()));
    out
}

/// Adds discovered rules to a rule set (short side as `lhs`), returning how
/// many were accepted (duplicates of the rule-validity checks are skipped).
pub fn add_discovered(rules: &mut RuleSet, discovered: &[DiscoveredRule], weight: f64) -> usize {
    let mut added = 0;
    for r in discovered {
        match rules.push_tokens(&[r.short], &r.expansion, weight) {
            Ok(_) => added += 1,
            Err(RuleError::Trivial | RuleError::EmptySide | RuleError::BadWeight(_)) => {}
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_text::Tokenizer;

    fn setup(entries: &[&str]) -> (Dictionary, Interner) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let dict = Dictionary::from_strings(entries.iter().copied(), &tok, &mut int);
        (dict, int)
    }

    #[test]
    fn finds_plain_initialism() {
        let (dict, int) = setup(&["UQ AU", "University of Queensland Australia"]);
        let found = discover_abbreviations(&dict, &int, &DiscoveryConfig::default());
        let uq = int.get("uq").unwrap();
        let hit = found
            .iter()
            .find(|r| r.short == uq && int.render(&r.expansion) == "university of queensland")
            .expect("uq ⇔ university of queensland discovered");
        assert_eq!(hit.kind, DiscoveryKind::InitialismSkippingStopwords);
        assert_eq!(hit.support, 1);
    }

    #[test]
    fn finds_stopword_skipping_initialism() {
        let (dict, int) = setup(&["NYU campus", "New York University"]);
        let found = discover_abbreviations(&dict, &int, &DiscoveryConfig::default());
        let nyu = int.get("nyu").unwrap();
        assert!(found.iter().any(|r| r.short == nyu && int.render(&r.expansion) == "new york university"), "{found:?}");
    }

    #[test]
    fn finds_prefix_truncation() {
        let (dict, int) = setup(&["Univ of Queensland", "University of Melbourne"]);
        let found = discover_abbreviations(&dict, &int, &DiscoveryConfig::default());
        let univ = int.get("univ").unwrap();
        let hit = found
            .iter()
            .find(|r| r.short == univ && int.render(&r.expansion) == "university")
            .expect("univ ⇔ university discovered");
        assert_eq!(hit.kind, DiscoveryKind::PrefixTruncation);
    }

    #[test]
    fn abbreviation_not_in_own_expansion_and_min_lengths() {
        let (dict, int) = setup(&["ab alpha beta", "x yankee zulu"]);
        let found = discover_abbreviations(&dict, &int, &DiscoveryConfig::default());
        // "ab" IS in the same entity as "alpha beta" but not inside the
        // expansion window — allowed. "x" is below min_abbrev_chars.
        let x = int.get("x").unwrap();
        assert!(found.iter().all(|r| r.short != x), "1-char abbreviations rejected");
        let ab = int.get("ab").unwrap();
        assert!(found.iter().any(|r| r.short == ab && int.render(&r.expansion) == "alpha beta"));
    }

    #[test]
    fn support_counts_entities() {
        let (dict, int) = setup(&["ML lab", "machine learning systems", "machine learning theory"]);
        let found = discover_abbreviations(&dict, &int, &DiscoveryConfig::default());
        let ml = int.get("ml").unwrap();
        let hit = found.iter().find(|r| r.short == ml && int.render(&r.expansion) == "machine learning").unwrap();
        assert_eq!(hit.support, 2);
        // Sorted descending by support.
        for w in found.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn discovered_rules_drive_extraction() {
        use crate::{DeriveConfig, DerivedDictionary};
        let (dict, int) = setup(&["UQ AU", "University of Queensland Australia"]);
        let found = discover_abbreviations(&dict, &int, &DiscoveryConfig::default());
        let mut rules = RuleSet::new();
        let added = add_discovered(&mut rules, &found, 1.0);
        assert!(added > 0);
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
        // "UQ AU" must now have a variant containing "university of queensland".
        let uq_entity = aeetes_text::EntityId(0);
        let uni = int.get("university").unwrap();
        assert!(dd.variants(uq_entity).iter().any(|v| v.tokens.contains(&uni)), "discovered rule expands UQ");
    }

    #[test]
    fn empty_dictionary() {
        let (dict, int) = setup(&[]);
        assert!(discover_abbreviations(&dict, &int, &DiscoveryConfig::default()).is_empty());
    }
}
