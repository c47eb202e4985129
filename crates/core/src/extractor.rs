//! The end-to-end Aeetes engine (paper Algorithm 1, Figure 2).

use crate::backend::extract_segment;
use crate::build::aeetes_index;
use crate::config::AeetesConfig;
use crate::matches::Match;
use crate::stats::ExtractStats;
use crate::strategy::Strategy;
use aeetes_index::ClusteredIndex;
use aeetes_rules::{DerivedDictionary, RuleSet};
use aeetes_text::{Dictionary, Document, Interner};

/// The Aeetes extraction engine.
///
/// Owns the off-line artifacts: the origin dictionary, the derived
/// dictionary (entities expanded under synonym rules) as the variant table
/// extraction reads, and the clustered inverted index. Extraction is
/// read-only and can be shared across threads (`&self` methods; the engine
/// is `Send + Sync`).
#[derive(Debug)]
pub struct Aeetes {
    dict: Dictionary,
    dd: DerivedDictionary,
    index: ClusteredIndex,
    config: AeetesConfig,
}

impl Aeetes {
    /// Off-line preprocessing: expands `dict` under `rules` straight into
    /// the blocks of the clustered inverted index (Algorithm 1 lines 3–4 /
    /// Algorithm 2) — [`aeetes_index`] in one part, the build
    /// `ShardedEngine::build` runs in several — keeping of the derived
    /// dictionary only its variant table: the variants' token sequences are
    /// derived again if and when [`Aeetes::derived`] is read for them. The
    /// interner must be the one `dict` and `rules` were tokenized with; it
    /// supplies the strings for the global order's frequency tie-break.
    pub fn build(dict: Dictionary, rules: &RuleSet, interner: &Interner, config: AeetesConfig) -> Self {
        let (table, index) = aeetes_index(&dict, rules, interner, &config.derive, 1);
        let dd = DerivedDictionary::lazy(table, dict.clone(), rules.clone(), config.derive.clone());
        Self { dict, dd, index, config }
    }

    /// Assembles an engine around a derived dictionary built elsewhere,
    /// rebuilding the clustered index from its sequences
    /// ([`ClusteredIndex::build`]): the materialised build path, which the
    /// tests and the conformance oracle hold [`Aeetes::build`] to.
    pub fn from_parts(dict: Dictionary, dd: DerivedDictionary, interner: &Interner, config: AeetesConfig) -> Self {
        let index = ClusteredIndex::build(&dd, interner);
        Self { dict, dd, index, config }
    }

    /// The origin dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The derived dictionary. Extraction reads only its variant table; the
    /// first read of a variant's tokens or rules derives them all again.
    pub fn derived(&self) -> &DerivedDictionary {
        &self.dd
    }

    /// The clustered inverted index.
    pub fn index(&self) -> &ClusteredIndex {
        &self.index
    }

    /// The engine configuration.
    pub fn config(&self) -> &AeetesConfig {
        &self.config
    }

    /// Extracts all `(entity, substring)` pairs with `JaccAR ≥ tau` using
    /// the configured strategy (and the configured limits; the default
    /// [`crate::ExtractLimits::UNLIMITED`] never truncates). Results are
    /// sorted by `(span, entity)`. Anything else — another metric, weighted
    /// rules, top-k, explicit limits, cancellation — is a
    /// [`crate::ExtractRequest`] through
    /// [`crate::ExtractBackend::extract_request`].
    ///
    /// # Panics
    /// Panics when `tau` is not in `(0, 1]`.
    pub fn extract(&self, doc: &Document, tau: f64) -> Vec<Match> {
        self.extract_with(doc, tau, self.config.strategy).0
    }

    /// Extracts with an explicit strategy, returning the statistics used by
    /// the paper's ablation figures.
    pub fn extract_with(&self, doc: &Document, tau: f64, strategy: Strategy) -> (Vec<Match>, ExtractStats) {
        let out = extract_segment(&self.index, &self.dd, doc, tau, strategy, self.config.metric, false, None, &self.config.limits, None);
        (out.matches, out.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExtractBackend;
    use crate::limits::{ExtractLimits, ExtractOutcome};
    use crate::scratch::ExtractScratch;
    use aeetes_text::{Interner, Span, Tokenizer};

    struct Fix {
        int: Interner,
        tok: Tokenizer,
        engine: Aeetes,
    }

    /// The engine's configured request under explicit `limits`, owned.
    fn limited(engine: &Aeetes, doc: &Document, tau: f64, limits: &ExtractLimits) -> ExtractOutcome {
        engine.extract_scratched(doc, tau, limits, None, &mut ExtractScratch::new()).to_outcome()
    }

    /// The paper's Figure 1 scenario: institutions dictionary + rules.
    fn figure1() -> Fix {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("University of Wisconsin Madison", &tok, &mut int); // e1
        dict.push("Purdue University USA", &tok, &mut int); // e2
        dict.push("UQ AU", &tok, &mut int); // e3
        let mut rules = RuleSet::new();
        rules.push_str("UQ", "University of Queensland", &tok, &mut int).unwrap(); // r1
        rules.push_str("USA", "United States", &tok, &mut int).unwrap(); // r2
        rules.push_str("AU", "Australia", &tok, &mut int).unwrap(); // r3
        rules.push_str("UW", "University of Wisconsin", &tok, &mut int).unwrap(); // r4
        let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        Fix { int, tok, engine }
    }

    #[test]
    fn figure1_extracts_all_four_mentions() {
        let mut f = figure1();
        // s1..s4 in one document, in paper order.
        let doc = Document::parse(
            "talks by UW Madison faculty then Purdue University United States \
             then Purdue University USA and finally University of Queensland Australia",
            &f.tok,
            &mut f.int,
        );
        let matches = f.engine.extract(&doc, 0.9);
        let spans: Vec<Span> = matches.iter().map(|m| m.span).collect();
        assert!(spans.contains(&Span::new(2, 2)), "s1: UW Madison via r4 — {spans:?}");
        assert!(spans.contains(&Span::new(6, 4)), "s2: Purdue University United States via r2");
        assert!(spans.contains(&Span::new(11, 3)), "s3: exact Purdue University USA");
        assert!(spans.contains(&Span::new(16, 4)), "s4: University of Queensland Australia via r1+r3");
        for m in &matches {
            assert!(m.score >= 0.9);
        }
    }

    #[test]
    fn exact_threshold_one_only_exact_or_synonym_equal() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa and purdue university", &f.tok, &mut f.int);
        let matches = f.engine.extract(&doc, 1.0);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].span, Span::new(0, 3));
        assert_eq!(matches[0].score, 1.0);
    }

    #[test]
    fn lower_threshold_is_monotone() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa near the university of queensland australia", &f.tok, &mut f.int);
        let hi = f.engine.extract(&doc, 0.9);
        let lo = f.engine.extract(&doc, 0.7);
        for m in &hi {
            assert!(lo.iter().any(|x| x.entity == m.entity && x.span == m.span), "match {m:?} lost at lower threshold");
        }
        assert!(lo.len() >= hi.len());
    }

    #[test]
    #[should_panic(expected = "similarity threshold")]
    fn zero_threshold_panics() {
        let mut f = figure1();
        let doc = Document::parse("anything", &f.tok, &mut f.int);
        let _ = f.engine.extract(&doc, 0.0);
    }

    #[test]
    fn stats_populated() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa visits uw madison", &f.tok, &mut f.int);
        let (matches, stats) = f.engine.extract_with(&doc, 0.8, Strategy::Lazy);
        assert!(!matches.is_empty());
        assert!(stats.substrings > 0);
        assert!(stats.accessed_entries > 0);
        assert_eq!(stats.matches as usize, matches.len());
        assert!(stats.candidates >= stats.matches);
    }

    #[test]
    fn scores_are_exact_jaccar() {
        let mut f = figure1();
        // "purdue university" vs entity "purdue university usa": J = 2/3.
        let doc = Document::parse("purdue university", &f.tok, &mut f.int);
        let matches = f.engine.extract(&doc, 0.6);
        let m = matches
            .iter()
            .find(|m| m.span == Span::new(0, 2) && (m.score - 2.0 / 3.0).abs() < 1e-12)
            .expect("partial match with score 2/3");
        assert_eq!(f.engine.dictionary().record(m.entity).raw, "Purdue University USA");
    }

    #[test]
    fn empty_document_no_matches() {
        let mut f = figure1();
        let doc = Document::parse("", &f.tok, &mut f.int);
        assert!(f.engine.extract(&doc, 0.8).is_empty());
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Aeetes>();
    }

    #[test]
    fn unlimited_limits_match_plain_extract() {
        let mut f = figure1();
        let doc = Document::parse(
            "talks by UW Madison faculty then Purdue University United States \
             then Purdue University USA and finally University of Queensland Australia",
            &f.tok,
            &mut f.int,
        );
        let plain = f.engine.extract(&doc, 0.8);
        let out = limited(&f.engine, &doc, 0.8, &ExtractLimits::UNLIMITED);
        assert!(!out.truncated);
        assert_eq!(out.matches, plain);
        assert_eq!(out.stats.matches as usize, plain.len());
    }

    #[test]
    fn zero_candidate_budget_returns_immediately_truncated() {
        let mut f = figure1();
        let limits = ExtractLimits { max_candidates: Some(0), ..ExtractLimits::UNLIMITED };
        for text in ["purdue university usa and uq au", ""] {
            let doc = Document::parse(text, &f.tok, &mut f.int);
            let out = limited(&f.engine, &doc, 0.8, &limits);
            assert!(out.truncated, "zero budget must report truncation on {text:?}");
            assert!(out.matches.is_empty());
        }
    }

    #[test]
    fn match_cap_truncates_to_prefix_of_full_result() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa then purdue university usa then uq au then purdue university usa", &f.tok, &mut f.int);
        let full = f.engine.extract(&doc, 0.8);
        assert!(full.len() >= 3, "fixture should produce several matches, got {}", full.len());
        let limits = ExtractLimits { max_matches: Some(1), ..ExtractLimits::UNLIMITED };
        let out = limited(&f.engine, &doc, 0.8, &limits);
        assert!(out.truncated);
        assert_eq!(out.matches.len(), 1);
        // The surviving match is exact: it appears verbatim in the full run.
        assert!(full.contains(&out.matches[0]));
    }

    #[test]
    fn expired_deadline_still_returns_well_formed_outcome() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa and uq au", &f.tok, &mut f.int);
        let limits = ExtractLimits { deadline: Some(std::time::Duration::ZERO), ..ExtractLimits::UNLIMITED };
        let out = limited(&f.engine, &doc, 0.8, &limits);
        assert!(out.truncated);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn zero_match_cap_returns_empty_truncated() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa and uq au", &f.tok, &mut f.int);
        let limits = ExtractLimits { max_matches: Some(0), ..ExtractLimits::UNLIMITED };
        let out = limited(&f.engine, &doc, 0.8, &limits);
        assert!(out.truncated, "a zero match cap on a matching document must report truncation");
        assert!(out.matches.is_empty());
    }

    #[test]
    fn degenerate_limits_never_panic_across_strategies() {
        // Every all-zero / zero-ish budget combination, on every strategy,
        // must come back empty + truncated — never panic, never hang.
        let degenerate = [
            ExtractLimits { max_matches: Some(0), ..ExtractLimits::UNLIMITED },
            ExtractLimits { max_candidates: Some(0), ..ExtractLimits::UNLIMITED },
            ExtractLimits { deadline: Some(std::time::Duration::ZERO), ..ExtractLimits::UNLIMITED },
            ExtractLimits {
                deadline: Some(std::time::Duration::ZERO),
                max_matches: Some(0),
                max_candidates: Some(0),
                ..ExtractLimits::UNLIMITED
            },
        ];
        for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
            let config = AeetesConfig { strategy, ..AeetesConfig::default() };
            let mut int = Interner::new();
            let tok = Tokenizer::default();
            let mut dict = Dictionary::new();
            dict.push("purdue university usa", &tok, &mut int);
            dict.push("uq au", &tok, &mut int);
            let engine = Aeetes::build(dict, &RuleSet::new(), &int, config);
            for text in ["purdue university usa and uq au", ""] {
                let doc = Document::parse(text, &tok, &mut int);
                for limits in &degenerate {
                    let out = limited(&engine, &doc, 0.8, limits);
                    assert!(out.matches.is_empty(), "strategy {strategy} with {limits:?} on {text:?} produced matches");
                    // Truncation must be flagged whenever results were
                    // actually withheld; an empty document legitimately
                    // completes with nothing to truncate.
                    if !text.is_empty() {
                        assert!(out.truncated, "strategy {strategy} with {limits:?} on {text:?} must flag truncation");
                    }
                }
            }
        }
    }

    #[test]
    fn generous_limits_do_not_truncate() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa and uq au", &f.tok, &mut f.int);
        let limits = ExtractLimits {
            deadline: Some(std::time::Duration::from_secs(3600)),
            max_candidates: Some(1_000_000),
            max_matches: Some(1_000_000),
            ..ExtractLimits::UNLIMITED
        };
        let out = limited(&f.engine, &doc, 0.8, &limits);
        assert!(!out.truncated);
        assert_eq!(out.matches, f.engine.extract(&doc, 0.8));
    }

    #[test]
    fn configured_limits_apply_to_plain_extract() {
        let mut f = figure1();
        let doc = Document::parse("purdue university usa and uq au", &f.tok, &mut f.int);
        assert!(!f.engine.extract(&doc, 0.8).is_empty());
        // Rebuild the engine with a zero candidate budget in its config:
        // the classic API silently degrades (no truncation flag there).
        let config = AeetesConfig {
            limits: ExtractLimits { max_candidates: Some(0), ..ExtractLimits::UNLIMITED },
            ..AeetesConfig::default()
        };
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("purdue university usa", &tok, &mut int);
        let engine = Aeetes::build(dict, &RuleSet::new(), &int, config);
        let doc2 = Document::parse("purdue university usa", &tok, &mut int);
        assert!(engine.extract(&doc2, 0.8).is_empty());
    }

    #[test]
    fn scratched_extraction_equals_owned_across_documents() {
        let mut f = figure1();
        let texts = [
            "talks by UW Madison faculty then Purdue University United States \
             then Purdue University USA and finally University of Queensland Australia",
            "uq au",
            "",
            "purdue university usa and uq au and purdue university usa",
        ];
        let mut scratch = ExtractScratch::new();
        for text in texts {
            let doc = Document::parse(text, &f.tok, &mut f.int);
            let owned = limited(&f.engine, &doc, 0.8, &ExtractLimits::UNLIMITED);
            let scratched = f.engine.extract_scratched(&doc, 0.8, &ExtractLimits::UNLIMITED, None, &mut scratch);
            assert_eq!(scratched.matches, owned.matches.as_slice(), "on {text:?}");
            assert_eq!(scratched.truncated, owned.truncated);
            assert_eq!(scratched.stats, owned.stats);
            assert_eq!(scratched.to_outcome().matches, owned.matches);
        }
    }

    #[test]
    fn budget_truncation_consistent_across_strategies() {
        let limits = ExtractLimits { max_candidates: Some(2), ..ExtractLimits::UNLIMITED };
        for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
            let config = AeetesConfig { strategy, ..AeetesConfig::default() };
            let mut int = Interner::new();
            let tok = Tokenizer::default();
            let mut dict = Dictionary::new();
            dict.push("purdue university usa", &tok, &mut int);
            dict.push("uq au", &tok, &mut int);
            let engine = Aeetes::build(dict, &RuleSet::new(), &int, config);
            let d = Document::parse("purdue university usa then uq au then purdue university usa", &tok, &mut int);
            let out = limited(&engine, &d, 0.8, &limits);
            assert!(out.truncated, "strategy {strategy} must hit the 2-candidate cap");
            // Partial results stay exact: every match also occurs unbudgeted.
            let full = engine.extract(&d, 0.8);
            for m in &out.matches {
                assert!(full.contains(m), "strategy {strategy} invented {m:?}");
            }
        }
    }
}
