//! Synonym rules for the Aeetes framework.
//!
//! A synonym rule `⟨lhs ⇔ rhs⟩` states that two token sequences carry the
//! same meaning (paper §1). This crate implements everything the framework
//! needs to *use* such rules off-line:
//!
//! * [`RuleSet`] — the rule table, and [`RuleLookup`], the lookup of rule
//!   sides by first token one derivation builds for the tokens it holds;
//! * applicability and conflict analysis, including the hypergraph +
//!   greedy maximum-weight-clique selection of a non-conflict rule set
//!   (paper §5);
//! * [`DerivedDictionary`] — the off-line expansion `E = ⋃ D(e)` of every
//!   dictionary entity under all combinations of its non-conflict rules
//!   (paper §2.1).
//!
//! # Example
//!
//! ```
//! use aeetes_text::{Dictionary, Interner, Tokenizer};
//! use aeetes_rules::{RuleSet, DerivedDictionary, DeriveConfig};
//!
//! let mut int = Interner::new();
//! let tok = Tokenizer::default();
//! let mut dict = Dictionary::new();
//! dict.push("UQ AU", &tok, &mut int);
//!
//! let mut rules = RuleSet::new();
//! rules.push_str("UQ", "University of Queensland", &tok, &mut int).unwrap();
//! rules.push_str("AU", "Australia", &tok, &mut int).unwrap();
//!
//! let derived = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
//! // {UQ AU} × {UQ ⇔ U. of Queensland} × {AU ⇔ Australia} → 4 variants
//! assert_eq!(derived.len(), 4);
//! ```

mod apply;
mod derive;
mod rule;

pub use apply::{find_applications, select_non_conflict, Application};
pub use derive::{
    derive_into, each_distinct_token, rebased, DeriveConfig, DeriveStats, DerivedDictionary, DerivedId, DerivedRef, MergePlan, OriginVariants, Slots,
    VariantTable, Variants,
};
pub use rule::{Rule, RuleError, RuleId, RuleLookup, RuleSet, Side};
