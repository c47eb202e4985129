//! # Aeetes — Approximate Entity Extraction with Synonyms
//!
//! A Rust implementation of *"An Efficient Sliding Window Approach for
//! Approximate Entity Extraction with Synonyms"* (Wang, Lin, Li, Zaniolo —
//! EDBT 2019).
//!
//! Given a dictionary of entities, a table of synonym rules
//! (`lhs ⇔ rhs`) and a similarity threshold τ, Aeetes finds every document
//! substring whose **Asymmetric Rule-based Jaccard** (JaccAR) similarity to
//! some entity reaches τ — catching mentions that are syntactically
//! different but semantically equal ("Big Apple" ↔ "New York").
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`text`] | interner, tokenizer, dictionary, documents |
//! | [`rules`] | synonym rules, conflict resolution, derived dictionary |
//! | [`sim`] | Jaccard family, edit distance, Fuzzy Jaccard, JaccAR verify |
//! | [`index`] | global token order, filters, clustered inverted index |
//! | [`core`] | the extraction engine and its four filtering strategies |
//! | [`pool`] | persistent worker pool (one task queue), parallel batch extraction |
//! | [`stream`] | chunk-fed incremental extraction with exactly-once emission |
//! | [`obs`] | metric registry, stage timing, Prometheus/JSON exporters |
//! | [`baselines`] | exact matching, Faerie, FaerieR |
//! | [`datagen`] | synthetic corpora calibrated to the paper's datasets |
//!
//! The most common types are re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use aeetes::{Aeetes, AeetesConfig, Dictionary, Document, Interner, RuleSet, Tokenizer};
//!
//! let mut interner = Interner::new();
//! let tokenizer = Tokenizer::default();
//!
//! // 1. The reference entity table.
//! let mut dict = Dictionary::new();
//! dict.push("Massachusetts Institute of Technology", &tokenizer, &mut interner);
//!
//! // 2. Synonym rules.
//! let mut rules = RuleSet::new();
//! rules.push_str("MIT", "Massachusetts Institute of Technology", &tokenizer, &mut interner)
//!     .unwrap();
//!
//! // 3. Off-line preprocessing: derived dictionary + clustered index.
//! let engine = Aeetes::build(dict, &rules, &interner, AeetesConfig::default());
//!
//! // 4. On-line extraction.
//! let doc = Document::parse("She got her PhD from MIT in 2016.", &tokenizer, &mut interner);
//! let matches = engine.extract(&doc, 0.9);
//! assert_eq!(matches.len(), 1);
//! assert_eq!(doc.text_of(matches[0].span), Some("MIT"));
//! ```

pub use aeetes_baselines as baselines;
pub use aeetes_cluster as cluster;
pub use aeetes_core as core;
pub use aeetes_datagen as datagen;
pub use aeetes_index as index;
pub use aeetes_obs as obs;
pub use aeetes_pool as pool;
pub use aeetes_rules as rules;
pub use aeetes_shard as shard;
pub use aeetes_sim as sim;
pub use aeetes_stream as stream;
pub use aeetes_text as text;

pub use aeetes_cluster::{run_fleet, FleetOptions, FleetSummary, ReplicaSpec};
pub use aeetes_core::{
    extract_top_k_with, freeze_to_bytes, open_frozen, open_frozen_bytes, select_top_k, suppress_overlaps, Aeetes, AeetesConfig, BatchOptions,
    ExtractBackend, ExtractRequest, ExtractScratch, ExtractStats, Match, PersistError, Strategy,
};
pub use aeetes_pool::{extract_batch_with, Pool};
pub use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet};
pub use aeetes_shard::{ActivateError, DictDelta, RuleDelta, ShardedEngine};
pub use aeetes_sim::Metric;
pub use aeetes_stream::{StreamExtractor, StreamMatch};
pub use aeetes_text::{Dictionary, Document, EntityId, Interner, Span, TokenId, Tokenizer};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let _ = crate::AeetesConfig::default();
        let _ = crate::Strategy::ALL;
    }
}
