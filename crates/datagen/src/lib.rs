//! Synthetic dataset generation for the Aeetes experiments.
//!
//! The paper evaluates on three proprietary corpora (PubMed, DBWorld,
//! USJob). We cannot redistribute them, so this crate generates synthetic
//! datasets calibrated to the *published statistics* of Table 1 — entity
//! and document length distributions, dictionary/rule set sizes, Zipfian
//! token frequencies and per-entity rule applicability — and plants ground
//! truth mentions the way the paper's authors hand-marked theirs
//! (see DESIGN.md, "Substitutions").
//!
//! Every generator is fully deterministic given a seed.
//!
//! ```
//! use aeetes_datagen::{DatasetProfile, generate};
//!
//! let data = generate(&DatasetProfile::dbworld_like().scaled(0.05), 42);
//! assert!(!data.documents.is_empty());
//! assert!(!data.gold.is_empty());
//! ```

mod dataset;
mod export;
mod generator;
mod profile;
mod vocab;

pub use dataset::{Dataset, DatasetStatistics, GoldMention, MentionForm};
pub use export::write_files;
pub use generator::generate;
pub use profile::DatasetProfile;
