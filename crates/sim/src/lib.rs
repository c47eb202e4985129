//! Similarity metrics for the Aeetes framework.
//!
//! * Token-set metrics over sorted distinct token slices: [`jaccard`], and
//!   [`Metric`], which scores Jaccard, Dice, Cosine and Overlap from set
//!   sizes (paper §2.2 notes the framework extends to all of these).
//! * Character metrics: [`levenshtein`], banded [`levenshtein_bounded`],
//!   [`edit_similarity`].
//! * [`fuzzy_jaccard`] — the *Fuzzy Jaccard* baseline of Wang et al.
//!   (ICDE'11), used as a comparison metric in the paper's Table 2.
//! * [`JaccArVerifier`] — exact verification of the paper's Asymmetric
//!   Rule-based Jaccard over a [`aeetes_rules::DerivedDictionary`].
//!
//! All set metrics require *sorted, deduplicated* inputs (see
//! [`sorted_set`]); this keeps the hot verification path allocation-free.

mod edit;
mod fuzzy;
mod jaccar;
mod metric;
mod set;

pub use edit::{edit_similarity, levenshtein, levenshtein_bounded};
pub use fuzzy::fuzzy_jaccard;
pub use jaccar::{JaccArScore, JaccArVerifier};
pub use metric::Metric;
pub use set::{intersection_size, jaccard, sorted_set};
