//! Aeetes — the sliding-window approximate entity-extraction engine
//! (paper §2.3, §4).
//!
//! The end-to-end pipeline is:
//!
//! 1. **Off-line** ([`Aeetes::build`]): apply synonym rules to every
//!    dictionary entity ([`aeetes_rules::DerivedDictionary`]), then build the
//!    clustered inverted index ([`aeetes_index::ClusteredIndex`]).
//! 2. **On-line** ([`ExtractBackend::extract_request`]): slide windows over
//!    the document, generate candidate `(substring, origin entity)` pairs
//!    with one of four filtering [`Strategy`]s, then verify each candidate's
//!    exact JaccAR score. One [`ExtractRequest`] names everything a call can
//!    vary — threshold, strategy, metric, weighted rules, top-k, limits,
//!    cancellation — and one method answers it, on the monolithic [`Aeetes`]
//!    engine and on a generation (crate `aeetes-shard`, what every artifact
//!    opens into) alike; [`Aeetes::extract`],
//!    [`ExtractBackend::extract_scratched`], [`extract_top_k_with`] and the
//!    batch and stream crates are wrappers that fill one in.
//!
//! The four strategies reproduce the paper's Figure 10/11 ablation:
//!
//! | Strategy | Prefix computation | Index scan |
//! |----------|--------------------|------------|
//! | [`Strategy::Simple`]  | from scratch per substring | full list, per-entry filters |
//! | [`Strategy::Skip`]    | from scratch per substring | clustered, batch skips |
//! | [`Strategy::Dynamic`] (default) | incremental (Window Extend / Migrate) | clustered, batch skips, cached across migrations |
//! | [`Strategy::Lazy`]    | incremental | deferred: each token's list scanned once per document |
//!
//! [`AeetesConfig::default`] picks `Dynamic`, the strategy measured fastest
//! on this implementation; the paper's Fig. 10 ranks `Lazy` first.
//!
//! "From scratch" is the straw man's own loop (`strategy/naive.rs`);
//! "incremental" is one maintained window walk (`walk.rs`) that `Dynamic`,
//! `Lazy` and the top-k scan run their loop bodies over. The scan is one
//! function (`candidates::scan`) for every row but `Lazy`'s.
//!
//! # Quickstart
//!
//! ```
//! use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
//! use aeetes_rules::RuleSet;
//! use aeetes_core::{Aeetes, AeetesConfig};
//!
//! let mut int = Interner::new();
//! let tok = Tokenizer::default();
//! let mut dict = Dictionary::new();
//! let uq = dict.push("UQ AU", &tok, &mut int);
//! let mut rules = RuleSet::new();
//! rules.push_str("UQ", "University of Queensland", &tok, &mut int).unwrap();
//! rules.push_str("AU", "Australia", &tok, &mut int).unwrap();
//!
//! let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
//! let doc = Document::parse(
//!     "she studied at the University of Queensland Australia last year",
//!     &tok, &mut int);
//! let matches = engine.extract(&doc, 0.9);
//! assert_eq!(matches[0].entity, uq);
//! assert_eq!(matches[0].score, 1.0);
//! ```

mod backend;
mod batch;
mod build;
mod candidates;
mod config;
mod durable;
mod extractor;
pub mod failpoint;
mod frozen;
mod limits;
mod matches;
mod nms;
mod persist;
mod scratch;
mod segment;
mod stage;
mod stats;
mod strategy;
mod topk;
mod verify;
mod wal;
mod walk;
mod window;

pub use backend::{extract_segment, extract_segment_scratched, ExtractBackend, ExtractRequest};
pub use batch::{panic_message, BatchOptions, DocError};
pub use build::aeetes_index;
pub use config::AeetesConfig;
pub use durable::atomic_replace;
pub use extractor::Aeetes;
pub use frozen::{freeze_to_bytes, open_frozen, open_frozen_bytes, peek_info, ArtifactInfo, FreezeSegment, FreezeSource, FrozenParts, SectionInfo};
pub use limits::{CancelToken, ExtractLimits, ExtractOutcome};
pub use matches::Match;
pub use nms::suppress_overlaps;
pub use persist::PersistError;
pub use scratch::{ExtractScratch, ScratchOutcome};
pub use segment::{Segment, Tail};
pub use stage::{Stage, StageSlots};
pub use stats::ExtractStats;
pub use strategy::{generate_candidates, Strategy};
pub use topk::{extract_top_k_with, select_top_k};
pub use wal::{Wal, WalError, WalRecord, WalReplay};
pub use window::WindowState;
