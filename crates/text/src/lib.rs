//! Text substrate for the Aeetes framework: string interning, tokenization,
//! entities, dictionaries and documents.
//!
//! Everything downstream (synonym rules, similarity, indexing, extraction)
//! works on interned [`TokenId`]s rather than strings, so this crate is the
//! single place where raw text is parsed and owned.
//!
//! # Quick example
//!
//! ```
//! use aeetes_text::{Interner, Tokenizer, Dictionary, Document};
//!
//! let mut interner = Interner::new();
//! let tokenizer = Tokenizer::default();
//! let mut dict = Dictionary::new();
//! let e = dict.push("Purdue University USA", &tokenizer, &mut interner);
//! assert_eq!(dict.entity(e).len(), 3);
//!
//! let doc = Document::parse("the Purdue University USA campus", &tokenizer, &mut interner);
//! assert_eq!(doc.len(), 5);
//! ```

mod document;
mod entity;
mod frozen_strings;
mod interner;
mod runs;
mod tokenize;

pub use document::{Document, Span};
pub use entity::{Dictionary, Entity, EntityId};
pub use frozen_strings::{string_arenas, FrozenStrings};
pub use interner::{Interner, StringTable, TokenId};
pub use runs::Runs;
pub use tokenize::{Tokenizer, TokenizerConfig};
