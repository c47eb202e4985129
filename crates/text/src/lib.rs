//! Text substrate for the Aeetes framework: string interning, tokenization,
//! entities, dictionaries and documents.
//!
//! Everything downstream (synonym rules, similarity, indexing, extraction)
//! works on interned [`TokenId`]s rather than strings, so this crate is the
//! single place where raw text is parsed and owned.
//!
//! Strings are stored as an artifact stores them: [`Runs`] of bytes, one
//! arena and one `u32` offset array, never a heap allocation per string.
//! The [`Interner`] holds its strings that way and finds them through an
//! open-addressing slot table; the [`Dictionary`] holds its surface forms
//! and token sequences that way. Both adopt an opened artifact's arrays in
//! place and keep what is added after them in owned runs of their own, so
//! no clone copies what was adopted.
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
mod interner;
mod runs;
mod tokenize;

pub use document::{Document, Span};
pub use entity::{Dictionary, Entity, EntityId};
pub use interner::{Interner, TokenId};
pub use runs::Runs;
pub use tokenize::{Tokenizer, TokenizerConfig};
