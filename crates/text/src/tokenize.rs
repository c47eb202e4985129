//! Tokenization of raw text into interned token sequences.

use crate::interner::{Interner, TokenId};

/// Configuration for [`Tokenizer`].
#[derive(Debug, Clone)]
pub struct TokenizerConfig {
    /// Lowercase every token before interning. The paper's datasets are
    /// case-normalized, so this defaults to `true`.
    pub lowercase: bool,
    /// Strip leading/trailing punctuation from each whitespace-separated
    /// chunk (so `"York,"` and `"York"` intern to the same token).
    pub strip_punctuation: bool,
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self { lowercase: true, strip_punctuation: true }
    }
}

/// Splits text into word tokens.
///
/// Tokens are maximal runs of alphanumeric characters (plus `'`, `-`, `_`,
/// and `.` when `strip_punctuation` is off they are kept verbatim). The
/// tokenizer also reports the byte span of every token so extraction results
/// can be mapped back onto the raw document.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Creates a tokenizer with the given configuration.
    pub fn new(config: TokenizerConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// Tokenizes `text`, interning each token, and returns `(ids, spans)`
    /// where `spans[i]` is the byte range of token `i` in `text`.
    pub fn tokenize_spanned(&self, text: &str, interner: &mut Interner) -> (Vec<TokenId>, Vec<(u32, u32)>) {
        let mut ids = Vec::new();
        let mut spans = Vec::new();
        self.tokenize_spanned_into(text, interner, &mut ids, &mut spans);
        (ids, spans)
    }

    /// [`Tokenizer::tokenize_spanned`] appending into caller-owned buffers
    /// (which are *not* cleared), so repeat callers — the streaming
    /// extractor's per-chunk hot path — tokenize without allocating once
    /// the buffers reach their high-water capacity. Lowercasing ASCII text
    /// with no uppercase letters stays allocation-free; mixed-case or
    /// non-ASCII chunks go through an internal lowering buffer.
    pub fn tokenize_spanned_into(&self, text: &str, interner: &mut Interner, ids: &mut Vec<TokenId>, spans: &mut Vec<(u32, u32)>) {
        self.for_each_token(text, |tok, start, end| {
            ids.push(interner.intern(tok));
            spans.push((start as u32, end as u32));
        });
    }

    /// Tokenizes `text` against a read-only `interner`: the token ids, or
    /// `None` when some token is not interned yet — so a caller holding a
    /// shared interner copies it only when a text brings a new string.
    pub fn tokenize_known(&self, text: &str, interner: &Interner) -> Option<Vec<TokenId>> {
        let mut ids = Some(Vec::new());
        self.for_each_token(text, |tok, _, _| {
            ids = ids.take().and_then(|mut ids| {
                ids.push(interner.get(tok)?);
                Some(ids)
            });
        });
        ids
    }

    /// Tokenizes `text` and returns only the token ids.
    pub fn tokenize(&self, text: &str, interner: &mut Interner) -> Vec<TokenId> {
        self.tokenize_spanned(text, interner).0
    }

    /// Whether `c` can be part of a token chunk under this configuration.
    /// Chunking is a per-character (context-free) decision, which is what
    /// lets a streaming caller tokenize chunk-by-chunk: splitting text at
    /// any non-word boundary yields the same tokens as tokenizing it whole.
    pub fn is_word_char(&self, c: char) -> bool {
        if self.config.strip_punctuation {
            c.is_alphanumeric()
        } else {
            !c.is_whitespace()
        }
    }

    /// Calls `f(token, start, end)` for every token of `text`, normalised as
    /// configured, with its byte span.
    fn for_each_token(&self, text: &str, mut f: impl FnMut(&str, usize, usize)) {
        let mut lower_buf = String::new();
        self.for_each_chunk(text, |start, end| {
            let raw = &text[start..end];
            // ASCII fast path; non-ASCII always goes through to_lowercase
            // (titlecase characters like 'ᾈ' are not `is_uppercase` yet
            // still have lowercase mappings).
            let needs_lowering = if raw.is_ascii() { raw.bytes().any(|b| b.is_ascii_uppercase()) } else { true };
            let tok = if self.config.lowercase && needs_lowering {
                lower_buf.clear();
                if self.config.strip_punctuation {
                    // Lowercasing can *introduce* non-alphanumerics — İ
                    // (U+0130) maps to "i" + combining dot above — which
                    // would break the alphanumeric-token invariant of
                    // stripped chunks; drop such marks.
                    lower_buf.extend(raw.chars().flat_map(char::to_lowercase).filter(|c| c.is_alphanumeric()));
                } else {
                    lower_buf.extend(raw.chars().flat_map(char::to_lowercase));
                }
                lower_buf.as_str()
            } else {
                raw
            };
            f(tok, start, end);
        });
    }

    /// Calls `f(start, end)` for the byte span of every token chunk in
    /// `text`, before interning. Allocation-free.
    fn for_each_chunk(&self, text: &str, mut f: impl FnMut(usize, usize)) {
        let mut start: Option<usize> = None;
        for (i, c) in text.char_indices() {
            match (self.is_word_char(c), start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    f(s, i);
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            f(s, text.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(text: &str) -> Vec<String> {
        let mut i = Interner::new();
        let t = Tokenizer::default();
        t.tokenize(text, &mut i).into_iter().map(|id| i.resolve(id).to_string()).collect()
    }

    #[test]
    fn splits_on_whitespace_and_punct() {
        assert_eq!(toks("New York, NY!"), vec!["new", "york", "ny"]);
    }

    #[test]
    fn lowercases_by_default() {
        assert_eq!(toks("MIT"), vec!["mit"]);
    }

    #[test]
    fn empty_and_punct_only_yield_nothing() {
        assert!(toks("").is_empty());
        assert!(toks("  ... !!! ").is_empty());
    }

    #[test]
    fn unicode_tokens_survive() {
        assert_eq!(toks("café zürich"), vec!["café", "zürich"]);
    }

    #[test]
    fn spans_point_at_source_bytes() {
        let mut i = Interner::new();
        let t = Tokenizer::default();
        let text = "Univ. of Queensland";
        let (ids, spans) = t.tokenize_spanned(text, &mut i);
        assert_eq!(ids.len(), 3);
        assert_eq!(&text[spans[0].0 as usize..spans[0].1 as usize], "Univ");
        assert_eq!(&text[spans[2].0 as usize..spans[2].1 as usize], "Queensland");
    }

    #[test]
    fn no_strip_keeps_punctuation_chunks() {
        let t = Tokenizer::new(TokenizerConfig { lowercase: false, strip_punctuation: false });
        let mut i = Interner::new();
        let ids = t.tokenize("a,b c", &mut i);
        assert_eq!(ids.len(), 2);
        assert_eq!(i.resolve(ids[0]), "a,b");
    }

    #[test]
    fn tokenize_known_reads_without_interning() {
        let mut i = Interner::new();
        let t = Tokenizer::default();
        let ids = t.tokenize("New York, NY", &mut i);
        assert_eq!(t.tokenize_known("ny new YORK", &i), Some(vec![ids[2], ids[0], ids[1]]));
        assert_eq!(t.tokenize_known("...", &i), Some(Vec::new()));
        assert_eq!(t.tokenize_known("new jersey", &i), None, "one unknown token fails the whole text");
        assert_eq!(i.len(), 3, "nothing was interned");
    }

    #[test]
    fn digits_are_tokens() {
        assert_eq!(toks("EDBT 2019"), vec!["edbt", "2019"]);
    }

    #[test]
    fn expanding_lowercase_stays_alphanumeric() {
        // İ (U+0130) lowercases to "i" + U+0307 (combining dot above); the
        // combining mark must not survive into a stripped token.
        assert_eq!(toks("İstanbul"), vec!["istanbul"]);
    }
}
