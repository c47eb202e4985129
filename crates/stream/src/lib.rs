//! Streaming extraction over unbounded text feeds (ROADMAP item 3).
//!
//! [`StreamExtractor`] accepts raw byte chunks of *arbitrary* size — split
//! mid-UTF-8 sequence, mid-token, anywhere — and emits matches
//! incrementally, with results **bit-identical** to running the engine over
//! the whole concatenated document (the root package's `conformance`
//! harness is the oracle). Three layers of carry make that possible:
//!
//! 1. **Byte carry** — an incomplete trailing UTF-8 sequence is held until
//!    the next chunk completes it; truly invalid sequences are replaced
//!    with U+FFFD exactly as `String::from_utf8_lossy` would, so the
//!    decoded stream equals the lossy decoding of the whole input.
//! 2. **Token carry** — a trailing run of word characters is held back
//!    (the next chunk may extend the token). Chunking is per-character
//!    ([`Tokenizer::is_word_char`]), so tokenizing complete chunks yields
//!    the same tokens as tokenizing the whole text.
//! 3. **Window carry** — only the trailing `L_max − 1` tokens are retained,
//!    where `L_max` is the longest admissible window at the stream's τ
//!    (always finite: [`metric_window_bounds`] caps even the Overlap
//!    metric). After `T` total tokens, every window starting at
//!    `p ≤ T − L_max` is fully contained in the tokens seen, so its
//!    matches can never be extended or re-scored by future input: the
//!    *watermark* `W = T − L_max + 1` advances monotonically and each feed
//!    emits exactly the matches whose start lies in `[W_prev, W)` —
//!    exactly once, as early as possible. [`StreamExtractor::finish`]
//!    flushes the held-back tail and emits the remainder.
//!
//! Steady-state feeding is allocation-free: the extractor reuses one
//! [`Document`], one [`ExtractScratch`] and a set of carry buffers that
//! retain their high-water capacity (asserted by the counting-allocator
//! gate `zero_alloc_stream.rs`, mirroring core's `zero_alloc.rs`).

use aeetes_core::{ExtractBackend, ExtractLimits, ExtractScratch};
use aeetes_index::metric_window_bounds;
use aeetes_rules::DerivedId;
use aeetes_sim::Metric;
use aeetes_text::{Document, EntityId, Interner, TokenId, Tokenizer};

/// One match emitted by a stream, in global stream coordinates.
///
/// `start`/`len` are token coordinates over the whole stream (the document
/// a non-streaming engine would have seen); `byte_start`/`byte_end` are
/// byte offsets into the decoded stream, which for valid UTF-8 input equal
/// offsets into the fed bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMatch {
    /// The origin entity from the dictionary.
    pub entity: EntityId,
    /// Global token start position.
    pub start: u64,
    /// Match length in tokens.
    pub len: u32,
    /// The exact similarity score.
    pub score: f64,
    /// The derived variant achieving the maximum.
    pub best_variant: DerivedId,
    /// Byte offset of the first matched token in the decoded stream.
    pub byte_start: u64,
    /// Byte offset one past the last matched token in the decoded stream.
    pub byte_end: u64,
}

/// Incremental extraction state over one logical document fed as chunks.
///
/// The extractor does not own the engine: [`StreamExtractor::feed`] and
/// [`StreamExtractor::finish`] take the backend (and tokenizer/interner)
/// per call, so a server can pin an engine generation per stream without
/// creating reference cycles. A `finish` resets positional state, making
/// the same extractor (and its warmed buffers) reusable for the next
/// document on the same stream.
#[derive(Debug)]
pub struct StreamExtractor {
    tau: f64,
    metric: Metric,
    /// Longest admissible window at `tau`; `None` for an empty dictionary
    /// (nothing can ever match — tokens are discarded as they settle).
    lmax: Option<usize>,

    /// Undecoded suffix bytes (an incomplete UTF-8 sequence, ≤ 3 bytes in
    /// steady state).
    pending_bytes: Vec<u8>,
    /// Decoded but not yet tokenized text: the held-back trailing word run.
    carry_text: String,
    /// Global decoded-byte offset of `carry_text[0]`.
    text_base: u64,

    /// Retained trailing tokens, starting at global token index `base`.
    tail: Vec<TokenId>,
    /// Global decoded-byte span of each tail token, parallel to `tail`.
    tail_spans: Vec<(u64, u64)>,
    /// Global token index of `tail[0]` — also the emission watermark:
    /// every match starting before it has already been emitted.
    base: u64,

    ids_buf: Vec<TokenId>,
    spans_buf: Vec<(u32, u32)>,
    doc: Document,
    scratch: ExtractScratch,
    out: Vec<StreamMatch>,

    chunks: u64,
    tokens_seen: u64,
    emitted: u64,
}

impl StreamExtractor {
    /// Creates a stream at threshold `tau` against `backend`'s dictionary.
    /// The tail retention bound `L_max` is derived once, here — a server
    /// that pins the backend per stream keeps it stable across reloads.
    ///
    /// # Panics
    /// Panics when `tau` is not in `(0, 1]`.
    pub fn new(backend: &dyn ExtractBackend, tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "similarity threshold must be in (0, 1], got {tau}");
        let metric = backend.config().metric;
        let lmax = backend
            .set_len_range()
            .and_then(|(lo, hi)| metric_window_bounds(Some(lo), Some(hi), tau, metric))
            .map(|b| b.max);
        StreamExtractor {
            tau,
            metric,
            lmax,
            pending_bytes: Vec::new(),
            carry_text: String::new(),
            text_base: 0,
            tail: Vec::new(),
            tail_spans: Vec::new(),
            base: 0,
            ids_buf: Vec::new(),
            spans_buf: Vec::new(),
            doc: Document::default(),
            scratch: ExtractScratch::new(),
            out: Vec::new(),
            chunks: 0,
            tokens_seen: 0,
            emitted: 0,
        }
    }

    /// The stream's similarity threshold.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The stream's metric (the backend's configured one, captured at
    /// [`StreamExtractor::new`]).
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The tail retention bound: windows are settled once `L_max − 1`
    /// further tokens have arrived. `None` for an empty dictionary.
    pub fn max_window_len(&self) -> Option<usize> {
        self.lmax
    }

    /// Tokens currently carried across chunk boundaries.
    pub fn carried_tokens(&self) -> usize {
        self.tail.len()
    }

    /// Bytes currently buffered: undecoded bytes, the held-back word run,
    /// and the byte extent of the carried token tail. This is the number a
    /// server charges against its admission accounting.
    pub fn carried_bytes(&self) -> usize {
        let tail_extent = match (self.tail_spans.first(), self.tail_spans.last()) {
            (Some(first), Some(last)) => (last.1 - first.0) as usize,
            _ => 0,
        };
        self.pending_bytes.len() + self.carry_text.len() + tail_extent
    }

    /// Chunks fed since creation (cumulative across `finish` resets).
    pub fn chunks_fed(&self) -> u64 {
        self.chunks
    }

    /// Tokens decoded since creation (cumulative across `finish` resets).
    pub fn tokens_seen(&self) -> u64 {
        self.tokens_seen
    }

    /// Matches emitted since creation (cumulative across `finish` resets).
    pub fn matches_emitted(&self) -> u64 {
        self.emitted
    }

    /// Feeds one chunk of raw bytes and returns the matches this chunk
    /// settled — each exactly once, in global `(start, len, entity)` order,
    /// bit-identical to what whole-document extraction would report for
    /// them. The slice is valid until the next call.
    pub fn feed<'a>(&'a mut self, backend: &dyn ExtractBackend, tokenizer: &Tokenizer, interner: &mut Interner, chunk: &[u8]) -> &'a [StreamMatch] {
        self.chunks += 1;
        self.pending_bytes.extend_from_slice(chunk);
        self.decode_pending(false);
        self.tokenize_ready(tokenizer, interner, false);
        self.run_extraction(backend, false);
        &self.out
    }

    /// Flushes every carried byte, token and window: decodes the held
    /// suffix (an incomplete final UTF-8 sequence becomes U+FFFD, exactly
    /// as lossy decoding of the whole input would), tokenizes the held-back
    /// word run, and emits all remaining matches. Afterwards the extractor
    /// is reset (global offsets back to zero) and ready for the next
    /// document, keeping its warmed buffers.
    pub fn finish<'a>(&'a mut self, backend: &dyn ExtractBackend, tokenizer: &Tokenizer, interner: &mut Interner) -> &'a [StreamMatch] {
        self.decode_pending(true);
        self.tokenize_ready(tokenizer, interner, true);
        self.run_extraction(backend, true);
        self.base = 0;
        self.text_base = 0;
        &self.out
    }

    /// Decodes the maximal prefix of `pending_bytes` into `carry_text`,
    /// substituting U+FFFD for invalid subparts per the
    /// `String::from_utf8_lossy` algorithm. Without `flush`, a trailing
    /// sequence that is a valid prefix of a longer encoding is held for the
    /// next chunk; with it, the truncated sequence is also substituted.
    fn decode_pending(&mut self, flush: bool) {
        let mut i = 0;
        loop {
            match std::str::from_utf8(&self.pending_bytes[i..]) {
                Ok(s) => {
                    self.carry_text.push_str(s);
                    i = self.pending_bytes.len();
                    break;
                }
                Err(e) => {
                    let valid = e.valid_up_to();
                    // The validated prefix is sound UTF-8 by construction.
                    self.carry_text
                        .push_str(std::str::from_utf8(&self.pending_bytes[i..i + valid]).expect("validated prefix"));
                    i += valid;
                    match e.error_len() {
                        Some(bad) => {
                            self.carry_text.push('\u{FFFD}');
                            i += bad;
                        }
                        None => {
                            if flush {
                                self.carry_text.push('\u{FFFD}');
                                i = self.pending_bytes.len();
                            }
                            break;
                        }
                    }
                }
            }
        }
        self.pending_bytes.drain(..i);
    }

    /// Tokenizes the ready prefix of `carry_text` into the tail. Without
    /// `flush`, the trailing run of word characters is held back — the next
    /// chunk may extend that token; with it, everything is tokenized.
    fn tokenize_ready(&mut self, tokenizer: &Tokenizer, interner: &mut Interner, flush: bool) {
        let cut = if flush {
            self.carry_text.len()
        } else {
            let mut cut = self.carry_text.len();
            for (i, c) in self.carry_text.char_indices().rev() {
                if tokenizer.is_word_char(c) {
                    cut = i;
                } else {
                    break;
                }
            }
            cut
        };
        if cut == 0 {
            return;
        }
        self.ids_buf.clear();
        self.spans_buf.clear();
        tokenizer.tokenize_spanned_into(&self.carry_text[..cut], interner, &mut self.ids_buf, &mut self.spans_buf);
        for (&id, &(s, e)) in self.ids_buf.iter().zip(&self.spans_buf) {
            self.tail.push(id);
            self.tail_spans.push((self.text_base + s as u64, self.text_base + e as u64));
        }
        self.tokens_seen += self.ids_buf.len() as u64;
        self.text_base += cut as u64;
        self.carry_text.drain(..cut);
    }

    /// Extracts over the retained tail and emits the newly settled matches:
    /// those starting before the advanced watermark. The tail then drains
    /// to the watermark, keeping exactly the trailing `L_max − 1` tokens
    /// (everything, on `flush`).
    fn run_extraction(&mut self, backend: &dyn ExtractBackend, flush: bool) {
        self.out.clear();
        let total = self.base + self.tail.len() as u64;
        let Some(lmax) = self.lmax else {
            // Empty dictionary: no window can ever match.
            self.tail.clear();
            self.tail_spans.clear();
            self.base = total;
            return;
        };
        let watermark = if flush {
            total
        } else {
            (total + 1).saturating_sub(lmax as u64).max(self.base)
        };
        if watermark == self.base {
            return; // nothing newly settled; every match would re-surface later
        }
        self.doc.assign_tokens(&self.tail);
        let outcome = backend.extract_scratched(&self.doc, self.tau, &ExtractLimits::UNLIMITED, None, &mut self.scratch);
        let cutoff = (watermark - self.base) as u32;
        for m in outcome.matches {
            if m.span.start >= cutoff {
                break; // sorted by start: the rest is unsettled
            }
            let first = m.span.start as usize;
            let last = m.span.end() - 1;
            self.out.push(StreamMatch {
                entity: m.entity,
                start: self.base + m.span.start as u64,
                len: m.span.len,
                score: m.score,
                best_variant: m.best_variant,
                byte_start: self.tail_spans[first].0,
                byte_end: self.tail_spans[last].1,
            });
        }
        self.emitted += self.out.len() as u64;
        let drop = (watermark - self.base) as usize;
        self.tail.drain(..drop);
        self.tail_spans.drain(..drop);
        self.base = watermark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_core::{Aeetes, AeetesConfig, Match};
    use aeetes_rules::RuleSet;
    use aeetes_text::Dictionary;

    fn fixture() -> (Aeetes, Interner, Tokenizer) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("purdue university usa", &tok, &mut int);
        dict.push("uq au", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
        rules.push_str("usa", "united states", &tok, &mut int).unwrap();
        let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        (engine, int, tok)
    }

    fn whole(engine: &Aeetes, tok: &Tokenizer, int: &mut Interner, text: &str, tau: f64) -> Vec<Match> {
        let doc = Document::parse(text, tok, int);
        engine.extract(&doc, tau)
    }

    fn streamed(engine: &Aeetes, tok: &Tokenizer, int: &mut Interner, chunks: &[&[u8]], tau: f64) -> Vec<StreamMatch> {
        let mut s = StreamExtractor::new(engine, tau);
        let mut got = Vec::new();
        for c in chunks {
            got.extend_from_slice(s.feed(engine, tok, int, c));
        }
        got.extend_from_slice(s.finish(engine, tok, int));
        got
    }

    fn assert_same(stream: &[StreamMatch], doc: &[Match]) {
        assert_eq!(stream.len(), doc.len(), "stream {stream:?} vs doc {doc:?}");
        for (s, d) in stream.iter().zip(doc) {
            assert_eq!(s.start, d.span.start as u64);
            assert_eq!(s.len, d.span.len);
            assert_eq!(s.entity, d.entity);
            assert_eq!(s.score, d.score);
            assert_eq!(s.best_variant, d.best_variant);
        }
    }

    #[test]
    fn single_chunk_equals_whole_document() {
        let (engine, mut int, tok) = fixture();
        let text = "she left purdue university usa for uq au last year";
        let expect = whole(&engine, &tok, &mut int.clone(), text, 0.8);
        let got = streamed(&engine, &tok, &mut int, &[text.as_bytes()], 0.8);
        assert_same(&got, &expect);
    }

    #[test]
    fn byte_at_a_time_equals_whole_document() {
        let (engine, mut int, tok) = fixture();
        let text = "purdue university united states then university of queensland australia";
        let expect = whole(&engine, &tok, &mut int.clone(), text, 0.7);
        let chunks: Vec<&[u8]> = text.as_bytes().chunks(1).collect();
        let got = streamed(&engine, &tok, &mut int, &chunks, 0.7);
        assert_same(&got, &expect);
    }

    #[test]
    fn mid_utf8_split_is_carried() {
        let (engine, mut int, tok) = fixture();
        let text = "café uq au café"; // é = 2 bytes
        let expect = whole(&engine, &tok, &mut int.clone(), text, 0.9);
        let bytes = text.as_bytes();
        let got = streamed(&engine, &tok, &mut int, &[&bytes[..4], &bytes[4..]], 0.9);
        assert_same(&got, &expect);
    }

    #[test]
    fn matches_emit_before_finish_once_settled() {
        let (engine, mut int, tok) = fixture();
        let mut s = StreamExtractor::new(&engine, 0.8);
        let lmax = s.max_window_len().expect("nonempty dictionary");
        // Enough trailing filler to push the match past the watermark.
        let filler = " x".repeat(lmax + 2);
        let text = format!("uq au{filler}");
        let early = s.feed(&engine, &tok, &mut int, text.as_bytes()).to_vec();
        assert!(early.iter().any(|m| m.start == 0 && m.len == 2), "settled match must emit without finish: {early:?}");
        let late = s.finish(&engine, &tok, &mut int);
        assert!(late.iter().all(|m| m.start > 0), "no duplicate emission at finish");
    }

    #[test]
    fn byte_offsets_recover_matched_text() {
        let (engine, mut int, tok) = fixture();
        let text = "visit Purdue University USA today";
        let got = streamed(&engine, &tok, &mut int, &[text.as_bytes()], 0.9);
        let m = got.iter().find(|m| m.len == 3).expect("three-token match");
        assert_eq!(&text[m.byte_start as usize..m.byte_end as usize], "Purdue University USA");
    }

    #[test]
    fn finish_resets_for_next_document() {
        let (engine, mut int, tok) = fixture();
        let mut s = StreamExtractor::new(&engine, 0.9);
        for _ in 0..2 {
            let a = s.feed(&engine, &tok, &mut int, b"uq ").to_vec();
            let b = s.feed(&engine, &tok, &mut int, b"au").to_vec();
            let end = s.finish(&engine, &tok, &mut int);
            let all: Vec<_> = a.iter().chain(&b).chain(end).collect();
            assert_eq!(all.len(), 1, "{all:?}");
            assert_eq!(all[0].start, 0, "offsets reset per document");
            assert_eq!(s.carried_tokens(), 0);
            assert_eq!(s.carried_bytes(), 0);
        }
        assert_eq!(s.matches_emitted(), 2);
    }

    #[test]
    fn empty_dictionary_stream_never_matches_or_retains() {
        let int0 = Interner::new();
        let engine = Aeetes::build(Dictionary::new(), &RuleSet::new(), &int0, AeetesConfig::default());
        let tok = Tokenizer::default();
        let mut int = int0.clone();
        let mut s = StreamExtractor::new(&engine, 0.8);
        assert!(s.max_window_len().is_none());
        assert!(s.feed(&engine, &tok, &mut int, b"some words here ").is_empty());
        assert_eq!(s.carried_tokens(), 0, "tokens discarded immediately");
        assert!(s.finish(&engine, &tok, &mut int).is_empty());
    }

    #[test]
    #[should_panic(expected = "similarity threshold")]
    fn zero_tau_panics() {
        let (engine, ..) = fixture();
        let _ = StreamExtractor::new(&engine, 0.0);
    }

    #[test]
    fn invalid_utf8_matches_lossy_whole_document() {
        let (engine, mut int, tok) = fixture();
        let mut bytes = b"uq au ".to_vec();
        bytes.extend_from_slice(&[0xE0, 0x80, 0xFF]); // invalid sequence
        bytes.extend_from_slice(b" uq au");
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let expect = whole(&engine, &tok, &mut int.clone(), &text, 0.9);
        let chunks: Vec<&[u8]> = bytes.chunks(2).collect();
        let got = streamed(&engine, &tok, &mut int, &chunks, 0.9);
        assert_same(&got, &expect);
    }
}
