//! The stream's byte handling: for arbitrary (possibly invalid) bytes cut
//! into arbitrary chunks, the concatenated [`StreamExtractor::feed`]
//! outputs plus the [`StreamExtractor::finish`] flush are bit-identical to
//! extraction over `String::from_utf8_lossy` of the whole input, which is
//! what the incremental decoder promises to reproduce; and the byte spans it
//! reports slice the source text. That the stream answers as whole-document
//! extraction for every strategy, build and state is the root package's
//! `conformance` harness.

use aeetes_core::{Aeetes, AeetesConfig, Match};
use aeetes_rules::RuleSet;
use aeetes_stream::{StreamExtractor, StreamMatch};
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Words the generator draws from: dictionary hits, rule right-hand sides,
/// noise, and multi-byte UTF-8 words so byte-level splits land inside
/// characters.
const VOCAB: [&str; 12] = [
    "purdue",
    "university",
    "usa",
    "uq",
    "au",
    "united",
    "states",
    "of",
    "queensland",
    "café",
    "zürich",
    "noise",
];

struct Fixture {
    engine: Aeetes,
    interner: Interner,
    tokenizer: Tokenizer,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("purdue university usa", &tok, &mut int);
        dict.push("uq au", &tok, &mut int);
        dict.push("university of queensland", &tok, &mut int);
        dict.push("café zürich", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
        rules.push_str("usa", "united states", &tok, &mut int).unwrap();
        let engine = Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        Fixture { engine, interner: int, tokenizer: tok }
    })
}

/// Splits `bytes` at the (sorted, deduped) cut offsets and runs the
/// stream; returns the concatenated feed + finish outputs.
fn run_stream(engine: &Aeetes, tok: &Tokenizer, int: &mut Interner, bytes: &[u8], cuts: &[usize], tau: f64) -> Vec<StreamMatch> {
    let mut s = StreamExtractor::new(engine, tau);
    let mut got = Vec::new();
    let mut prev = 0;
    for &c in cuts {
        let c = c.min(bytes.len());
        got.extend_from_slice(s.feed(engine, tok, int, &bytes[prev..c]));
        prev = c;
    }
    got.extend_from_slice(s.feed(engine, tok, int, &bytes[prev..]));
    got.extend_from_slice(s.finish(engine, tok, int));
    got
}

fn assert_bit_identical(stream: &[StreamMatch], doc_matches: &[Match]) -> Result<(), TestCaseError> {
    prop_assert_eq!(stream.len(), doc_matches.len(), "{:?} vs {:?}", stream, doc_matches);
    for (s, d) in stream.iter().zip(doc_matches) {
        prop_assert_eq!(s.start, d.span.start as u64);
        prop_assert_eq!(s.len, d.span.len);
        prop_assert_eq!(s.entity, d.entity);
        prop_assert_eq!(s.score, d.score);
        prop_assert_eq!(s.best_variant, d.best_variant);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes — including invalid UTF-8 — chunked arbitrarily.
    /// Oracle: lossy-decode the whole input, extract over that.
    #[test]
    fn arbitrary_bytes_match_lossy_oracle(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
        cuts in proptest::collection::vec(0usize..300, 0..10),
        words in proptest::collection::vec(0usize..VOCAB.len(), 0..10),
    ) {
        let fix = fixture();
        // Mix generated words into the raw bytes so some cases still match.
        let mut bytes = bytes;
        for &w in &words {
            bytes.extend_from_slice(b" ");
            bytes.extend_from_slice(VOCAB[w].as_bytes());
        }
        let mut cuts = cuts;
        cuts.sort_unstable();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let engine = &fix.engine;
        let mut whole_int = fix.interner.clone();
        let doc = Document::parse(&text, &fix.tokenizer, &mut whole_int);
        let expect = engine.extract(&doc, 0.7);
        let mut stream_int = fix.interner.clone();
        let got = run_stream(engine, &fix.tokenizer, &mut stream_int, &bytes, &cuts, 0.7);
        assert_bit_identical(&got, &expect)?;
    }

    /// Byte spans reported by the stream slice the original text back out
    /// whenever the input is valid UTF-8.
    #[test]
    fn byte_spans_slice_source_text(
        words in proptest::collection::vec(0usize..VOCAB.len(), 0..30),
        cuts in proptest::collection::vec(0usize..300, 0..8),
    ) {
        let fix = fixture();
        let text: String = words.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ");
        let mut cuts = cuts;
        cuts.sort_unstable();
        let engine = &fix.engine;
        let mut int = fix.interner.clone();
        let got = run_stream(engine, &fix.tokenizer, &mut int, text.as_bytes(), &cuts, 0.7);
        for m in &got {
            let slice = &text[m.byte_start as usize..m.byte_end as usize];
            // The slice must re-tokenize to exactly the matched span length.
            let n = fix.tokenizer.tokenize(slice, &mut int).len();
            prop_assert_eq!(n as u32, m.len, "span {:?} -> {:?}", m, slice);
        }
    }
}
