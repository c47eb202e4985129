//! Fault-injection tests for the robustness layer: corrupt engine artifacts
//! must fail with errors (never panic or over-allocate) and exhausted
//! budgets must return immediately with `truncated = true`. (Batch panic
//! isolation is tested in the `aeetes-pool` crate with the executor.)

use aeetes_core::{
    extract_segment, freeze_to_bytes, open_frozen_bytes, Aeetes, AeetesConfig, ExtractBackend, ExtractLimits, ExtractScratch, FreezeSegment,
    FreezeSource, FrozenParts, Match, Strategy,
};
use aeetes_index::ClusteredIndex;
use aeetes_rules::{DerivedDictionary, RuleSet};
use aeetes_sim::Metric;
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use proptest::prelude::*;

fn sample_engine(config: AeetesConfig) -> (Aeetes, Interner, RuleSet) {
    let mut int = Interner::new();
    let tok = Tokenizer::default();
    let mut dict = Dictionary::new();
    dict.push("purdue university usa", &tok, &mut int);
    dict.push("uq au", &tok, &mut int);
    dict.push("university of wisconsin madison", &tok, &mut int);
    let mut rules = RuleSet::new();
    rules.push_str("uq", "university of queensland", &tok, &mut int).unwrap();
    rules.push_str("usa", "united states", &tok, &mut int).unwrap();
    rules.push_weighted_str("au", "australia", 0.9, &tok, &mut int).unwrap();
    (Aeetes::build(dict, &rules, &int, config), int, rules)
}

/// The engine frozen as a one-segment artifact.
fn freeze(engine: &Aeetes, int: &Interner, rules: &RuleSet) -> Vec<u8> {
    freeze_to_bytes(&FreezeSource {
        interner: int,
        dict: engine.dictionary(),
        removed: &[],
        rules,
        config: engine.config(),
        generation: 1,
        order: engine.index().order(),
        segments: vec![FreezeSegment { dd: engine.derived(), index: engine.index() }],
    })
}

/// A two-segment artifact (even-id origins, odd-id origins), so the
/// corruption walks below cross global *and* per-segment sections.
fn frozen_bytes() -> Vec<u8> {
    let (engine, int, rules) = sample_engine(AeetesConfig::default());
    let (dict, config) = (engine.dictionary(), engine.config());
    let order = engine.index().shared_order();
    let dds = [0, 1].map(|r| DerivedDictionary::build_filtered(dict, &rules, &config.derive, |e| e.0 % 2 == r));
    let indexes = [0, 1].map(|i| ClusteredIndex::build_with_order(&dds[i], order.clone()));
    freeze_to_bytes(&FreezeSource {
        interner: &int,
        dict,
        removed: &[],
        rules: &rules,
        config,
        generation: 1,
        order: &order,
        segments: dds.iter().zip(&indexes).map(|(dd, index)| FreezeSegment { dd, index }).collect(),
    })
}

/// Every strict prefix of a valid artifact is rejected with an error.
/// This walks through *every* byte of the format — magic, version,
/// generation, section table, each section and its padding, checksum.
#[test]
fn truncation_at_every_byte_is_an_error_not_a_panic() {
    let bytes = frozen_bytes();
    for len in 0..bytes.len() {
        let r = open_frozen_bytes(&bytes[..len]);
        assert!(r.is_err(), "prefix of {len}/{} bytes must not open", bytes.len());
    }
}

/// Every single-bit flip anywhere in the file is caught: the whole-file
/// CRC-32 is verified before anything is decoded and detects all single-bit
/// errors, in header, section table, payload, padding and footer alike. No
/// flip may panic or abort.
#[test]
fn every_single_bit_flip_is_detected() {
    let bytes = frozen_bytes();
    for i in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            let r = open_frozen_bytes(&corrupt);
            assert!(r.is_err(), "flip byte {i} bit {bit} must be rejected");
        }
    }
}

/// Appending garbage after a valid file is rejected (the checksum footer
/// is the file's last four bytes, so extra bytes displace it).
#[test]
fn appended_garbage_is_rejected() {
    let mut bytes = frozen_bytes();
    bytes.extend_from_slice(b"\0\0\0\0trailing");
    assert!(open_frozen_bytes(&bytes).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup up to 64 KiB never panics and never makes the
    /// opener allocate past the input.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..65536)) {
        let _ = open_frozen_bytes(&bytes);
    }

    /// Byte soup behind a valid header *and* a matching checksum is the
    /// adversarial case: it gets past the magic, version and CRC checks to
    /// the section-table and arena validation the CRC otherwise shields.
    /// Forged counts, offsets and lengths must be bounds-checked, never
    /// trusted.
    #[test]
    fn byte_soup_with_valid_header_never_panics(tail in proptest::collection::vec(0u8..=255, 0..4096)) {
        let mut bytes = b"AEET\x09\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&tail);
        let crc = reference_crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let _ = open_frozen_bytes(&bytes);
    }
}

/// Bitwise CRC-32/ISO-HDLC, independent of the library's implementation.
fn reference_crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

fn extract_frozen(parts: &FrozenParts, doc: &Document, tau: f64) -> Vec<Match> {
    let seg = &parts.segments[0];
    extract_segment(&seg.index, &seg.dd, doc, tau, parts.config.strategy, parts.config.metric, false, None, &ExtractLimits::UNLIMITED, None).matches
}

/// Engines round-trip across every `Strategy` × `Metric` configuration:
/// the config survives and extraction results are identical.
#[test]
fn round_trip_across_every_strategy_and_metric() {
    for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
        for metric in [Metric::Jaccard, Metric::Dice, Metric::Cosine, Metric::Overlap] {
            let config = AeetesConfig { strategy, metric, ..AeetesConfig::default() };
            let (engine, int, rules) = sample_engine(config);
            let opened = open_frozen_bytes(&freeze(&engine, &int, &rules)).unwrap_or_else(|e| panic!("{strategy} × {metric}: {e}"));
            assert_eq!(opened.config.strategy, strategy);
            assert_eq!(opened.config.metric, metric);
            let tok = Tokenizer::default();
            let text = "purdue university united states met the university of queensland australia";
            let doc = Document::parse(text, &tok, &mut opened.interner.clone());
            let doc2 = Document::parse(text, &tok, &mut int.clone());
            let original = engine.extract(&doc2, 0.7);
            let reopened = extract_frozen(&opened, &doc, 0.7);
            assert_eq!(original.len(), reopened.len(), "{strategy} × {metric}");
            for (a, b) in original.iter().zip(&reopened) {
                assert_eq!(a.span, b.span);
                assert_eq!(a.entity, b.entity);
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
    }
}

/// A zero-candidate budget returns immediately with `truncated = true` and
/// no matches — even for empty documents — for every strategy.
#[test]
fn zero_budget_returns_immediately_truncated() {
    let limits = ExtractLimits { max_candidates: Some(0), ..ExtractLimits::UNLIMITED };
    for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
        let (engine, mut int, _) = sample_engine(AeetesConfig { strategy, ..AeetesConfig::default() });
        let tok = Tokenizer::default();
        for text in ["purdue university usa and uq au", ""] {
            let doc = Document::parse(text, &tok, &mut int);
            let out = engine.extract_scratched(&doc, 0.8, &limits, None, &mut ExtractScratch::new()).to_outcome();
            assert!(out.truncated, "{strategy} on {text:?}");
            assert!(out.matches.is_empty());
        }
    }
}

/// Partial results under a tight budget are a subset of the full results
/// for every strategy (budgets may drop matches, never invent them).
#[test]
fn budgeted_results_are_subsets_of_full_results() {
    for strategy in [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy] {
        let (engine, mut int, _) = sample_engine(AeetesConfig { strategy, ..AeetesConfig::default() });
        let tok = Tokenizer::default();
        let doc =
            Document::parse("purdue university usa then uq au then university of wisconsin madison again purdue university usa", &tok, &mut int);
        let full = engine.extract(&doc, 0.8);
        for cap in 0..=full.len() + 1 {
            let limits = ExtractLimits { max_matches: Some(cap), ..ExtractLimits::UNLIMITED };
            let out = engine.extract_scratched(&doc, 0.8, &limits, None, &mut ExtractScratch::new()).to_outcome();
            assert!(out.matches.len() <= cap.max(full.len()), "{strategy} cap={cap}");
            for m in &out.matches {
                assert!(full.contains(m), "{strategy} cap={cap} invented {m:?}");
            }
        }
    }
}
