//! Fault-injection tests for the robustness layer: corrupt engine artifacts
//! must fail with errors (never panic or over-allocate) and exhausted
//! budgets must return immediately with `truncated = true`. (Batch panic
//! isolation is tested in the `aeetes-pool` crate with the executor.)

use aeetes_core::{
    extract_segment, freeze_to_bytes, open_frozen_bytes, peek_info, Aeetes, AeetesConfig, ExtractBackend, ExtractLimits, ExtractScratch,
    FreezeSegment, FreezeSource, FrozenParts, Match, Strategy,
};
use aeetes_rules::RuleSet;
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

/// The sample engine's artifact: the corruption walks below cross its
/// global *and* its index sections.
fn frozen_bytes() -> Vec<u8> {
    let (engine, int, rules) = sample_engine(AeetesConfig::default());
    freeze(&engine, &int, &rules)
}

/// Section kinds of the v11 table this file patches.
const ORDER_KEY: u32 = 2;
const IX_ORIGIN_ENTITY: u32 = 23;
const IX_BLOCKS: u32 = 26;

/// Where the section table entry `{kind, width, off, len}` of `kind` sits.
fn entry(bytes: &[u8], kind: u32) -> usize {
    (0..)
        .map(|i| 24 + 24 * i)
        .find(|&at| bytes[at..at + 4] == kind.to_le_bytes())
        .expect("a section of the kind")
}

/// `bytes` with `with` written at `at`, resealed so that it reaches validation.
fn patched(bytes: &[u8], at: usize, with: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 4].copy_from_slice(&with.to_le_bytes());
    let end = out.len() - 4;
    let crc = reference_crc32(&out[..end]);
    out[end..].copy_from_slice(&crc.to_le_bytes());
    out
}

fn refused_by_name(bytes: &[u8], expect: &str) {
    for err in [open_frozen_bytes(bytes).err(), peek_info(bytes).err()] {
        let err = err.unwrap_or_else(|| panic!("must be refused: {expect}")).to_string();
        assert!(err.contains(expect), "expected `{expect}` in `{err}`");
    }
}

/// Artifacts of the layouts before this one — v10's lowest position per
/// cluster, v9's section table whose second word is a segment — are refused
/// by their version word, whatever follows it.
#[test]
fn v9_and_v10_images_are_refused_by_name() {
    for version in [9, 10] {
        let bytes = patched(&frozen_bytes(), 4, version);
        assert!(matches!(open_frozen_bytes(&bytes), Err(aeetes_core::PersistError::UnsupportedVersion(v)) if v == version));
        assert!(matches!(peek_info(&bytes), Err(aeetes_core::PersistError::UnsupportedVersion(v)) if v == version));
    }
}

/// CRC-valid images whose id width lies: each is refused by name by the
/// opener and the peek alike.
#[test]
fn images_whose_id_width_lies_are_refused() {
    let (engine, int, rules) = sample_engine(AeetesConfig::default());
    let bytes = freeze(&engine, &int, &rules);
    let width = |kind: u32| entry(&bytes, kind) + 4;
    refused_by_name(&patched(&bytes, width(ORDER_KEY), 2), "section order.key is stored 2 bytes wide, not 4");
    refused_by_name(&patched(&bytes, width(IX_BLOCKS), 4), "ix.origin_entity is stored 2 bytes wide but ix.blocks 4");
    // The sample's first origin pools five keys at 16 bits: three words, the
    // last one's upper half spare.
    let ix = engine.index().raw_parts();
    assert_eq!((ix.blocks[0], ix.blocks[3] >> 16), (5, 0));
    let blocks = u64::from_le_bytes(bytes[entry(&bytes, IX_BLOCKS) + 8..][..8].try_into().unwrap()) as usize;
    refused_by_name(&patched(&bytes, blocks + 12, ix.blocks[3] | 7 << 16), "origin 0's pool of 5 ranks leaves a non-zero spare half-word");
    let ranks = engine.index().order().ranks() as u32;
    refused_by_name(
        &patched(&bytes, blocks + 12, ranks),
        &format!("origin 0's pool holds rank {ranks} but the order hands out only {ranks}"),
    );

    // A dictionary of 65 537 one-token entities has 65 537 origins and ranks,
    // so it is stored at 32 bits; the same image claiming 16 is refused
    // before anything is read at that width.
    let mut int = Interner::new();
    let tok = Tokenizer::default();
    let mut dict = Dictionary::new();
    for e in 0..=1 << 16 {
        dict.push(&format!("t{e}"), &tok, &mut int);
    }
    let wide = Aeetes::build(dict, &RuleSet::new(), &int, AeetesConfig::default());
    assert_eq!(wide.index().width(), aeetes_index::IdWidth::U32);
    let bytes = freeze(&wide, &int, &RuleSet::new());
    let narrow = patched(&patched(&bytes, entry(&bytes, IX_ORIGIN_ENTITY) + 4, 2), entry(&bytes, IX_BLOCKS) + 4, 2);
    refused_by_name(&narrow, "index: a 16-bit index over 65537 origins and 65537 ranks");
    // As written it opens, and the index reports as its size the sections
    // it reads, at the width they are stored at.
    let info = peek_info(&bytes).expect("the image as written opens");
    let read = info.sections.iter().filter(|s| s.kind.starts_with("ix.") || s.kind == "dd.by_origin");
    assert_eq!(wide.index().size_bytes(), read.map(|s| s.len).sum::<usize>());
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
        let mut bytes = b"AEET\x0b\x00\x00\x00".to_vec();
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
    extract_segment(
        &parts.index,
        &parts.dd,
        doc,
        tau,
        parts.config.strategy,
        parts.config.metric,
        false,
        None,
        &ExtractLimits::UNLIMITED,
        None,
    )
    .matches
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
