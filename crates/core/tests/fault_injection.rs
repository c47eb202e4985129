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

/// Section kinds of the v14 table this file patches.
const ORDER_KEY: u32 = 2;
const ORDER_UNTIE: u32 = 3;
const STR_BYTES: u32 = 4;
const STR_OFF: u32 = 5;
const DICT_RAWS: u32 = 30;
const DICT_RAW_OFF: u32 = 31;
const DICT_TOKENS: u32 = 32;
const DICT_TOK_OFF: u32 = 33;
const IX_ORIGIN_ENTITY: u32 = 23;
const IX_BLOCKS: u32 = 26;
const RULES_SIDES: u32 = 40;
const RULES_SIDE_OFF: u32 = 41;
const RULES_WEIGHT: u32 = 42;

/// Where the section table entry `{kind, width, off, len}` of `kind` sits.
fn entry(bytes: &[u8], kind: u32) -> usize {
    (0..)
        .map(|i| 24 + 24 * i)
        .find(|&at| bytes[at..at + 4] == kind.to_le_bytes())
        .expect("a section of the kind")
}

/// `bytes` with `with` written at `at`, resealed so that it reaches validation.
fn patched(bytes: &[u8], at: usize, with: u32) -> Vec<u8> {
    patched_with(bytes, at, &with.to_le_bytes())
}

/// `bytes` with the bytes `with` written at `at`, resealed.
fn patched_with(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + with.len()].copy_from_slice(with);
    let end = out.len() - 4;
    let crc = reference_crc32(&out[..end]);
    out[end..].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Refused as corruption whose message holds `expect`, by the opener and
/// the peek alike.
fn corrupt(bytes: &[u8], expect: &str) {
    for err in [open_frozen_bytes(bytes).err(), peek_info(bytes).err()] {
        match err {
            Some(aeetes_core::PersistError::Corrupt(msg)) => assert!(msg.contains(expect), "expected `{expect}` in `{msg}`"),
            other => panic!("must be refused as corrupt ({expect}), got {other:?}"),
        }
    }
}

fn refused_by_name(bytes: &[u8], expect: &str) {
    for err in [open_frozen_bytes(bytes).err(), peek_info(bytes).err()] {
        let err = err.unwrap_or_else(|| panic!("must be refused: {expect}")).to_string();
        assert!(err.contains(expect), "expected `{expect}` in `{err}`");
    }
}

/// Where the payload of section `kind` starts.
fn payload(bytes: &[u8], kind: u32) -> usize {
    let at = entry(bytes, kind) + 8;
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// CRC-valid images whose dictionary arenas lie: an opened dictionary hands
/// out surface forms and token sequences straight from the image, validated
/// once on open, so each lie is refused there — as corruption, by name, by
/// the opener and the peek alike — and never reaches a read.
#[test]
fn hostile_dictionary_arenas_are_refused_by_name() {
    let mut int = Interner::new();
    let tok = Tokenizer::default();
    let mut dict = Dictionary::new();
    // "université": the "é" is bytes 9 and 10 of 11.
    for raw in ["université", "uq au", "university of wisconsin madison"] {
        dict.push(raw, &tok, &mut int);
    }
    let engine = Aeetes::build(dict, &RuleSet::new(), &int, AeetesConfig::default());
    let bytes = freeze(&engine, &int, &RuleSet::new());
    let parts = open_frozen_bytes(&bytes).expect("the image as written opens");
    let opened: Vec<(&str, &[aeetes_text::TokenId])> = parts.dict.iter().map(|(_, e)| (e.raw, e.tokens)).collect();
    let built: Vec<(&str, &[aeetes_text::TokenId])> = engine.dictionary().iter().map(|(_, e)| (e.raw, e.tokens)).collect();
    assert_eq!(opened, built);
    assert_eq!(parts.dict.owned_bytes(), 0, "the dictionary is adopted in place");

    let [raws, raw_off, tokens, tok_off] = [DICT_RAWS, DICT_RAW_OFF, DICT_TOKENS, DICT_TOK_OFF].map(|kind| payload(&bytes, kind));
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    // The first word of the surface bytes, "univ", with its "u" made 0xFF.
    corrupt(&patched(&bytes, raws, word(raws) & !0xFF | 0xFF), "dictionary: surface form arena is not UTF-8");
    assert_eq!(word(raw_off + 4), 11);
    corrupt(&patched(&bytes, raw_off + 4, 10), "dictionary: surface form 1 starts mid-character");
    assert!(word(tok_off + 4) < word(tok_off + 8));
    corrupt(&patched(&bytes, tok_off + 4, word(tok_off + 8) + 1), "dictionary: token offsets not monotonic");
    let n_tokens = int.len() as u32;
    corrupt(&patched(&bytes, tokens, n_tokens), &format!("dictionary: entity token t{n_tokens} out of interner range {n_tokens}"));
}

/// Artifacts of the layouts before this one — v13's `order.freq` section,
/// v12's rule table in META, v11's word-aligned masks and stored string
/// hash table, v10's lowest position per cluster, v9's section table whose
/// second word is a segment — are refused by their version word, whatever
/// follows it.
#[test]
fn v9_to_v13_images_are_refused_by_name() {
    for version in [9, 10, 11, 12, 13] {
        let bytes = patched(&frozen_bytes(), 4, version);
        assert!(matches!(open_frozen_bytes(&bytes), Err(aeetes_core::PersistError::UnsupportedVersion(v)) if v == version));
        assert!(matches!(peek_info(&bytes), Err(aeetes_core::PersistError::UnsupportedVersion(v)) if v == version));
    }
}

/// CRC-valid images whose rule sections lie: the table is read from them
/// once, on open, so each lie is refused there — as corruption naming its
/// section, by the opener and the peek alike.
#[test]
fn hostile_rule_sections_are_refused_by_name() {
    let (engine, int, rules) = sample_engine(AeetesConfig::default());
    let bytes = freeze(&engine, &int, &rules);
    let parts = open_frozen_bytes(&bytes).expect("the image as written opens");
    let opened: Vec<_> = parts.rules.iter().map(|(_, r)| (r.lhs.to_vec(), r.rhs.to_vec(), r.weight)).collect();
    let built: Vec<_> = rules.iter().map(|(_, r)| (r.lhs.to_vec(), r.rhs.to_vec(), r.weight)).collect();
    assert_eq!(opened, built);
    // "uq" ⇔ "university of queensland", "usa" ⇔ "united states", "au" ⇔
    // "australia" at 0.9: nine side tokens cut by seven offsets, at 2 bytes.
    let [sides, side_off, weight] = [RULES_SIDES, RULES_SIDE_OFF, RULES_WEIGHT].map(|kind| payload(&bytes, kind));
    let half = |at: usize| u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap());
    let offsets: Vec<u16> = (0..7).map(|i| half(side_off + 2 * i)).collect();
    assert_eq!(offsets, [0, 1, 4, 5, 7, 8, 9]);
    assert_eq!(half(sides + 2 * 7), int.get("au").unwrap().0 as u16);
    let at16 = |at: usize, with: u16| patched_with(&bytes, at, &with.to_le_bytes());
    let n_tokens = int.len() as u16;
    corrupt(&at16(sides, n_tokens), &format!("rules.sides: token t{n_tokens} out of interner range {n_tokens}"));
    corrupt(&at16(side_off, 1), "rules.side_off: side offsets do not start at 0");
    corrupt(&at16(side_off + 2 * 2, 0), "rules.side_off: side offsets not monotonic");
    corrupt(&at16(side_off + 2 * 6, 10), "rules.side_off: side offsets end at 10 but the arena holds 9");
    corrupt(&at16(side_off + 2, 0), "rules.sides: rule 0 has an empty side");
    corrupt(&at16(sides + 2 * 8, half(sides + 2 * 7)), "rules.sides: rule 2 rewrites a sequence to itself");
    for (w, shown) in [(0.0, "0"), (1.5, "1.5"), (f64::NAN, "NaN")] {
        corrupt(&patched_with(&bytes, weight + 8 * 2, &w.to_le_bytes()), &format!("rules.weight: rule 2 weight {shown} outside (0, 1]"));
    }
    corrupt(&patched(&bytes, entry(&bytes, RULES_WEIGHT) + 16, 16), "rules.weight holds 2 entries, expected none or 3");
    corrupt(
        &patched(&bytes, entry(&bytes, RULES_SIDES) + 4, 4),
        "rules.sides is stored 4 bytes wide but rules.side_off 2: a rule table has one width",
    );
    // With no weight at all the rules weigh 1.0.
    let unit = open_frozen_bytes(&patched(&bytes, entry(&bytes, RULES_WEIGHT) + 16, 0)).expect("an empty rules.weight is legal");
    assert_eq!(unit.rules.weights(), Vec::<f64>::new());
}

/// CRC-valid images whose global order lies: `order.key` and `order.untie`
/// are the whole order — validity is a key's valid bit, no frequency is
/// stored — so open checks them against each other and against the
/// interner, and refuses each lie as corruption, by name.
#[test]
fn hostile_order_sections_are_refused_by_name() {
    // "spare" is interned first and occurs in no entity: token 0 is keyed
    // as its own id, inside the order's range.
    let mut int = Interner::new();
    int.intern("spare");
    let tok = Tokenizer::default();
    let dict = Dictionary::from_strings(["uq au", "university of queensland"], &tok, &mut int);
    let engine = Aeetes::build(dict, &RuleSet::new(), &int, AeetesConfig::default());
    let bytes = freeze(&engine, &int, &RuleSet::new());
    let parts = open_frozen_bytes(&bytes).expect("the image as written opens");
    assert_eq!(parts.order.raw_parts(), engine.index().order().raw_parts());
    let (key, untie) = engine.index().order().raw_parts();
    assert_eq!((key.len(), untie.len(), key[0]), (6, 5, 0));
    let [key_at, untie_at] = [ORDER_KEY, ORDER_UNTIE].map(|kind| payload(&bytes, kind));
    // Two ranks swapped.
    let swapped = patched(&patched(&bytes, untie_at, untie[1].0), untie_at + 4, untie[0].0);
    corrupt(&swapped, "global order: key/untie disagree at rank 0");
    // Rank 0's token keyed invalid, the spare one keyed valid in its place:
    // as many valid keys as ranks, but rank 0 names an invalid token.
    let moved = patched(&patched(&bytes, key_at + 4 * untie[0].idx(), untie[0].0), key_at, 0x8000_0000 | 4);
    corrupt(&moved, &format!("global order: untie rank 0 names token {:?}, keyed invalid", untie[0]));
    // The spare token keyed as another's id.
    corrupt(&patched(&bytes, key_at, 3), "global order: invalid token 0 is keyed 0x3, not as its own id");
    // The interner's last string cut off: the order's key array covers one
    // token more than the interner holds.
    let last = int.resolve(aeetes_text::TokenId(int.len() as u32 - 1)).len() as u64;
    let len_of = |kind: u32| u64::from_le_bytes(bytes[entry(&bytes, kind) + 16..][..8].try_into().unwrap());
    let short = patched_with(&bytes, entry(&bytes, STR_BYTES) + 16, &(len_of(STR_BYTES) - last).to_le_bytes());
    let short = patched_with(&short, entry(&short, STR_OFF) + 16, &(len_of(STR_OFF) - 4).to_le_bytes());
    corrupt(&short, &format!("global order covers {} tokens, interner holds {}", int.len(), int.len() - 1));
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
    // Its 65 537 tokens put the rule table at 4 bytes too; 2 is refused.
    assert_eq!(u32::from_le_bytes(bytes[entry(&bytes, RULES_SIDES) + 4..][..4].try_into().unwrap()), 4);
    let narrow = patched(&patched(&bytes, entry(&bytes, RULES_SIDES) + 4, 2), entry(&bytes, RULES_SIDE_OFF) + 4, 2);
    corrupt(&narrow, "rules.sides is stored 2 bytes wide but the interner holds 65537 tokens, past 2^16");
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
