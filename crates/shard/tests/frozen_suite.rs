//! Frozen (v11) artifact suite: freeze → open → refreeze is bit-identical
//! for builds of 1 and 4 parts; truncated files through the mmap path and
//! misaligned section offsets behind a valid CRC yield a clean error, never
//! a panic or out-of-bounds access. (The byte-level corruption walk — every
//! truncation, every bit flip — is `aeetes-core`'s `fault_injection` suite;
//! that an engine opened from bytes or mapped from a file answers as the
//! heap monolith is the root package's `conformance` harness.)

use aeetes_core::{open_frozen, open_frozen_bytes, AeetesConfig};
use aeetes_rules::RuleSet;
use aeetes_shard::ShardedEngine;
use aeetes_text::{Dictionary, Interner, Tokenizer};
use std::path::PathBuf;

fn corpus() -> (Dictionary, RuleSet, Interner) {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut dict = Dictionary::new();
    for e in [
        "Purdue University USA",
        "UQ AU",
        "University of Wisconsin Madison",
        "MIT",
        "United States",
        "Australia Day",
    ] {
        dict.push(e, &tokenizer, &mut interner);
    }
    let mut rules = RuleSet::new();
    for (l, r, w) in [
        ("UQ", "University of Queensland", 1.0),
        ("AU", "Australia", 0.9),
        ("USA", "United States", 1.0),
        ("MIT", "Massachusetts Institute of Technology", 0.95),
        ("UW", "University of Wisconsin", 1.0),
    ] {
        rules.push_weighted_str(l, r, w, &tokenizer, &mut interner).unwrap();
    }
    (dict, rules, interner)
}

fn tmp_path(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("aeetes-frozen-suite-{tag}-{}-{n}.aeet", std::process::id()))
}

/// freeze → open → refreeze is bit-identical for builds of 1 and 4 parts:
/// the opened arenas describe exactly what was written, so an adopted engine
/// re-frozen (as WAL compaction does) reproduces its artifact — the
/// derivation statistics included, which opening checks but does not touch.
#[test]
fn freeze_open_refreeze_is_bit_identical() {
    let (dict, rules, interner) = corpus();
    let adopt = |bytes: &[u8]| ShardedEngine::from_frozen(open_frozen_bytes(bytes).expect("open"), None).expect("adopt");
    for parts in [1, 4] {
        let built = ShardedEngine::build(dict.clone(), &rules, &interner, AeetesConfig::default(), parts);
        let frozen = built.freeze();
        assert_eq!(frozen, adopt(&frozen).freeze(), "parts={parts}: artifact must refreeze bit-identically");
    }
}

/// Parses the section table straight from the bytes: `(offset, len)` per
/// section, in table order. Kept independent of the library's parser so the
/// corruption matrix targets the format, not the implementation.
fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let s = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    (0..s)
        .map(|i| {
            let at = 24 + i * 24;
            let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
            (off, len)
        })
        .collect()
}

fn recrc(bytes: &mut [u8]) {
    // Mirrors the on-disk CRC-32/ISO-HDLC over everything before the
    // 4-byte footer.
    let mut crc = !0u32;
    let len = bytes.len();
    for &b in &bytes[..len - 4] {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    bytes[len - 4..].copy_from_slice(&(!crc).to_le_bytes());
}

/// A file truncated at (and one byte around) every section boundary is a
/// clean error through the mmap open path — never a panic or OOB read of
/// the mapping.
#[test]
fn truncated_files_are_a_clean_error_on_the_mmap_path() {
    let (dict, rules, interner) = corpus();
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 2);
    let bytes = engine.freeze();

    let mut cuts: Vec<usize> = vec![0, 4, 8, 16, 20, 24];
    for (off, len) in section_spans(&bytes) {
        cuts.extend([off.saturating_sub(1), off, off + 1, off + len.saturating_sub(1), off + len, off + len + 1]);
    }
    cuts.extend([bytes.len() - 5, bytes.len() - 4, bytes.len() - 1]);
    cuts.retain(|&c| c < bytes.len());
    cuts.sort_unstable();
    cuts.dedup();

    let path = tmp_path("trunc");
    for &cut in &cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(open_frozen(&path).is_err(), "mmap open accepted a {cut}-byte prefix of {}", bytes.len());
    }
    std::fs::remove_file(&path).ok();
}

/// A misaligned section offset is rejected even when the CRC is patched to
/// match — alignment is validated structurally, not just checksummed.
#[test]
fn misaligned_section_offsets_rejected_with_valid_crc() {
    let (dict, rules, interner) = corpus();
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 2);
    let bytes = engine.freeze();
    let n_sections = section_spans(&bytes).len();
    for i in 0..n_sections {
        let at = 24 + i * 24 + 8;
        let mut b = bytes.clone();
        let off = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        b[at..at + 8].copy_from_slice(&(off + 1).to_le_bytes());
        recrc(&mut b);
        assert!(open_frozen_bytes(&b).is_err(), "misaligned offset for section {i} accepted");
    }
}
