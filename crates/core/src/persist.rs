//! The shared pieces of the on-disk artifact: error type, checksum and the
//! little-endian byte codec.
//!
//! Aeetes writes and reads exactly one artifact format — the frozen AEET v11
//! layout of [`crate::frozen`]. This module holds what that format (and the
//! write-ahead log, [`crate::wal`]) build on: [`PersistError`], the CRC-32
//! every integrity check uses, and the `put_*` encoders and bounds-checked
//! [`Reader`] for the small decoded-on-open META blob.
//!
//! The reader is hardened against hostile input: every length field is
//! validated against the bytes actually remaining before allocation and
//! cross-references (token ids, enum tags) are range-checked, so a corrupt
//! buffer yields a [`PersistError`], never a panic or an outsized
//! allocation.

use crate::config::AeetesConfig;
use crate::strategy::Strategy;
use aeetes_rules::{DeriveConfig, DeriveStats};
use aeetes_sim::Metric;
use aeetes_text::TokenId;
use std::fmt;

pub(crate) const MAGIC: &[u8; 4] = b"AEET";
/// The one format version written and opened: the flat, mmap-able frozen
/// layout of [`crate::frozen`].
pub(crate) const VERSION_FROZEN: u32 = 11;
/// A token list longer than this could not be indexed anyway: the clustered
/// index addresses positions within a variant's sorted token set with `u16`.
const MAX_VARIANT_TOKENS: usize = u16::MAX as usize;

/// Errors raised while opening a persisted engine.
#[derive(Debug)]
pub enum PersistError {
    /// The buffer does not start with the `AEET` magic.
    BadMagic,
    /// The file is an AEET artifact of a format version this build does not
    /// read (anything but 11): rebuild it from its sources.
    UnsupportedVersion(u32),
    /// The checksum footer does not match the payload.
    ChecksumMismatch {
        /// CRC-32 recorded in the file footer.
        expected: u32,
        /// CRC-32 computed over the payload actually read.
        actual: u32,
    },
    /// The buffer ended early or a length field is inconsistent.
    Truncated(&'static str),
    /// A cross-reference (token, origin, rule id) is out of range.
    Corrupt(String),
    /// An I/O error while reading or mapping an artifact file.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an Aeetes engine file (bad magic)"),
            PersistError::UnsupportedVersion(v) => write!(
                f,
                "unsupported engine format version {v} (this build reads only version {VERSION_FROZEN}); rebuild the artifact with `aeetes build`"
            ),
            PersistError::ChecksumMismatch { expected, actual } => {
                write!(f, "engine file checksum mismatch (expected {expected:#010x}, got {actual:#010x})")
            }
            PersistError::Truncated(what) => write!(f, "truncated engine file while reading {what}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt engine file: {msg}"),
            PersistError::Io(e) => write!(f, "engine file I/O error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// CRC-32 (IEEE 802.3 polynomial, reflected), the same checksum as gzip.
///
/// The frozen open path checksums the whole artifact before trusting a
/// single offset, which puts this function on the cold-start critical path:
/// the carry-less-multiply kernel where the CPU has it (x86-64 `pclmulqdq`,
/// ~an order of magnitude faster), the slice-by-16 table loop everywhere
/// else. Results are identical. One thread: at the 3–11 MB the artifacts
/// weigh, spawning threads to split the work cost more than it saved
/// (DESIGN §15).
pub(crate) fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && clmul::supported() {
        let head = data.len() & !15;
        // SAFETY: feature support was just checked; `head` is a multiple
        // of 16 and at least 64.
        let crc = unsafe { clmul::crc32(&data[..head]) };
        return !crc32_table_update(!crc, &data[head..]);
    }
    !crc32_table_update(!0, data)
}

/// Carry-less-multiply CRC-32 kernel, the 4-lane folding scheme of Gopal
/// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009) for the reflected polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    // Folding constants for reflected CRC-32 (poly 0x104C11DB7):
    // K1 = x^(4·128+64) mod P, K2 = x^(4·128), K3 = x^(128+64),
    // K4 = x^128, K5 = x^96 (all bit-reflected), P' and µ' for the final
    // Barrett reduction.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    pub fn supported() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Folds 16-byte lane `a` down onto `b` under `keys`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Whole-buffer CRC-32 (standard init/final-xor conventions).
    ///
    /// # Safety
    /// Requires `pclmulqdq` + `sse4.1`; `data.len()` must be a multiple of
    /// 16 and at least 64.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    pub unsafe fn crc32(data: &[u8]) -> u32 {
        debug_assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let mut ptr = data.as_ptr() as *const __m128i;
        let mut rest = data.len() - 64;
        let mut x3 = _mm_loadu_si128(ptr);
        let mut x2 = _mm_loadu_si128(ptr.add(1));
        let mut x1 = _mm_loadu_si128(ptr.add(2));
        let mut x0 = _mm_loadu_si128(ptr.add(3));
        ptr = ptr.add(4);
        // Fold the CRC init value (!0) into the first lane.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(!0i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest >= 64 {
            x3 = fold16(x3, _mm_loadu_si128(ptr), k1k2);
            x2 = fold16(x2, _mm_loadu_si128(ptr.add(1)), k1k2);
            x1 = fold16(x1, _mm_loadu_si128(ptr.add(2)), k1k2);
            x0 = fold16(x0, _mm_loadu_si128(ptr.add(3)), k1k2);
            ptr = ptr.add(4);
            rest -= 64;
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x3, x2, k3k4);
        x = fold16(x, x1, k3k4);
        x = fold16(x, x0, k3k4);
        while rest >= 16 {
            x = fold16(x, _mm_loadu_si128(ptr), k3k4);
            ptr = ptr.add(1);
            rest -= 16;
        }
        // Reduce 128 → 64 bits, then Barrett-reduce 64 → 32.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00), _mm_srli_si128(x, 4));
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pu, 0x10);
        let t2 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00), x);
        !(_mm_extract_epi32(t2, 1) as u32)
    }
}

/// Slice-by-16 table fallback: sixteen lookup tables let each iteration
/// fold 16 input bytes with independent loads, so the update chain is 16×
/// shorter than the classic one-byte Sarwate loop. Takes and returns the
/// raw (pre-inversion) CRC register so the SIMD kernel can hand over tails.
fn crc32_table_update(state: u32, data: &[u8]) -> u32 {
    const fn make_tables() -> [[u32; 256]; 16] {
        let mut tables = [[0u32; 256]; 16];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 16 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
                i += 1;
            }
            t += 1;
        }
        tables
    }
    static TABLES: [[u32; 256]; 16] = make_tables();
    let mut c = state;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        c ^= u32::from_le_bytes(chunk[..4].try_into().expect("4-byte word"));
        let mid = u32::from_le_bytes(chunk[4..8].try_into().expect("4-byte word"));
        let hi = u32::from_le_bytes(chunk[8..12].try_into().expect("4-byte word"));
        let top = u32::from_le_bytes(chunk[12..16].try_into().expect("4-byte word"));
        c = TABLES[15][(c & 0xFF) as usize]
            ^ TABLES[14][((c >> 8) & 0xFF) as usize]
            ^ TABLES[13][((c >> 16) & 0xFF) as usize]
            ^ TABLES[12][(c >> 24) as usize]
            ^ TABLES[11][(mid & 0xFF) as usize]
            ^ TABLES[10][((mid >> 8) & 0xFF) as usize]
            ^ TABLES[9][((mid >> 16) & 0xFF) as usize]
            ^ TABLES[8][(mid >> 24) as usize]
            ^ TABLES[7][(hi & 0xFF) as usize]
            ^ TABLES[6][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[5][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[4][(hi >> 24) as usize]
            ^ TABLES[3][(top & 0xFF) as usize]
            ^ TABLES[2][((top >> 8) & 0xFF) as usize]
            ^ TABLES[1][((top >> 16) & 0xFF) as usize]
            ^ TABLES[0][(top >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_ids(buf: &mut Vec<u8>, ids: &[TokenId]) {
    put_u32(buf, ids.len() as u32);
    for t in ids {
        put_u32(buf, t.0);
    }
}

pub(crate) fn put_stats(buf: &mut Vec<u8>, st: &DeriveStats) {
    for v in [
        st.origins,
        st.derived,
        st.applicable_total,
        st.selected_total,
        st.truncated_entities,
        st.duplicates_dropped,
    ] {
        put_u64(buf, v as u64);
    }
}

pub(crate) fn put_config(buf: &mut Vec<u8>, config: &AeetesConfig) {
    buf.push(match config.strategy {
        Strategy::Simple => 0,
        Strategy::Skip => 1,
        Strategy::Dynamic => 2,
        Strategy::Lazy => 3,
    });
    buf.push(match config.metric {
        Metric::Jaccard => 0,
        Metric::Dice => 1,
        Metric::Cosine => 2,
        Metric::Overlap => 3,
    });
    put_u64(buf, config.derive.max_derived as u64);
}

pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn need(&self, n: usize, what: &'static str) -> Result<(), PersistError> {
        if self.buf.len() < n {
            Err(PersistError::Truncated(what))
        } else {
            Ok(())
        }
    }
    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PersistError> {
        self.need(n, what)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }
    /// Rejects a count field whose elements (at `min_size` bytes each)
    /// could not possibly fit in the remaining buffer. Called before any
    /// `with_capacity` so forged counts can't drive huge allocations.
    pub(crate) fn check_count(&self, n: usize, min_size: usize, what: &'static str) -> Result<(), PersistError> {
        match n.checked_mul(min_size) {
            Some(total) if total <= self.buf.len() => Ok(()),
            _ => Err(PersistError::Truncated(what)),
        }
    }
    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }
    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4-byte slice")))
    }
    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8-byte slice")))
    }
    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().expect("8-byte slice")))
    }
    /// Reads a `u32` count followed by that many range-checked token ids.
    /// The count is validated against the remaining bytes (4 per id) before
    /// any allocation, so a forged length can't trigger an outsized
    /// `Vec::with_capacity`.
    pub(crate) fn ids(&mut self, max: u32, what: &'static str) -> Result<Vec<TokenId>, PersistError> {
        let n = self.u32(what)? as usize;
        if n > MAX_VARIANT_TOKENS {
            return Err(PersistError::Corrupt(format!("{what}: token list of {n} exceeds the index limit of {MAX_VARIANT_TOKENS}")));
        }
        let raw = self.take(n.checked_mul(4).ok_or(PersistError::Truncated(what))?, what)?;
        let mut out = Vec::with_capacity(n);
        for chunk in raw.chunks_exact(4) {
            let id = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            if id >= max {
                return Err(PersistError::Corrupt(format!("token id {id} out of range {max} in {what}")));
            }
            out.push(TokenId(id));
        }
        Ok(out)
    }
}

pub(crate) fn read_stats(r: &mut Reader<'_>) -> Result<DeriveStats, PersistError> {
    Ok(DeriveStats {
        origins: r.u64("stats")? as usize,
        derived: r.u64("stats")? as usize,
        applicable_total: r.u64("stats")? as usize,
        selected_total: r.u64("stats")? as usize,
        truncated_entities: r.u64("stats")? as usize,
        duplicates_dropped: r.u64("stats")? as usize,
    })
}

pub(crate) fn read_config(r: &mut Reader<'_>) -> Result<AeetesConfig, PersistError> {
    let strategy = match r.u8("strategy")? {
        0 => Strategy::Simple,
        1 => Strategy::Skip,
        2 => Strategy::Dynamic,
        3 => Strategy::Lazy,
        other => return Err(PersistError::Corrupt(format!("unknown strategy tag {other}"))),
    };
    let metric = match r.u8("metric")? {
        0 => Metric::Jaccard,
        1 => Metric::Dice,
        2 => Metric::Cosine,
        3 => Metric::Overlap,
        other => return Err(PersistError::Corrupt(format!("unknown metric tag {other}"))),
    };
    let max_derived = r.u64("max_derived")? as usize;
    Ok(AeetesConfig {
        derive: DeriveConfig { max_derived, ..DeriveConfig::default() },
        strategy,
        metric,
        ..AeetesConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_simd_matches_table_at_every_length() {
        // Exercises every dispatcher branch: below the SIMD minimum, the
        // 4-lane loop, the single-lane loop, and 0..15-byte tails.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in (0..256).chain((256..4096).step_by(97)) {
            let d = &data[..len];
            assert_eq!(crc32(d), !crc32_table_update(!0, d), "len={len}");
        }
    }

    #[test]
    fn display_messages() {
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        let unsupported = PersistError::UnsupportedVersion(7).to_string();
        assert!(unsupported.contains('7') && unsupported.contains("aeetes build"), "{unsupported}");
        assert!(PersistError::Truncated("x").to_string().contains('x'));
        assert!(PersistError::Corrupt("y".into()).to_string().contains('y'));
        assert!(PersistError::ChecksumMismatch { expected: 1, actual: 2 }.to_string().contains("checksum"));
    }
}
