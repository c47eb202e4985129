//! Frozen AEET v9: a flat, mmap-able immutable engine image — the one
//! artifact format Aeetes writes and opens.
//!
//! The off-line product (clustered index, paper §3/§5) is built once and
//! shipped; a format that had to *rebuild* the index on load would make
//! every restart pay seconds of CPU and every serve process hold a private
//! copy. The frozen layout instead lays every large structure (interner
//! string table, global order, clustered index) out as flat little-endian
//! arrays at 16-byte-aligned offsets, so an engine can `mmap` the file,
//! validate it, and serve its first request in milliseconds — and N serve
//! processes on one host share a single page cache image instead of N
//! private heaps. Files carrying any other version word (the retired v1–v8
//! layouts, or a future one) are refused with
//! [`PersistError::UnsupportedVersion`].
//!
//! ## Layout
//!
//! ```text
//! [ 0.. 4)  magic "AEET"
//! [ 4.. 8)  version u32 = 9
//! [ 8..16)  generation u64
//! [16..20)  section count S (u32)
//! [20..24)  reserved (0)
//! [24..24+S·24)  section table: per section
//!                { kind u32, seg u32 (0xFFFF_FFFF = global), off u64, len u64 }
//! ... sections, each starting at a 16-byte-aligned offset, zero-padded ...
//! [len-4..len)  CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! All integers are little-endian; the in-memory structures reinterpret the
//! mapped bytes directly (and the writer copies them out the same way), so
//! artifacts are only written and opened on little-endian hosts (both ends
//! refuse elsewhere rather than misread).
//!
//! Section *kinds* are fixed small integers (see the `SEC_*` constants):
//! the global sections carry the META blob (rules, config, counts — small,
//! decoded once), the origin dictionary's four arenas, the interner's
//! string arena/offsets/hash table and the global order's three arrays;
//! each segment (an engine writes and adopts exactly one; the table allows
//! more) carries the seven flat arrays of its clustered index,
//! its variants' weights, and the origin → variant-range prefix that its
//! variant table and its index both read. Offsets are validated against the
//! file bounds and the 16-byte alignment rule, every prefix array is
//! re-validated structurally on open ([`Dictionary::from_raw_arenas`],
//! [`VariantTable::from_raw_arenas`], [`ClusteredIndex::from_raw_parts`],
//! [`GlobalOrder::from_raw_parts`], `FrozenStrings::new`), and the
//! whole-file CRC is checked first — a truncated or bit-flipped artifact
//! yields a clean [`PersistError`], never a panic or an out-of-bounds read.
//!
//! ## Sections
//!
//! Every section is one array of one element type; its length is `count ×
//! width`. Bytes below are what `aeetes dict info` prints (per-segment
//! sections summed) for `aeetes generate --seed 12` dictionaries built with
//! `aeetes build`: pubmed and dbworld at scale 1.0 in one segment, usjob at
//! scale 0.25 in two. `a → b` is v8 → v9 (`–`: no such section); everything
//! else is unchanged.
//!
//! ```text
//! section             element width                     pubmed                 dbworld                     usjob
//! meta                bytes                            150 406                 249 714                   246 126
//! dict.raws           u8      1                        573 989                 250 832                   490 521
//! dict.raw_off        u32     4                         80 004                  48 004                    30 004
//! dict.tokens         u32     4                        240 632                 105 284                   206 468
//! dict.tok_off        u32     4                         80 004                  48 004                    30 004
//! strings.bytes       u8      1                         97 273                  47 071                    36 101
//! strings.offsets     u32     4                         36 560                  18 280                    14 168
//! strings.table       u32     4                        131 072                  65 536                    32 768
//! order.freq          u32     4                         36 556                  18 276                    14 164
//! order.key           u32     4                         36 556                  18 276                    14 164
//! order.untie         u32     4                         36 348                  18 276                    14 164
//! dd.weight           f64     8                              0                       0                         0
//! dd.by_origin        u32     4                         80 004                  48 004                    60 008
//! ix.tok_groups       u32     4                         36 560                  18 280                    28 336
//! ix.group_len        u16     2                         50 534                  32 592                    60 894
//! ix.group_origins    u32     4                        101 072                  65 188                   121 796
//! ix.origin_entity    u32     4                        733 768                 603 584                 2 263 208
//! ix.origin_entries   u32     4                    733 772 → –             603 588 → –             2 263 216 → –
//! ix.positions        u16     2                    496 232 → –             534 142 → –             6 205 970 → –
//! ix.origin_min_pos   u16     2                    – → 366 884             – → 301 792             – → 1 131 604
//! ix.blocks           u32     4                      1 039 416                 753 148                 5 926 140
//! ix.block_offsets    u32     4                         80 004                  48 004                    60 008
//! ix.variants_by_len  u32     4                    293 160 → –             295 996 → –             1 674 080 → –
//! whole file                             5 144 620 → 3 988 280   3 890 800 → 2 758 792   19 793 372 → 10 781 592
//! ```
//!
//! An index *entry* is one origin cluster: for a token, a set length and an
//! origin, the fact that some variant of that origin with a set of that
//! length holds the token. `ix.tok_groups` cuts a token's length groups out
//! of `ix.group_len`, `ix.group_origins` cuts a group's clusters out of the
//! two parallel cluster arrays: **`ix.origin_entity`**, the cluster's origin,
//! and **`ix.origin_min_pos`**, the lowest position (0-based) the token takes
//! in the ordered set of any of those variants. v8 stored every one of those
//! positions (`ix.positions`, cut per cluster by `ix.origin_entries`) — a
//! posting per key of every variant's set, 3 102 985 on usjob for 565 802
//! clusters — but a candidate is an origin, and all a scan asks of a cluster
//! is whether *some* position is inside the τ-prefix of a set of the group's
//! length: `∃ pos < prefix_len(len, τ)`. All of a cluster's variants share
//! `len`, so they share the bound, and `∃ pos < bound ⇔ min pos < bound` for
//! any bound — the minimum decides every threshold and every metric exactly,
//! and nothing else a cluster could store is ever read.
//!
//! A segment stores its variants' key sets in **`ix.blocks`**: one `u32`
//! arena holding one *block* per origin, found through the prefix
//! **`ix.block_offsets`** (origins + 1 entries):
//!
//! ```text
//! [ P | the P distinct keys of all the origin's variants, ascending | one ⌈P/32⌉-word mask per variant ]
//! ```
//!
//! The keys are the origin's *pool* (the variants of one origin are the same
//! few tokens recombined: usjob's 418 520 variants hold 3 102 985 keys, of
//! which 312 580 are distinct within their origin); bit `b` of a variant's
//! mask says pool key `b` is in its set, and the masks stand in the order of
//! the origin's variant ids: slot `s` of origin `e` is variant
//! `dd.by_origin[e] + s`. Derivation hands an origin's ids out by ascending
//! distinct-token count, ties in enumeration order, so set lengths never fall
//! along the slots (verification binary-searches them; v8 derived in
//! enumeration order and kept the by-length permutation as
//! `ix.variants_by_len`). An origin without variants in the segment has no
//! block. A set's length is its mask's popcount, a key's position in its set
//! the popcount of the mask's lower bits, and verification (`core::verify`)
//! merges a window against the pool once instead of against every variant. A
//! block names no variant id and no offset, so a delta's splice copies
//! unchanged origins' blocks as they stand. Mask words are `u32` because the
//! sizing rules the others out: with `u64` words pubmed's 3.7 variants of 3.4
//! keys per origin take more bytes than one key array per variant would, and
//! `u16` words would need an arena of their own beside the `u32` keys.
//!
//! **`dd.by_origin`** — which variant ids an origin owns — is the one prefix
//! [`VariantTable`] and [`ClusteredIndex`] both read (a tailed generation's
//! id remap takes a range start from the first and subtracts it from an id
//! drawn through the second); it is stored once and both are handed a view.
//!
//! Of a variant's derivation, extraction reads only that prefix and, for
//! weighted requests, its weight: **`dd.weight`** holds one `f64` per variant
//! in a segment where some variant weighs other than `1.0`, and nothing
//! otherwise — a function of the segment's variants alone, so a delta's
//! splice and a rebuild agree on it. The generated corpora carry unit
//! weights throughout. Token sequences and rule provenance are a pure
//! function of (origin tokens, rule table, derive config) — `dict.*` and
//! META carry those — so re-deriving one origin
//! ([`aeetes_rules::DerivedDictionary::build_filtered`], at most 256
//! variants) reproduces its variants in id order on any generation.
//!
//! A key in **`ix.blocks`** and **`order.key`** is a `u32`. A valid token
//! — one occurring in some derived entity — keys as
//! [`aeetes_index::VALID_BIT`] `| rank`, its dense rank in ascending
//! `(frequency, string)` order; `order.untie` maps ranks back to tokens. Any
//! other token keys as its own id, which is why token ids stop at 2³¹
//! ([`TokenId::LIMIT`]): every invalid key sorts below every valid one. A
//! dictionary delta leaves existing keys as they are and ranks tokens it
//! makes valid after all existing ones, until the next full build — so a
//! key's position in a set it is in, and with it every lowest position a
//! cluster stores, survives a delta untouched.
//!
//! ## Mmap vs heap fallback
//!
//! [`open_frozen`] maps the file read-only when the platform allows and
//! falls back to reading it into an 8-byte-aligned heap buffer otherwise
//! (or when injected via the `frozen.open.mmap` failpoint). Both paths
//! produce the same [`FrozenParts`] backed by the same validation — lookups
//! are bit-identical either way; only residency behavior differs.

use crate::config::AeetesConfig;
use crate::failpoint;
use crate::persist::{self, crc32, PersistError, Reader};
use aeetes_frozen::{pod_bytes, FrozenBuf, FrozenSlice, Pod};
use aeetes_index::{ClusteredIndex, GlobalOrder, IndexArenas};
use aeetes_rules::{DeriveStats, RuleSet, VariantTable};
use aeetes_text::{Dictionary, EntityId, FrozenStrings, Interner, StringTable, TokenId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Fixed header bytes before the section table.
const HEADER_FIXED: usize = 24;
/// Bytes per section-table entry.
const ENTRY_BYTES: usize = 24;
/// Every section starts at a multiple of this (covers every element type's
/// natural alignment with room to spare).
const SECTION_ALIGN: usize = 16;
/// `seg` value marking a global (non-per-segment) section.
const GLOBAL_SEG: u32 = u32::MAX;
/// Backstop against forged section counts (a real artifact has
/// `11 + 9 × segments` sections, and an engine writes one segment).
const MAX_SECTIONS: usize = 1 << 16;

// Global section kinds.
const SEC_META: u32 = 0;
const SEC_ORD_FREQ: u32 = 1;
const SEC_ORD_KEY: u32 = 2;
const SEC_ORD_UNTIE: u32 = 3;
const SEC_STR_BYTES: u32 = 4;
const SEC_STR_OFF: u32 = 5;
const SEC_STR_TABLE: u32 = 6;
// Origin-dictionary arenas (global; mirror `Dictionary::raw_arenas`).
const SEC_DICT_RAWS: u32 = 30;
const SEC_DICT_RAWOFF: u32 = 31;
const SEC_DICT_TOKENS: u32 = 32;
const SEC_DICT_TOKOFF: u32 = 33;
// Per-segment variant-table sections (mirror `VariantTable::raw_arenas`).
const SEC_DD_WEIGHT: u32 = 11;
const SEC_DD_BYORIGIN: u32 = 16;
// Per-segment clustered-index sections.
const SEC_IX_TOKGROUPS: u32 = 20;
const SEC_IX_GROUPLEN: u32 = 21;
const SEC_IX_GROUPORIG: u32 = 22;
const SEC_IX_ORIGENT: u32 = 23;
// 24, 25 and 28 were v8's `ix.origin_entries`, `ix.positions` and
// `ix.variants_by_len`.
const SEC_IX_BLOCKS: u32 = 26;
const SEC_IX_BLOCKOFF: u32 = 27;
const SEC_IX_ORIGMINPOS: u32 = 34;

const GLOBAL_KINDS: [u32; 11] = [
    SEC_META,
    SEC_ORD_FREQ,
    SEC_ORD_KEY,
    SEC_ORD_UNTIE,
    SEC_STR_BYTES,
    SEC_STR_OFF,
    SEC_STR_TABLE,
    SEC_DICT_RAWS,
    SEC_DICT_RAWOFF,
    SEC_DICT_TOKENS,
    SEC_DICT_TOKOFF,
];
const SEGMENT_KINDS: [u32; 9] = [
    SEC_DD_WEIGHT,
    SEC_DD_BYORIGIN,
    SEC_IX_TOKGROUPS,
    SEC_IX_GROUPLEN,
    SEC_IX_GROUPORIG,
    SEC_IX_ORIGENT,
    SEC_IX_ORIGMINPOS,
    SEC_IX_BLOCKS,
    SEC_IX_BLOCKOFF,
];

/// Human-readable name of a section kind (for `aeetes dict info`).
pub fn section_kind_name(kind: u32) -> &'static str {
    match kind {
        SEC_META => "meta",
        SEC_ORD_FREQ => "order.freq",
        SEC_ORD_KEY => "order.key",
        SEC_ORD_UNTIE => "order.untie",
        SEC_STR_BYTES => "strings.bytes",
        SEC_STR_OFF => "strings.offsets",
        SEC_STR_TABLE => "strings.table",
        SEC_DICT_RAWS => "dict.raws",
        SEC_DICT_RAWOFF => "dict.raw_off",
        SEC_DICT_TOKENS => "dict.tokens",
        SEC_DICT_TOKOFF => "dict.tok_off",
        SEC_DD_WEIGHT => "dd.weight",
        SEC_DD_BYORIGIN => "dd.by_origin",
        SEC_IX_TOKGROUPS => "ix.tok_groups",
        SEC_IX_GROUPLEN => "ix.group_len",
        SEC_IX_GROUPORIG => "ix.group_origins",
        SEC_IX_ORIGENT => "ix.origin_entity",
        SEC_IX_ORIGMINPOS => "ix.origin_min_pos",
        SEC_IX_BLOCKS => "ix.blocks",
        SEC_IX_BLOCKOFF => "ix.block_offsets",
        _ => "unknown",
    }
}

/// One segment to freeze: its variant table and index (built against
/// the [`FreezeSource::order`]). A `&DerivedDictionary` coerces to its table.
/// The origin → variant-range prefix both hold is written once, from the
/// table.
pub struct FreezeSegment<'a> {
    /// The segment's variant table.
    pub dd: &'a VariantTable,
    /// The segment's clustered index.
    pub index: &'a ClusteredIndex,
}

/// Everything the writer serializes. Borrowed: freezing never mutates or
/// copies the engine it snapshots (beyond the output buffer).
pub struct FreezeSource<'a> {
    /// The interner every token id refers into.
    pub interner: &'a Interner,
    /// The origin dictionary over the full entity id space.
    pub dict: &'a Dictionary,
    /// Tombstoned origin ids.
    pub removed: &'a [EntityId],
    /// The synonym rule table.
    pub rules: &'a RuleSet,
    /// Engine configuration.
    pub config: &'a AeetesConfig,
    /// Generation number stamped into the header.
    pub generation: u64,
    /// The shared global token order.
    pub order: &'a GlobalOrder,
    /// One entry per segment; an engine writes one.
    pub segments: Vec<FreezeSegment<'a>>,
}

/// One decoded segment of an opened artifact: the variant table and
/// clustered index, their arenas borrowing the file image.
pub struct FrozenSegmentParts {
    /// The segment's variant table (frozen arenas).
    pub dd: VariantTable,
    /// The segment's clustered index (frozen arenas).
    pub index: ClusteredIndex,
}

/// A validated, opened artifact. The heavy structures borrow the mapped
/// (or heap-loaded) file image through their arenas; only the small META
/// structures (dictionary, rules, config) are decoded onto the heap.
pub struct FrozenParts {
    /// Interner whose base resolves from the frozen string table; newly
    /// interned tokens (document vocabulary) overlay it on the heap.
    pub interner: Interner,
    /// The origin dictionary (decoded from META).
    pub dict: Dictionary,
    /// Tombstoned origin ids.
    pub removed: Vec<EntityId>,
    /// The synonym rule table (decoded from META).
    pub rules: RuleSet,
    /// Engine configuration.
    pub config: AeetesConfig,
    /// Generation number from the header.
    pub generation: u64,
    /// The shared global order (frozen arenas).
    pub order: Arc<GlobalOrder>,
    /// One entry per segment, in table order; an engine adopts exactly one.
    pub segments: Vec<FrozenSegmentParts>,
    /// Whether the backing storage is an mmap (false: heap fallback).
    pub mmapped: bool,
}

// ---------------------------------------------------------------- writer --

/// META: the small decoded-on-open blob. Leading counts let [`peek_info`]
/// report an artifact without decoding the rest.
fn encode_meta(src: &FreezeSource<'_>) -> Vec<u8> {
    let mut meta = Vec::new();
    persist::put_u32(&mut meta, src.segments.len() as u32);
    persist::put_u32(&mut meta, src.dict.len() as u32);
    persist::put_u32(&mut meta, src.rules.len() as u32);
    persist::put_u32(&mut meta, src.removed.len() as u32);
    for e in src.removed {
        persist::put_u32(&mut meta, e.0);
    }
    for (_, rule) in src.rules.iter() {
        persist::put_ids(&mut meta, &rule.lhs);
        persist::put_ids(&mut meta, &rule.rhs);
        meta.extend_from_slice(&rule.weight.to_le_bytes());
    }
    persist::put_config(&mut meta, src.config);
    for seg in &src.segments {
        persist::put_stats(&mut meta, seg.dd.stats());
    }
    meta
}

/// Serializes `src` into a standalone artifact (see the module docs for the
/// layout). The inverse of [`open_frozen_bytes`].
///
/// Every section is some arena's bytes as they stand in memory, so the
/// section table is laid out first, the buffer allocated once at its exact
/// final size, and each arena copied straight to its aligned offset.
///
/// # Panics
/// Panics on a big-endian host: the format stores little-endian arrays and
/// is written by reinterpreting the in-memory ones ([`open_frozen`] refuses
/// such hosts for the same reason).
pub fn freeze_to_bytes(src: &FreezeSource<'_>) -> Vec<u8> {
    if cfg!(target_endian = "big") {
        panic!("frozen artifacts are written on little-endian hosts only");
    }
    let meta = encode_meta(src);
    // Interner: canonical frozen string table over the full id space.
    let strings = FrozenStrings::from_strings(src.interner.iter_strings());

    // Origin dictionary: its four arenas verbatim, so the opener can
    // validate them with linear scans and adopt them with four copies
    // instead of a per-entity parse.
    let (raws, raw_off, ent_tokens, ent_tok_off) = src.dict.raw_arenas();
    let (freq, key, untie) = src.order.raw_parts();
    let mut sections: Vec<(u32, u32, &[u8])> = vec![
        (SEC_META, GLOBAL_SEG, &meta),
        (SEC_DICT_RAWS, GLOBAL_SEG, raws.as_bytes()),
        (SEC_DICT_RAWOFF, GLOBAL_SEG, pod_bytes(raw_off)),
        (SEC_DICT_TOKENS, GLOBAL_SEG, pod_bytes(ent_tokens)),
        (SEC_DICT_TOKOFF, GLOBAL_SEG, pod_bytes(ent_tok_off)),
        (SEC_STR_BYTES, GLOBAL_SEG, strings.raw_bytes()),
        (SEC_STR_OFF, GLOBAL_SEG, pod_bytes(strings.raw_offsets())),
        (SEC_STR_TABLE, GLOBAL_SEG, pod_bytes(strings.raw_table())),
        (SEC_ORD_FREQ, GLOBAL_SEG, pod_bytes(freq)),
        (SEC_ORD_KEY, GLOBAL_SEG, pod_bytes(key)),
        (SEC_ORD_UNTIE, GLOBAL_SEG, pod_bytes(untie)),
    ];
    for (i, seg) in src.segments.iter().enumerate() {
        let s = i as u32;
        let (by_origin, weight) = seg.dd.raw_arenas();
        let ix = seg.index.raw_parts();
        sections.extend([
            (SEC_DD_BYORIGIN, s, pod_bytes(by_origin)),
            (SEC_DD_WEIGHT, s, pod_bytes(weight)),
            (SEC_IX_TOKGROUPS, s, pod_bytes(ix.tok_groups)),
            (SEC_IX_GROUPLEN, s, pod_bytes(ix.group_len)),
            (SEC_IX_GROUPORIG, s, pod_bytes(ix.group_origins)),
            (SEC_IX_ORIGENT, s, pod_bytes(ix.origin_entity)),
            (SEC_IX_ORIGMINPOS, s, pod_bytes(ix.origin_min_pos)),
            (SEC_IX_BLOCKS, s, pod_bytes(ix.blocks)),
            (SEC_IX_BLOCKOFF, s, pod_bytes(ix.block_offsets)),
        ]);
    }

    // Lay out: header, table, aligned sections, CRC footer.
    let table_end = HEADER_FIXED + sections.len() * ENTRY_BYTES;
    let mut end = table_end;
    let offsets: Vec<usize> = sections
        .iter()
        .map(|(_, _, bytes)| {
            let off = end.next_multiple_of(SECTION_ALIGN);
            end = off + bytes.len();
            off
        })
        .collect();
    let mut buf = vec![0u8; end + 4];
    buf[..4].copy_from_slice(persist::MAGIC);
    buf[4..8].copy_from_slice(&persist::VERSION_FROZEN.to_le_bytes());
    buf[8..16].copy_from_slice(&src.generation.to_le_bytes());
    buf[16..20].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    // [20..24) reserved, zero.
    for (i, (&(kind, seg, bytes), &off)) in sections.iter().zip(&offsets).enumerate() {
        let at = HEADER_FIXED + i * ENTRY_BYTES;
        buf[at..at + 4].copy_from_slice(&kind.to_le_bytes());
        buf[at + 4..at + 8].copy_from_slice(&seg.to_le_bytes());
        buf[at + 8..at + 16].copy_from_slice(&(off as u64).to_le_bytes());
        buf[at + 16..at + 24].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf[off..off + bytes.len()].copy_from_slice(bytes);
    }
    let footer = crc32(&buf[..end]);
    buf[end..].copy_from_slice(&footer.to_le_bytes());
    buf
}

// ---------------------------------------------------------------- opener --

struct SectionTable {
    entries: HashMap<(u32, u32), (usize, usize)>,
    segments: usize,
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// Checks the magic and the version word. The opener runs this *before* the
/// CRC so that a file of another format version — a retired v1–v8 artifact,
/// whose footer (if any) means something else — is named as such instead of
/// being reported as corruption.
fn check_header(bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = Reader { buf: bytes };
    if r.take(4, "magic")? != persist::MAGIC {
        return Err(PersistError::BadMagic);
    }
    match r.u32("version")? {
        persist::VERSION_FROZEN => Ok(()),
        other => Err(PersistError::UnsupportedVersion(other)),
    }
}

/// Parses and bounds-checks the header and section table of `bytes`
/// (which must already be CRC-verified). Rejects out-of-bounds, overlappingly
/// duplicated, or misaligned sections and missing kinds.
fn parse_table(bytes: &[u8]) -> Result<SectionTable, PersistError> {
    check_header(bytes)?;
    let mut r = Reader { buf: &bytes[8..] };
    let generation = r.u64("generation")?;
    if generation == 0 {
        return Err(corrupt("generation 0 is invalid (generations start at 1)"));
    }
    let s_count = r.u32("section count")? as usize;
    let _reserved = r.u32("reserved")?;
    if s_count > MAX_SECTIONS {
        return Err(corrupt(format!("section count {s_count} exceeds the limit of {MAX_SECTIONS}")));
    }
    let table_end = HEADER_FIXED + s_count * ENTRY_BYTES;
    let payload_end = bytes.len() - 4; // CRC footer, length pre-checked
    if table_end > payload_end {
        return Err(PersistError::Truncated("section table"));
    }
    let mut entries = HashMap::with_capacity(s_count);
    let mut max_seg: Option<u32> = None;
    for i in 0..s_count {
        let kind = r.u32("section kind")?;
        let seg = r.u32("section segment")?;
        let off = r.u64("section offset")? as usize;
        let len = r.u64("section length")? as usize;
        if !off.is_multiple_of(SECTION_ALIGN) {
            return Err(corrupt(format!("section {i} offset {off} is not {SECTION_ALIGN}-byte aligned")));
        }
        let end = off.checked_add(len).ok_or_else(|| corrupt(format!("section {i} range overflows")))?;
        if off < table_end || end > payload_end {
            return Err(corrupt(format!("section {i} [{off}, {end}) outside payload [{table_end}, {payload_end})")));
        }
        if entries.insert((kind, seg), (off, len)).is_some() {
            return Err(corrupt(format!("duplicate section kind {kind} segment {seg}")));
        }
        if seg != GLOBAL_SEG && SEGMENT_KINDS.contains(&kind) {
            max_seg = Some(max_seg.map_or(seg, |m| m.max(seg)));
        }
    }
    for kind in GLOBAL_KINDS {
        if !entries.contains_key(&(kind, GLOBAL_SEG)) {
            return Err(corrupt(format!("missing global section {}", section_kind_name(kind))));
        }
    }
    let segments = max_seg.map_or(0, |m| m as usize + 1);
    for seg in 0..segments as u32 {
        for kind in SEGMENT_KINDS {
            if !entries.contains_key(&(kind, seg)) {
                return Err(corrupt(format!("segment {seg} is missing section {}", section_kind_name(kind))));
            }
        }
    }
    Ok(SectionTable { entries, segments })
}

impl SectionTable {
    fn slice<T: Pod>(&self, buf: &Arc<FrozenBuf>, kind: u32, seg: u32) -> Result<FrozenSlice<T>, PersistError> {
        let &(off, len) = self
            .entries
            .get(&(kind, seg))
            .ok_or_else(|| corrupt(format!("missing section {} segment {seg}", section_kind_name(kind))))?;
        FrozenSlice::new(Arc::clone(buf), off, len).map_err(|e| corrupt(format!("section {}: {e}", section_kind_name(kind))))
    }

    fn bytes<'a>(&self, buf: &'a FrozenBuf, kind: u32, seg: u32) -> Result<&'a [u8], PersistError> {
        let &(off, len) = self
            .entries
            .get(&(kind, seg))
            .ok_or_else(|| corrupt(format!("missing section {} segment {seg}", section_kind_name(kind))))?;
        Ok(&buf.as_bytes()[off..off + len])
    }
}

/// Opens an artifact file, preferring a read-only memory map and falling
/// back to a heap read when mapping is unavailable. See [`open_frozen_bytes`]
/// for the byte-buffer variant; validation and results are identical.
pub fn open_frozen(path: &Path) -> Result<FrozenParts, PersistError> {
    if failpoint::hit("frozen.open.read").is_some() {
        return Err(PersistError::Io(std::io::Error::other("failpoint frozen.open.read")));
    }
    let file = std::fs::File::open(path).map_err(PersistError::Io)?;
    let buf = if failpoint::hit("frozen.open.mmap").is_some() {
        // Injected mmap failure: exercise the heap fallback path.
        let bytes = std::fs::read(path).map_err(PersistError::Io)?;
        FrozenBuf::heap_from_bytes(&bytes)
    } else {
        match FrozenBuf::mmap_file(&file) {
            Ok(m) => m,
            Err(_) => {
                let bytes = std::fs::read(path).map_err(PersistError::Io)?;
                FrozenBuf::heap_from_bytes(&bytes)
            }
        }
    };
    open_frozen_buf(Arc::new(buf))
}

/// Opens an artifact from an in-memory byte buffer (the bytes are copied
/// into an aligned heap arena; no mapping is involved).
pub fn open_frozen_bytes(bytes: &[u8]) -> Result<FrozenParts, PersistError> {
    open_frozen_buf(Arc::new(FrozenBuf::heap_from_bytes(bytes)))
}

fn open_frozen_buf(buf: Arc<FrozenBuf>) -> Result<FrozenParts, PersistError> {
    if cfg!(target_endian = "big") {
        return Err(corrupt("frozen artifacts require a little-endian host"));
    }
    let bytes = buf.as_bytes();
    check_header(bytes)?;
    if bytes.len() < HEADER_FIXED + 4 {
        return Err(PersistError::Truncated("frozen header"));
    }
    // Integrity first: nothing in the body is trusted before the CRC holds.
    let payload_end = bytes.len() - 4;
    let expected = u32::from_le_bytes(bytes[payload_end..].try_into().expect("4-byte footer"));
    let actual = crc32(&bytes[..payload_end]);
    if expected != actual {
        return Err(PersistError::ChecksumMismatch { expected, actual });
    }
    if failpoint::hit("frozen.open.validate").is_some() {
        return Err(corrupt("failpoint frozen.open.validate"));
    }
    let table = parse_table(bytes)?;
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte generation"));

    // Interner: validate the frozen string table, then overlay.
    let strings = FrozenStrings::new(
        table.slice::<u8>(&buf, SEC_STR_BYTES, GLOBAL_SEG)?.into(),
        table.slice::<u32>(&buf, SEC_STR_OFF, GLOBAL_SEG)?.into(),
        table.slice::<u32>(&buf, SEC_STR_TABLE, GLOBAL_SEG)?.into(),
    )
    .map_err(|e| corrupt(format!("string table: {e}")))?;
    if strings.len() > TokenId::LIMIT as usize {
        return Err(corrupt(format!("string table holds {} tokens, the id space ends at {}", strings.len(), TokenId::LIMIT)));
    }
    let interner = Interner::with_base(Arc::new(strings));
    let n_tokens = interner.len() as u32;

    // Global order.
    let order = GlobalOrder::from_raw_parts(
        table.slice::<u32>(&buf, SEC_ORD_FREQ, GLOBAL_SEG)?.into(),
        table.slice::<u32>(&buf, SEC_ORD_KEY, GLOBAL_SEG)?.into(),
        table.slice::<TokenId>(&buf, SEC_ORD_UNTIE, GLOBAL_SEG)?.into(),
    )
    .map_err(|e| corrupt(format!("global order: {e}")))?;
    let (freq, _, _) = order.raw_parts();
    if freq.len() > n_tokens as usize {
        return Err(corrupt(format!("global order covers {} tokens, interner holds {n_tokens}", freq.len())));
    }
    let order = Arc::new(order);

    // META: the small decoded structures.
    let meta = table.bytes(&buf, SEC_META, GLOBAL_SEG)?;
    let mut r = Reader { buf: meta };
    let meta_segments = r.u32("meta segment count")? as usize;
    if meta_segments != table.segments {
        return Err(corrupt(format!("meta names {meta_segments} segments, section table holds {}", table.segments)));
    }
    let meta_entities = r.u32("meta entity count")? as usize;
    let meta_rules = r.u32("meta rule count")? as usize;
    let dict = Dictionary::from_raw_arenas(
        table.bytes(&buf, SEC_DICT_RAWS, GLOBAL_SEG)?.to_vec(),
        table.slice::<u32>(&buf, SEC_DICT_RAWOFF, GLOBAL_SEG)?.to_vec(),
        table.slice::<TokenId>(&buf, SEC_DICT_TOKENS, GLOBAL_SEG)?.to_vec(),
        table.slice::<u32>(&buf, SEC_DICT_TOKOFF, GLOBAL_SEG)?.to_vec(),
        n_tokens,
    )
    .map_err(|e| corrupt(format!("dictionary: {e}")))?;
    if dict.len() != meta_entities {
        return Err(corrupt(format!("meta claims {meta_entities} entities, dictionary holds {}", dict.len())));
    }
    let n_removed = r.u32("removed size")? as usize;
    r.check_count(n_removed, 4, "removed size")?;
    let mut removed = Vec::with_capacity(n_removed);
    for _ in 0..n_removed {
        let id = r.u32("removed id")?;
        if id as usize >= dict.len() {
            return Err(corrupt(format!("removed id {id} out of range {}", dict.len())));
        }
        removed.push(EntityId(id));
    }
    r.check_count(meta_rules, 16, "rules size")?;
    let mut rules = RuleSet::new();
    rules.reserve(meta_rules);
    for _ in 0..meta_rules {
        let lhs = r.ids(n_tokens, "rule lhs")?;
        let rhs = r.ids(n_tokens, "rule rhs")?;
        let weight = r.f64("rule weight")?;
        rules.push_tokens(lhs, rhs, weight).map_err(|e| corrupt(format!("invalid persisted rule: {e}")))?;
    }
    let config = persist::read_config(&mut r)?;
    let mut stats = Vec::with_capacity(table.segments);
    for _ in 0..table.segments {
        stats.push(persist::read_stats(&mut r)?);
    }
    if !r.buf.is_empty() {
        return Err(corrupt(format!("{} trailing bytes in meta section", r.buf.len())));
    }

    // Segments: reassemble each variant table + index from its arenas,
    // with full structural validation, then cross-check the pieces agree.
    // Segments are independent, and the validation scans are the bulk of a
    // large artifact's open cost, so they run on scoped threads; errors are
    // surfaced in segment order to keep failures deterministic.
    let dict_len = dict.len();
    let parallel = table.segments > 1 && std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > 1;
    let seg_results: Vec<Result<FrozenSegmentParts, PersistError>> = if parallel {
        std::thread::scope(|sc| {
            let handles: Vec<_> = stats
                .into_iter()
                .enumerate()
                .map(|(s, st)| {
                    let (buf, table, order) = (&buf, &table, &order);
                    sc.spawn(move || open_segment(buf, table, order, s as u32, st, dict_len))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("segment validation worker")).collect()
        })
    } else {
        stats
            .into_iter()
            .enumerate()
            .map(|(s, st)| open_segment(&buf, &table, &order, s as u32, st, dict_len))
            .collect()
    };
    let mut segments = Vec::with_capacity(table.segments);
    for r in seg_results {
        segments.push(r?);
    }

    let mmapped = buf.is_mmap();
    Ok(FrozenParts { interner, dict, removed, rules, config, generation, order, segments, mmapped })
}

/// Reassembles and validates one frozen segment (see [`open_frozen_buf`]).
fn open_segment(
    buf: &Arc<FrozenBuf>,
    table: &SectionTable,
    order: &Arc<GlobalOrder>,
    s: u32,
    st: DeriveStats,
    dict_len: usize,
) -> Result<FrozenSegmentParts, PersistError> {
    // One prefix says which variant ids an origin owns; the table and the
    // index each hold a view of it, so an id remap that takes a range start
    // from one and an id through the other cannot be handed two answers.
    let by_origin = table.slice::<u32>(buf, SEC_DD_BYORIGIN, s)?;
    let dd = VariantTable::from_raw_arenas(by_origin.clone().into(), table.slice::<f64>(buf, SEC_DD_WEIGHT, s)?.into(), st)
        .map_err(|e| corrupt(format!("segment {s} variant table: {e}")))?;
    // A segment predating a dictionary-growing delta legitimately spans
    // a shorter origin space (origins beyond it have no variants there);
    // spanning more origins than the dictionary is always corruption.
    if dd.origins() > dict_len {
        return Err(corrupt(format!("segment {s} spans {} origins, dictionary holds only {dict_len}", dd.origins())));
    }
    let index = ClusteredIndex::from_raw_parts(
        Arc::clone(order),
        IndexArenas {
            tok_groups: table.slice::<u32>(buf, SEC_IX_TOKGROUPS, s)?.into(),
            group_len: table.slice::<u16>(buf, SEC_IX_GROUPLEN, s)?.into(),
            group_origins: table.slice::<u32>(buf, SEC_IX_GROUPORIG, s)?.into(),
            origin_entity: table.slice::<EntityId>(buf, SEC_IX_ORIGENT, s)?.into(),
            origin_min_pos: table.slice::<u16>(buf, SEC_IX_ORIGMINPOS, s)?.into(),
            blocks: table.slice::<u32>(buf, SEC_IX_BLOCKS, s)?.into(),
            block_offsets: table.slice::<u32>(buf, SEC_IX_BLOCKOFF, s)?.into(),
            origin_offsets: by_origin.into(),
        },
    )
    .map_err(|e| corrupt(format!("segment {s} index: {e}")))?;
    Ok(FrozenSegmentParts { dd, index })
}

// ------------------------------------------------------------- peek info --

/// Summary of an artifact's header, readable without loading (or fully
/// validating) the body. See [`peek_info`].
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Format version (always 9: other versions are refused).
    pub version: u32,
    /// Generation number.
    pub generation: u64,
    /// Origin entity count.
    pub entities: usize,
    /// Synonym rule count.
    pub rules: usize,
    /// Interned token count.
    pub tokens: usize,
    /// Segment count (1 in every artifact an engine writes).
    pub segments: usize,
    /// Total artifact size in bytes.
    pub file_len: usize,
    /// Per-section sizes.
    pub sections: Vec<SectionInfo>,
}

/// One section's identity and size.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section kind name (see [`section_kind_name`]).
    pub kind: &'static str,
    /// Owning segment (`None` for global sections).
    pub seg: Option<u32>,
    /// Section payload bytes.
    pub len: usize,
}

/// Reads an artifact's headline facts — version, generation, entity/rule/
/// token counts, section sizes — from the header, section table and the
/// META counts, without building an engine. No CRC is verified — this is a
/// diagnostic peek, not a load.
pub fn peek_info(bytes: &[u8]) -> Result<ArtifactInfo, PersistError> {
    check_header(bytes)?;
    if bytes.len() < HEADER_FIXED + 4 {
        return Err(PersistError::Truncated("frozen header"));
    }
    let table = parse_table(bytes)?;
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte generation"));
    // Leading META counts (segments, entities, rules).
    let &(off, len) = table.entries.get(&(SEC_META, GLOBAL_SEG)).expect("parse_table guarantees META");
    let mut r = Reader { buf: &bytes[off..off + len] };
    let _segments = r.u32("meta segment count")? as usize;
    let entities = r.u32("meta entity count")? as usize;
    let rules = r.u32("meta rule count")? as usize;
    // Token count: the string offset array holds n + 1 entries.
    let &(_, off_len) = table.entries.get(&(SEC_STR_OFF, GLOBAL_SEG)).expect("parse_table guarantees STR_OFF");
    let tokens = (off_len / 4).saturating_sub(1);
    let mut sections: Vec<SectionInfo> = table
        .entries
        .iter()
        .map(|(&(kind, seg), &(_, len))| SectionInfo { kind: section_kind_name(kind), seg: (seg != GLOBAL_SEG).then_some(seg), len })
        .collect();
    sections.sort_by_key(|s| (s.seg, s.kind));
    Ok(ArtifactInfo {
        version: persist::VERSION_FROZEN,
        generation,
        entities,
        rules,
        tokens,
        segments: table.segments,
        file_len: bytes.len(),
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::extract_segment;
    use crate::limits::ExtractLimits;
    use aeetes_rules::{DerivedDictionary, DerivedId};
    use aeetes_text::{Document, Tokenizer};

    fn sample() -> (crate::Aeetes, Interner, Tokenizer, RuleSet) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push("Purdue University USA", &tok, &mut int);
        dict.push("UQ AU", &tok, &mut int);
        dict.push("University of Wisconsin Madison", &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("UQ", "University of Queensland", &tok, &mut int).unwrap();
        rules.push_weighted_str("AU", "Australia", 0.9, &tok, &mut int).unwrap();
        rules.push_str("USA", "United States", &tok, &mut int).unwrap();
        let engine = crate::Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        (engine, int, tok, rules)
    }

    fn freeze_sample(engine: &crate::Aeetes, int: &Interner, rules: &RuleSet, generation: u64) -> Vec<u8> {
        freeze_to_bytes(&FreezeSource {
            interner: int,
            dict: engine.dictionary(),
            removed: &[],
            rules,
            config: engine.config(),
            generation,
            order: engine.index().order(),
            segments: vec![FreezeSegment { dd: engine.derived(), index: engine.index() }],
        })
    }

    /// Re-seals `bytes` after a patch, so that it reaches validation.
    fn recrc(bytes: &mut [u8]) {
        let end = bytes.len() - 4;
        let footer = crc32(&bytes[..end]);
        bytes[end..].copy_from_slice(&footer.to_le_bytes());
    }

    fn extract_frozen(parts: &FrozenParts, doc: &Document, tau: f64) -> Vec<crate::Match> {
        let seg = &parts.segments[0];
        extract_segment(&seg.index, &seg.dd, doc, tau, parts.config.strategy, parts.config.metric, false, None, &ExtractLimits::UNLIMITED, None)
            .matches
    }

    #[test]
    fn round_trip_heap_is_bit_identical() {
        let (engine, mut int, tok, rules) = sample();
        let bytes = freeze_sample(&engine, &int, &rules, 3);
        let parts = open_frozen_bytes(&bytes).expect("open");
        assert_eq!(parts.generation, 3);
        assert!(!parts.mmapped);
        assert_eq!(parts.interner.len(), int.len());
        assert_eq!(parts.dict.len(), engine.dictionary().len());
        assert_eq!(parts.rules.len(), rules.len());
        assert!(parts.segments[0].dd.is_frozen());
        assert!(parts.segments[0].index.is_frozen());
        let text = "she left UQ Australia for Purdue University United States near University of Wisconsin Madison";
        let doc_a = Document::parse(text, &tok, &mut int);
        let mut frozen_int = parts.interner.clone();
        let doc_b = Document::parse(text, &tok, &mut frozen_int);
        for tau in [0.6, 0.8, 1.0] {
            assert_eq!(extract_frozen(&parts, &doc_b, tau), engine.extract(&doc_a, tau), "tau={tau}");
        }
    }

    #[test]
    fn round_trip_mmap_matches_heap() {
        let (engine, int, tok, rules) = sample();
        let bytes = freeze_sample(&engine, &int, &rules, 1);
        let path = std::env::temp_dir().join(format!("aeetes-frozen-rt-{}.aeet", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = open_frozen(&path).expect("open mmap");
        let heaped = open_frozen_bytes(&bytes).expect("open heap");
        #[cfg(unix)]
        assert!(mapped.mmapped, "unix opens must map");
        let mut int_a = mapped.interner.clone();
        let mut int_b = heaped.interner.clone();
        let doc_a = Document::parse("purdue university united states and uq australia", &tok, &mut int_a);
        let doc_b = Document::parse("purdue university united states and uq australia", &tok, &mut int_b);
        assert_eq!(extract_frozen(&mapped, &doc_a, 0.7), extract_frozen(&heaped, &doc_b, 0.7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn misaligned_section_offset_rejected() {
        let (engine, int, _, rules) = sample();
        let mut bytes = freeze_sample(&engine, &int, &rules, 2);
        // Nudge the first section's offset off alignment, re-CRC.
        let at = HEADER_FIXED + 8;
        let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(off + 1).to_le_bytes());
        recrc(&mut bytes);
        let err = match open_frozen_bytes(&bytes) {
            Ok(_) => panic!("misaligned offset must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("aligned"), "unexpected error: {err}");
    }

    #[test]
    fn sharded_segments_round_trip() {
        // Two segments splitting the origin space; both span the full origin
        // id range with disjoint resident origins.
        let (engine, int, tok, rules) = sample();
        let dict = engine.dictionary();
        let config = engine.config();
        let even = DerivedDictionary::build_filtered(dict, &rules, &config.derive, |e| e.0 % 2 == 0);
        let odd = DerivedDictionary::build_filtered(dict, &rules, &config.derive, |e| e.0 % 2 == 1);
        let order = engine.index().shared_order();
        let ix_even = ClusteredIndex::build_with_order(&even, Arc::clone(&order));
        let ix_odd = ClusteredIndex::build_with_order(&odd, Arc::clone(&order));
        let bytes = freeze_to_bytes(&FreezeSource {
            interner: &int,
            dict,
            removed: &[],
            rules: &rules,
            config,
            generation: 7,
            order: order.as_ref(),
            segments: vec![FreezeSegment { dd: &even, index: &ix_even }, FreezeSegment { dd: &odd, index: &ix_odd }],
        });
        let parts = open_frozen_bytes(&bytes).expect("open two segments");
        assert_eq!(parts.segments.len(), 2);
        assert_eq!(parts.generation, 7);
        assert_eq!(parts.segments[0].dd.len(), even.len());
        assert_eq!(parts.segments[1].dd.len(), odd.len());
        // Each frozen segment extracts identically to its source.
        let mut fi = parts.interner.clone();
        let doc = Document::parse("purdue university united states and uq australia", &tok, &mut fi);
        for (seg, (src_dd, src_ix)) in parts.segments.iter().zip([(&even, &ix_even), (&odd, &ix_odd)]) {
            let a = extract_segment(&seg.index, &seg.dd, &doc, 0.7, config.strategy, config.metric, false, None, &ExtractLimits::UNLIMITED, None);
            let b = extract_segment(src_ix, src_dd, &doc, 0.7, config.strategy, config.metric, false, None, &ExtractLimits::UNLIMITED, None);
            assert_eq!(a.matches, b.matches);
        }
    }

    #[test]
    fn refreeze_of_opened_parts_is_stable() {
        // freeze → open → freeze again must produce identical bytes: the
        // opened arenas describe exactly what was written.
        let (engine, int, _, rules) = sample();
        let bytes = freeze_sample(&engine, &int, &rules, 4);
        let parts = open_frozen_bytes(&bytes).expect("open");
        let again = freeze_to_bytes(&FreezeSource {
            interner: &parts.interner,
            dict: &parts.dict,
            removed: &parts.removed,
            rules: &parts.rules,
            config: &parts.config,
            generation: parts.generation,
            order: parts.order.as_ref(),
            segments: parts.segments.iter().map(|s| FreezeSegment { dd: &s.dd, index: &s.index }).collect(),
        });
        assert_eq!(bytes, again, "refreeze must be byte-identical");
    }

    #[test]
    fn peek_info_reports_header_facts() {
        let (engine, int, _, rules) = sample();
        let bytes = freeze_sample(&engine, &int, &rules, 9);
        let info = peek_info(&bytes).expect("peek");
        assert_eq!(info.version, 9);
        assert_eq!(info.generation, 9);
        assert_eq!(info.entities, 3);
        assert_eq!(info.rules, 3);
        assert_eq!(info.tokens, int.len());
        assert_eq!(info.segments, 1);
        assert_eq!(info.file_len, bytes.len());
        assert!(!info.sections.is_empty());
        let segment: Vec<&str> = info.sections.iter().filter(|s| s.seg == Some(0)).map(|s| s.kind).collect();
        assert_eq!(segment.len(), SEGMENT_KINDS.len());
        assert_eq!(segment.iter().filter(|k| k.starts_with("dd.")).collect::<Vec<_>>(), [&"dd.by_origin", &"dd.weight"]);
    }

    #[test]
    fn other_format_versions_are_named_not_called_corrupt() {
        // A valid magic with any version but 9 — the retired v1–v8 layouts
        // or a future one — is refused by version, whatever follows it (no
        // footer, a foreign footer, or nothing at all).
        let (engine, int, _, rules) = sample();
        let v9 = freeze_sample(&engine, &int, &rules, 1);
        for version in [0u32, 1, 2, 3, 4, 5, 6, 7, 8, 10, 99] {
            let mut whole = v9.clone();
            whole[4..8].copy_from_slice(&version.to_le_bytes());
            let mut bare = b"AEET".to_vec();
            bare.extend_from_slice(&version.to_le_bytes());
            for bytes in [&whole, &bare] {
                assert!(matches!(open_frozen_bytes(bytes), Err(PersistError::UnsupportedVersion(v)) if v == version), "open v{version}");
                assert!(matches!(peek_info(bytes), Err(PersistError::UnsupportedVersion(v)) if v == version), "peek v{version}");
            }
        }
        assert!(matches!(open_frozen_bytes(b"NOPE1234"), Err(PersistError::BadMagic)));
        assert!(matches!(open_frozen_bytes(b"AE"), Err(PersistError::Truncated(_))));
    }

    /// CRC-valid images no writer produces: each is refused by name, none
    /// reaches a lookup that would trust it.
    #[test]
    fn hostile_segments_are_refused() {
        let (engine, int, _, rules) = sample();
        let good = freeze_sample(&engine, &int, &rules, 1);
        let (by_origin, weight) = engine.derived().raw_arenas();
        assert_eq!((by_origin, weight.len()), (&[0, 2, 6, 7][..], 7));
        // The origin prefix is written once, from the table, and the index
        // reads that copy: a table that gives origin 0 a third variant cannot
        // disagree with the index over it, only with the index's own blocks,
        // where origin 0 has two masks.
        let shifted = VariantTable::from_raw_arenas(vec![0, 3, 6, 7].into(), weight.to_vec().into(), engine.derived().stats().clone()).unwrap();
        let another_prefix = freeze_to_bytes(&FreezeSource {
            interner: &int,
            dict: engine.dictionary(),
            removed: &[],
            rules: &rules,
            config: engine.config(),
            generation: 1,
            order: engine.index().order(),
            segments: vec![FreezeSegment { dd: &shifted, index: engine.index() }],
        });
        let table = parse_table(&good).unwrap();
        let (w_off, w_len) = table.entries[&(SEC_DD_WEIGHT, 0)];
        let (m_off, m_len) = table.entries[&(SEC_IX_ORIGMINPOS, 0)];
        // Where the section table holds a kind's length.
        let len_field = |kind: u32| {
            let entry = (0..).map(|i| HEADER_FIXED + i * ENTRY_BYTES).find(|&at| good[at..at + 4] == kind.to_le_bytes());
            entry.unwrap() + 16
        };
        let patched = |at: usize, with: &[u8]| {
            let mut bytes = good.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            recrc(&mut bytes);
            bytes
        };
        // Blocks: origin 0 is [5 | 5 keys | 3-key mask | 4-key mask], origin
        // 1 [6 | 6 keys | 4 masks], origin 2 [4 | 4 keys | 1 mask].
        let ix = engine.index().raw_parts();
        assert_eq!((ix.block_offsets, ix.blocks[0], ix.blocks[6].count_ones(), ix.blocks[7].count_ones()), (&[0, 8, 19, 25][..], 5, 3, 4));
        let (b_off, _) = table.entries[&(SEC_IX_BLOCKS, 0)];
        let (o_off, _) = table.entries[&(SEC_DD_BYORIGIN, 0)];
        let block_word = |i: usize, with: u32| patched(b_off + 4 * i, &with.to_le_bytes());
        let ranks = engine.index().order().ranks() as u32;
        let clusters = ix.origin_entity.len();
        assert_eq!(m_len, 2 * clusters);
        for (bytes, expect) in [
            (another_prefix, "segment 0 index: origin 0's block holds 8 words, not 1 + 5 keys + 3 masks of 1"),
            (patched(w_off + 8, &0f64.to_le_bytes()), "segment 0 variant table: variant 1 weight 0 outside (0, 1]"),
            (patched(w_off + 16, &1.5f64.to_le_bytes()), "segment 0 variant table: variant 2 weight 1.5 outside (0, 1]"),
            (
                patched(len_field(SEC_DD_WEIGHT), &(w_len as u64 - 8).to_le_bytes()),
                "variant weight array holds 6 entries, expected none or 7",
            ),
            (block_word(0, 99), "segment 0 index: origin 0's pool of 99 keys exceeds its block of 8 words"),
            (block_word(0, 4), "segment 0 index: origin 0's block holds 8 words, not 1 + 4 keys + 2 masks of 1"),
            (block_word(2, ix.blocks[1]), "segment 0 index: origin 0's pool keys are not strictly ascending"),
            (block_word(9, ix.blocks[9] & !aeetes_index::VALID_BIT), "segment 0 index: origin 1's pool holds key"),
            (
                block_word(5, aeetes_index::VALID_BIT | ranks),
                &format!("segment 0 index: origin 0's pool holds rank {ranks} but the order hands out only {ranks}"),
            ),
            (block_word(6, ix.blocks[6] | 1 << 5), "segment 0 index: origin 0's slot 0 sets a mask bit beyond its pool of 5 keys"),
            (
                patched(b_off + 4 * 6, &[ix.blocks[7].to_le_bytes(), ix.blocks[6].to_le_bytes()].concat()),
                "segment 0 index: origin 0's variants are not sorted by set length",
            ),
            // One lowest position per origin cluster, each inside the sets
            // of its group's length.
            (
                patched(len_field(SEC_IX_ORIGMINPOS), &(m_len as u64 + 2).to_le_bytes()),
                &format!("segment 0 index: lowest positions hold {} entries, expected one per origin cluster: {clusters}", clusters + 1),
            ),
            (
                patched(len_field(SEC_IX_ORIGMINPOS), &(m_len as u64 - 2).to_le_bytes()),
                &format!("segment 0 index: lowest positions hold {} entries, expected one per origin cluster: {clusters}", clusters - 1),
            ),
            (
                patched(m_off, &ix.group_len[0].to_le_bytes()),
                &format!("segment 0 index: origin cluster 0 lowest position {0} outside its group's sets of {0}", ix.group_len[0]),
            ),
            // Origin 1 left without variants (they pass to origin 2) keeps its block.
            (patched(o_off + 8, &2u32.to_le_bytes()), "segment 0 index: origin 1 has no variants but a block of 11 words"),
        ] {
            let err = open_frozen_bytes(&bytes).err().expect(expect).to_string();
            assert!(err.contains(expect), "expected `{expect}` in `{err}`");
        }
        // An empty weight section is the other legal length: unit weights.
        let unweighted = open_frozen_bytes(&patched(len_field(SEC_DD_WEIGHT), &0u64.to_le_bytes())).expect("len 0 is legal");
        assert_eq!(unweighted.segments[0].dd.weight_of(DerivedId(3)), 1.0);
    }
}
