//! Frozen AEET v14: a flat, mmap-able immutable engine image — the one
//! artifact format Aeetes writes and opens.
//!
//! The off-line product (clustered index, paper §3/§5) is built once and
//! shipped; a format that had to *rebuild* the index on load would make
//! every restart pay seconds of CPU and every serve process hold a private
//! copy. The frozen layout instead lays every large structure (origin
//! dictionary, interner string table, global order, clustered index) out as
//! flat little-endian arrays at 16-byte-aligned offsets, so an engine can
//! `mmap` the file, validate it, and serve its first request in
//! milliseconds — and N serve processes on one host share a single page
//! cache image instead of N private heaps. Files carrying any other version
//! word (the retired v1–v13 layouts, or a future one) are refused with
//! [`PersistError::UnsupportedVersion`].
//!
//! ## Layout
//!
//! ```text
//! [ 0.. 4)  magic "AEET"
//! [ 4.. 8)  version u32 = 14
//! [ 8..16)  generation u64
//! [16..20)  section count S (u32)
//! [20..24)  reserved (0)
//! [24..24+S·24)  section table: per section
//!                { kind u32, width u32 (bytes per element), off u64, len u64 }
//! ... sections, each starting at a 16-byte-aligned offset, zero-padded ...
//! [len-4..len)  CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! All integers are little-endian; the in-memory structures reinterpret the
//! mapped bytes directly (and the writer copies them out the same way), so
//! artifacts are only written and opened on little-endian hosts (both ends
//! refuse elsewhere rather than misread).
//!
//! Section *kinds* are fixed small integers (see [`KINDS`]): the META blob
//! (counts, tombstones, config, derive statistics — small, decoded once),
//! the rule table's sides, side offsets and weights, the origin dictionary's
//! four arenas, the interner's string arena and offsets, the global
//! order's two arrays, the seven flat arrays of the clustered index, the
//! variants' weights, and the origin → variant-range prefix that the variant
//! table and the index both read. An artifact holds one index, so each kind
//! appears exactly once. Each entry names its element width, and each kind
//! has its own: one fixed width for all but `ix.origin_entity` and
//! `ix.blocks`, which take the index's id width, and `rules.sides` and
//! `rules.side_off`, which take the rule table's — each 2 or 4, the same
//! for both sections of a pair (see below). An unknown kind, a missing or
//! repeated one, or a width its kind does not take is refused by name.
//! Offsets are validated against the file bounds and the 16-byte alignment
//! rule, every prefix array is re-validated structurally on open
//! ([`Dictionary::from_raw_arenas`], [`RuleSet::from_flat`],
//! [`VariantTable::from_raw_arenas`], [`ClusteredIndex::from_raw_parts`],
//! [`GlobalOrder::from_raw_parts`], [`Interner::from_raw_arenas`], which
//! also builds the string → id slots on the heap and refuses a string stored
//! twice), and the
//! whole-file CRC is checked first — a truncated or bit-flipped artifact
//! yields a clean [`PersistError`], never a panic or an out-of-bounds read.
//!
//! ## Sections
//!
//! Every section is one array of one element type; its length is `count ×
//! width`, but for `ix.blocks`, whose width is that of its keys and whose
//! length is a multiple of its `u32` words. Bytes below are what `aeetes dict
//! info` prints for `aeetes generate --seed 12` dictionaries built with
//! `aeetes build`: pubmed and dbworld at scale 1.0, usjob at scale 0.25. v8
//! also stored `ix.origin_entries`, `ix.positions` and `ix.variants_by_len`;
//! v9 dropped them and added `ix.origin_min_pos`, one position per cluster;
//! v10 stores `ix.origin_entity` and the keys of `ix.blocks` at 16 bits where
//! they fit; v11 moves the position from the cluster to the group
//! (`ix.group_pos`, see below); v12 stores each variant's mask in exactly as
//! many bits as its pool has keys and drops `strings.table`; v13 moves the
//! rule table out of META into the three `rules.*` sections; v14 drops
//! `order.freq`, which nothing read once the order was ranked.
//!
//! ```text
//! section             element width         pubmed     dbworld       usjob
//! meta                bytes   1               70          70          70
//! rules.sides         u16     2           37 222      60 340      61 074
//! rules.side_off      u16     2           18 974      32 242      30 966
//! rules.weight        f64     8                0           0           0
//! dict.raws           u8      1          573 989     250 832     490 521
//! dict.raw_off        u32     4           80 004      48 004      30 004
//! dict.tokens         u32     4          240 632     105 284     206 468
//! dict.tok_off        u32     4           80 004      48 004      30 004
//! strings.bytes       u8      1           97 273      47 071      36 101
//! strings.offsets     u32     4           36 560      18 280      14 168
//! order.key           u32     4           36 556      18 276      14 164
//! order.untie         u32     4           36 348      18 276      14 164
//! dd.by_origin        u32     4           80 004      48 004      30 004
//! dd.weight           f64     8                0           0           0
//! ix.tok_groups       u32     4           36 560      18 280      14 168
//! ix.group_len        u16     2           80 442      57 340     103 678
//! ix.group_pos        u16     2           80 442      57 340     103 678
//! ix.group_origins    u32     4          160 888     114 684     207 360
//! ix.origin_entity    u16     2          366 884     301 792   1 131 604
//! ix.blocks           u16     2          643 636     431 692   4 437 484
//! ix.block_offsets    u32     4           80 004      48 004      30 004
//! whole file                           2 767 160   1 724 488   6 986 376
//! ```
//!
//! (`ix.blocks` is `u32` words; its width is its keys', two to a word. At
//! v11 every mask took whole words — `ix.blocks` was 766 220 / 570 096 /
//! 5 309 648 bytes — and `strings.table` 131 072 / 65 536 / 32 768: the
//! file was 3 151 480 / 2 103 720 / 8 059 400, −8.0 / −9.7 / −11.2 % at
//! v12. At v12 META held the rule table, 31 bytes a rule — 150 402 /
//! 249 710 / 246 074 bytes — and the file was 2 897 800 / 1 899 752 /
//! 7 154 440, −3.2 / −8.3 / −2.2 % at v13; every other section is
//! byte-identical. v13 stored `order.freq` as well, 36 556 / 18 276 /
//! 14 164 bytes: the file was 2 803 752 / 1 742 808 / 7 000 584, −1.3 /
//! −1.1 / −0.2 % at v14, every other section byte-identical.)
//!
//! An index *entry* is one origin cluster: for a token, a set length and an
//! origin, the fact that some variant of that origin with a set of that
//! length holds the token, and the cluster's lowest position: the lowest
//! position (0-based) the token takes in the ordered set of any of those
//! variants. `ix.tok_groups` cuts a token's groups out of `ix.group_len` and
//! **`ix.group_pos`**: a group is the token's clusters of one `(set length,
//! lowest position)` — a token's clusters of one length take 1.6–2.7
//! distinct lowest positions, so the position is stored once per group, not
//! once per cluster as v9–v10 did — groups ascend by that pair and an origin
//! stands in one group of a token and length. `ix.group_origins` cuts a
//! group's clusters out of **`ix.origin_entity`**, ascending. Open checks a
//! group's position against its length and the uniqueness of an origin per
//! token and length, not the cluster against the blocks — that some mask of
//! the origin and the group's length holds the token at the group's
//! position — so a CRC-valid image is trusted that far, for masks as for
//! positions (that check costs some thirty opens on usjob, DESIGN.md §15). v8 stored
//! every position (`ix.positions`, cut
//! per cluster by `ix.origin_entries`) — a posting per key of every
//! variant's set, 3 102 985 on usjob for 565 802 clusters — but a candidate
//! is an origin, and all a scan asks of a cluster is whether *some* position
//! is inside the τ-prefix of a set of the group's length: `∃ pos <
//! prefix_len(len, τ)`. All of a cluster's variants share `len`, so they
//! share the bound, and `∃ pos < bound ⇔ min pos < bound` for any bound —
//! the minimum decides every threshold and every metric exactly, and a scan
//! takes or passes over a group's origins whole on one compare.
//!
//! The index stores its variants' key sets in **`ix.blocks`**: one `u32`
//! arena holding one *block* per origin, found through the prefix
//! **`ix.block_offsets`** (origins + 1 entries):
//!
//! ```text
//! [ P | the P distinct keys of all the origin's variants, ascending | one P-bit mask per variant, run together ]
//! ```
//!
//! (the keys at the index's id width, below). The keys are the origin's
//! *pool* (the variants of one origin are the same
//! few tokens recombined: usjob's 418 520 variants hold 3 102 985 keys, of
//! which 312 580 are distinct within their origin); bit `b` of a variant's
//! mask says pool key `b` is in its set, and the masks stand in the order of
//! the origin's variant ids: slot `s` of origin `e` is variant
//! `dd.by_origin[e] + s`, and its mask is bits `s·P .. (s+1)·P` of the masks
//! (bit `i` of them is bit `i % 32` of their word `i / 32`), so `nv` masks take
//! `⌈nv·P/32⌉` words and the last one's bits past `nv·P` are zero. A usjob
//! variant holds 7.4 of its origin's 41.7 keys: v8–v11 gave each mask
//! `⌈P/32⌉` words of its own, 87 % of `ix.blocks`. Derivation hands an origin's ids out by ascending
//! distinct-token count, ties in enumeration order, so set lengths never fall
//! along the slots (verification binary-searches them; v8 derived in
//! enumeration order and kept the by-length permutation as
//! `ix.variants_by_len`). An origin without variants has no
//! block. A set's length is its mask's popcount, a key's position in its set
//! the popcount of the mask's lower bits, and verification (`core::verify`)
//! merges a window against the pool once instead of against every variant. A
//! block names no variant id and no offset, so a delta's splice copies
//! unchanged origins' blocks as they stand. A reader takes a mask out a word
//! at a time, each put together from the two stored words it straddles
//! ([`aeetes_index::OriginBlock::mask_into`]), and a set length is the
//! popcount of those words; verification reads a slot's words into a
//! reused scratch and runs on them as on any mask. The layout is fixed
//! width, not a code: a slot is still found by its index.
//!
//! **`dd.by_origin`** — which variant ids an origin owns — is the one prefix
//! [`VariantTable`] and [`ClusteredIndex`] both read (a tailed generation's
//! id remap takes a range start from the first and subtracts it from an id
//! drawn through the second); it is stored once and both are handed a view.
//!
//! Of a variant's derivation, extraction reads only that prefix and, for
//! weighted requests, its weight: **`dd.weight`** holds one `f64` per variant
//! in an index where some variant weighs other than `1.0`, and nothing
//! otherwise — a function of the index's variants alone, so a delta's
//! splice and a rebuild agree on it. The generated corpora carry unit
//! weights throughout. Token sequences and rule provenance are a pure
//! function of (origin tokens, rule table, derive config) — `dict.*`,
//! `rules.*` and META carry those — so re-deriving one origin
//! ([`aeetes_rules::DerivedDictionary::build_filtered`], at most 256
//! variants) reproduces its variants in id order on any generation.
//!
//! A key in **`order.key`** is a `u32`. A valid token — one occurring in
//! some derived entity — keys as [`aeetes_index::VALID_BIT`] `| rank`, its
//! dense rank in ascending `(frequency, string)` order; `order.untie` maps
//! ranks back to tokens. Any other token keys as its own id, which is why
//! token ids stop at 2³¹ ([`TokenId::LIMIT`]): every invalid key sorts below
//! every valid one. The two arrays are the whole order: a token is valid
//! exactly when its key carries the valid bit, and the frequencies that
//! ranked the tokens are not stored (v13 kept them as `order.freq`, which
//! nothing read). Open checks that `order.untie` names exactly the tokens
//! keyed valid, each at its rank, that every other token keys as its own
//! id, and that the key array covers no more tokens than the interner
//! holds. A dictionary delta leaves existing keys as they are and
//! ranks tokens it makes valid after all existing ones, until the next full
//! build — so a key's position in a set it is in, and with it every lowest
//! position a cluster stores, survives a delta untouched.
//!
//! **The id width.** Every key of a pool is valid, so a pool need not store
//! the valid bit, only the rank. An index over at most 2¹⁶ origins, keyed by
//! an order of at most 2¹⁶ ranks, stores at 16 bits
//! ([`aeetes_index::IdWidth::of`]): `ix.origin_entity` holds `u16` origins
//! and a pool its bare ranks, two to a `u32` word of `ix.blocks`, the lower
//! half first and an odd pool's spare upper half zero, so a block is `[P |
//! ⌈P/2⌉ key words | masks]`. Any larger index stores `u32` origins and
//! `VALID_BIT | rank` keys, one to a word. Both sections' entries name the
//! width (2 or 4) and must agree; a 16-bit index over more than 2¹⁶ origins
//! or ranks, a non-zero spare half-word and a rank the order does not hand
//! out are refused on open. Masks, positions and every prefix array are the
//! same at both widths. The width is derived when an index is built, never
//! configured; a dictionary delta that takes a generation past 2¹⁶ builds its
//! tail wide and leaves the shared base as it is, and the next compaction
//! (which freezing runs) chooses again.
//!
//! **The rule table** is flat. **`rules.sides`** holds every rule's lhs
//! run and then its rhs run, in rule-id order, and **`rules.side_off`** the
//! `2 · rules + 1` offsets cutting them, from 0. Both are stored at 2 bytes
//! when the interner holds at most 2¹⁶ tokens and the sides fewer than 2¹⁶
//! tokens, and at 4 otherwise; the two entries must agree, and a 2-byte
//! table over an interner past 2¹⁶ tokens is refused. **`rules.weight`**
//! holds one `f64` per rule where some rule weighs other than `1.0`, and
//! nothing otherwise, as `dd.weight` does. META keeps only the rule count.
//! Open checks what a push checks — no empty side, no rule rewriting a
//! sequence to itself, weights in `(0, 1]`, token ids inside the interner —
//! and widens the sections into one owned part of a [`RuleSet`]: rules are
//! read only when a build or a delta derives, never on the extraction path,
//! so a 16-bit view in place would put a width match into every side read
//! to save about 0.1 MB. The lookup of sides by first token is neither
//! stored nor kept: each derivation builds one over the tokens of the
//! origins it derives and drops it when done (a build's parts share one).
//! Storing one for the whole table would take about 66 kB on dbworld, half
//! of what moving the table out of META saves.
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
use aeetes_index::{ClusteredIndex, GlobalOrder, IdArena, IdWidth, IndexArenas};
use aeetes_rules::{RuleSet, VariantTable};
use aeetes_text::{Dictionary, EntityId, Interner, TokenId};
use std::path::Path;
use std::sync::Arc;

/// Fixed header bytes before the section table.
const HEADER_FIXED: usize = 24;
/// Bytes per section-table entry.
const ENTRY_BYTES: usize = 24;
/// Every section starts at a multiple of this (covers every element type's
/// natural alignment with room to spare).
const SECTION_ALIGN: usize = 16;
/// Backstop against forged section counts (a real artifact has 21).
const MAX_SECTIONS: usize = 1 << 16;

const SEC_META: u32 = 0;
// 1 was v1–v13's `order.freq`.
const SEC_ORD_KEY: u32 = 2;
const SEC_ORD_UNTIE: u32 = 3;
const SEC_STR_BYTES: u32 = 4;
const SEC_STR_OFF: u32 = 5;
// 6 was v1–v11's `strings.table`.
// Origin-dictionary arenas (the runs `Dictionary::arena_runs` yields, concatenated).
const SEC_DICT_RAWS: u32 = 30;
const SEC_DICT_RAWOFF: u32 = 31;
const SEC_DICT_TOKENS: u32 = 32;
const SEC_DICT_TOKOFF: u32 = 33;
// The rule table's flat form (`RuleSet::from_flat`).
const SEC_RULES_SIDES: u32 = 40;
const SEC_RULES_SIDEOFF: u32 = 41;
const SEC_RULES_WEIGHT: u32 = 42;
// Variant-table sections (mirror `VariantTable::raw_arenas`).
const SEC_DD_WEIGHT: u32 = 11;
const SEC_DD_BYORIGIN: u32 = 16;
// Clustered-index sections.
const SEC_IX_TOKGROUPS: u32 = 20;
const SEC_IX_GROUPLEN: u32 = 21;
const SEC_IX_GROUPORIG: u32 = 22;
const SEC_IX_ORIGENT: u32 = 23;
// 24, 25 and 28 were v8's `ix.origin_entries`, `ix.positions` and
// `ix.variants_by_len`; 34 was v9–v10's `ix.origin_min_pos`.
const SEC_IX_BLOCKS: u32 = 26;
const SEC_IX_BLOCKOFF: u32 = 27;
const SEC_IX_GROUPPOS: u32 = 35;

/// The two element widths of ids stored at the width their space needs:
/// `ix.origin_entity` and `ix.blocks` take either, and the same one, as do
/// `rules.sides` and `rules.side_off`.
const ID_WIDTHS: &[u32] = &[2, 4];

/// Every section kind, in the order the writer lays them out: its name (for
/// `aeetes dict info`) and the element widths, in bytes, it may be stored at.
const KINDS: [(u32, &str, &[u32]); 21] = [
    (SEC_META, "meta", &[1]),
    (SEC_RULES_SIDES, "rules.sides", ID_WIDTHS),
    (SEC_RULES_SIDEOFF, "rules.side_off", ID_WIDTHS),
    (SEC_RULES_WEIGHT, "rules.weight", &[8]),
    (SEC_DICT_RAWS, "dict.raws", &[1]),
    (SEC_DICT_RAWOFF, "dict.raw_off", &[4]),
    (SEC_DICT_TOKENS, "dict.tokens", &[4]),
    (SEC_DICT_TOKOFF, "dict.tok_off", &[4]),
    (SEC_STR_BYTES, "strings.bytes", &[1]),
    (SEC_STR_OFF, "strings.offsets", &[4]),
    (SEC_ORD_KEY, "order.key", &[4]),
    (SEC_ORD_UNTIE, "order.untie", &[4]),
    (SEC_DD_BYORIGIN, "dd.by_origin", &[4]),
    (SEC_DD_WEIGHT, "dd.weight", &[8]),
    (SEC_IX_TOKGROUPS, "ix.tok_groups", &[4]),
    (SEC_IX_GROUPLEN, "ix.group_len", &[2]),
    (SEC_IX_GROUPPOS, "ix.group_pos", &[2]),
    (SEC_IX_GROUPORIG, "ix.group_origins", &[4]),
    (SEC_IX_ORIGENT, "ix.origin_entity", ID_WIDTHS),
    (SEC_IX_BLOCKS, "ix.blocks", ID_WIDTHS),
    (SEC_IX_BLOCKOFF, "ix.block_offsets", &[4]),
];

/// Human-readable name of a section kind (for `aeetes dict info`).
pub(crate) fn section_kind_name(kind: u32) -> &'static str {
    KINDS.iter().find(|&&(k, _, _)| k == kind).map_or("unknown", |&(_, name, _)| name)
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
    /// The index to write: exactly one ([`freeze_to_bytes`] panics on any
    /// other count). A list for the callers that still build one.
    pub segments: Vec<FreezeSegment<'a>>,
}

/// A validated, opened artifact. The heavy structures borrow the mapped
/// (or heap-loaded) file image through their arenas, the dictionary too;
/// the rule table is widened into one owned flat part, and only META's
/// small structures (tombstones, config, stats) are decoded.
pub struct FrozenParts {
    /// Interner whose base resolves from the frozen string table; newly
    /// interned tokens (document vocabulary) overlay it on the heap.
    pub interner: Interner,
    /// The origin dictionary (frozen arenas, one part).
    pub dict: Dictionary,
    /// Tombstoned origin ids.
    pub removed: Vec<EntityId>,
    /// The synonym rule table (read from the `rules.*` sections).
    pub rules: RuleSet,
    /// Engine configuration.
    pub config: AeetesConfig,
    /// Generation number from the header.
    pub generation: u64,
    /// The shared global order (frozen arenas).
    pub order: Arc<GlobalOrder>,
    /// The variant table (frozen arenas).
    pub dd: VariantTable,
    /// The clustered index (frozen arenas).
    pub index: ClusteredIndex,
    /// Whether the backing storage is an mmap (false: heap fallback).
    pub mmapped: bool,
}

// ---------------------------------------------------------------- writer --

/// The rule table's `rules.sides` and `rules.side_off` bytes and their
/// width: its parts' sides run together, each part's offsets moved past the
/// sides before it, at 2 bytes when the interner holds at most 2¹⁶ tokens
/// and the sides fewer than 2¹⁶, at 4 otherwise.
fn rule_sections(rules: &RuleSet, n_tokens: usize) -> (u32, Vec<u8>, Vec<u8>) {
    let (mut sides, mut side_off) = (Vec::new(), vec![0u32]);
    for (tokens, offsets) in rules.part_sides() {
        let base = sides.len() as u32;
        sides.extend(tokens.iter().map(|t| t.0));
        side_off.extend(offsets[1..].iter().map(|o| base + o));
    }
    if n_tokens <= 1 << 16 && sides.len() < 1 << 16 {
        let narrow = |ids: &[u32]| pod_bytes(&ids.iter().map(|&id| id as u16).collect::<Vec<_>>()).to_vec();
        (2, narrow(&sides), narrow(&side_off))
    } else {
        (4, pod_bytes(&sides).to_vec(), pod_bytes(&side_off).to_vec())
    }
}

/// META: the small decoded-on-open blob, for the one index `segment`.
fn encode_meta(src: &FreezeSource<'_>, segment: &FreezeSegment<'_>) -> Vec<u8> {
    let mut meta = Vec::new();
    persist::put_u32(&mut meta, src.dict.len() as u32);
    persist::put_u32(&mut meta, src.rules.len() as u32);
    persist::put_u32(&mut meta, src.removed.len() as u32);
    for e in src.removed {
        persist::put_u32(&mut meta, e.0);
    }
    persist::put_config(&mut meta, src.config);
    persist::put_stats(&mut meta, segment.dd.stats());
    meta
}

/// Serializes `src` into a standalone artifact (see the module docs for the
/// layout). The inverse of [`open_frozen_bytes`].
///
/// Every section is some arena's bytes as they stand in memory — the
/// dictionary's, the runs of its parts back to back — so the section table
/// is laid out first, the buffer allocated once at its exact final size, and
/// each arena copied straight to its aligned offset.
///
/// # Panics
/// Panics unless `src.segments` holds exactly one index, and on a big-endian
/// host: the format stores little-endian arrays and is written by
/// reinterpreting the in-memory ones ([`open_frozen`] refuses such hosts for
/// the same reason).
pub fn freeze_to_bytes(src: &FreezeSource<'_>) -> Vec<u8> {
    if cfg!(target_endian = "big") {
        panic!("frozen artifacts are written on little-endian hosts only");
    }
    let [segment] = &src.segments[..] else {
        panic!("an artifact holds one index, not {}", src.segments.len());
    };
    assert!(segment.index.is_whole(), "an artifact holds a whole index, not a listed one");
    let meta = encode_meta(src, segment);
    let (rule_width, sides, side_off) = rule_sections(src.rules, src.interner.len());
    let rule_weight = src.rules.weights();
    // Origin dictionary: its four arenas verbatim, written run by run from
    // its parts, so the opener can validate them with linear scans and adopt
    // them in place instead of a per-entity parse.
    let runs: Vec<_> = src.dict.arena_runs().collect();
    let raws: Vec<&[u8]> = runs.iter().map(|r| r.0).collect();
    let raw_off: Vec<&[u8]> = runs.iter().map(|r| pod_bytes(r.1)).collect();
    let ent_tokens: Vec<&[u8]> = runs.iter().map(|r| pod_bytes(r.2)).collect();
    let ent_tok_off: Vec<&[u8]> = runs.iter().map(|r| pod_bytes(r.3)).collect();
    // Interner: its strings the same way (open builds the slots).
    let (str_bytes, str_offsets): (Vec<&[u8]>, Vec<&[u8]>) = src.interner.arena_runs().map(|(b, o)| (b, pod_bytes(o))).unzip();
    let flat = src.order.flattened();
    let (key, untie) = flat.as_ref().unwrap_or(src.order).raw_parts();
    let (by_origin, weight) = segment.dd.raw_arenas();
    let ix = segment.index.raw_parts();
    // In `KINDS` order, each section the run of byte slices it is written
    // from; the id widths are the rule table's and the index's.
    let sections: [(u32, &[&[u8]]); KINDS.len()] = [
        (SEC_META, &[&meta]),
        (SEC_RULES_SIDES, &[&sides]),
        (SEC_RULES_SIDEOFF, &[&side_off]),
        (SEC_RULES_WEIGHT, &[pod_bytes(&rule_weight)]),
        (SEC_DICT_RAWS, &raws),
        (SEC_DICT_RAWOFF, &raw_off),
        (SEC_DICT_TOKENS, &ent_tokens),
        (SEC_DICT_TOKOFF, &ent_tok_off),
        (SEC_STR_BYTES, &str_bytes),
        (SEC_STR_OFF, &str_offsets),
        (SEC_ORD_KEY, &[pod_bytes(key)]),
        (SEC_ORD_UNTIE, &[pod_bytes(untie)]),
        (SEC_DD_BYORIGIN, &[pod_bytes(by_origin)]),
        (SEC_DD_WEIGHT, &[pod_bytes(weight)]),
        (SEC_IX_TOKGROUPS, &[pod_bytes(ix.tok_groups)]),
        (SEC_IX_GROUPLEN, &[pod_bytes(ix.group_len)]),
        (SEC_IX_GROUPPOS, &[pod_bytes(ix.group_pos)]),
        (SEC_IX_GROUPORIG, &[pod_bytes(ix.group_origins)]),
        (SEC_IX_ORIGENT, &[ix.origin_entity.as_bytes()]),
        (SEC_IX_BLOCKS, &[pod_bytes(ix.blocks)]),
        (SEC_IX_BLOCKOFF, &[pod_bytes(ix.block_offsets)]),
    ];
    let id_width = ix.origin_entity.width().bytes() as u32;
    let width = |kind: u32| match kind {
        SEC_RULES_SIDES | SEC_RULES_SIDEOFF => rule_width,
        SEC_IX_ORIGENT | SEC_IX_BLOCKS => id_width,
        _ => KINDS.iter().find(|&&(k, _, _)| k == kind).expect("a known kind").2[0],
    };

    // Lay out: header, table, aligned sections, CRC footer.
    let table_end = HEADER_FIXED + sections.len() * ENTRY_BYTES;
    let mut end = table_end;
    let offsets: Vec<(usize, usize)> = sections
        .iter()
        .map(|(_, runs)| {
            let off = end.next_multiple_of(SECTION_ALIGN);
            end = off + runs.iter().map(|r| r.len()).sum::<usize>();
            (off, end)
        })
        .collect();
    let mut buf = vec![0u8; end + 4];
    buf[..4].copy_from_slice(persist::MAGIC);
    buf[4..8].copy_from_slice(&persist::VERSION_FROZEN.to_le_bytes());
    buf[8..16].copy_from_slice(&src.generation.to_le_bytes());
    buf[16..20].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    // [20..24) reserved, zero.
    for (i, (&(kind, runs), &(off, section_end))) in sections.iter().zip(&offsets).enumerate() {
        let at = HEADER_FIXED + i * ENTRY_BYTES;
        buf[at..at + 4].copy_from_slice(&kind.to_le_bytes());
        buf[at + 4..at + 8].copy_from_slice(&width(kind).to_le_bytes());
        buf[at + 8..at + 16].copy_from_slice(&(off as u64).to_le_bytes());
        buf[at + 16..at + 24].copy_from_slice(&((section_end - off) as u64).to_le_bytes());
        let mut cursor = off;
        for run in runs {
            buf[cursor..cursor + run.len()].copy_from_slice(run);
            cursor += run.len();
        }
    }
    let footer = crc32(&buf[..end]);
    buf[end..].copy_from_slice(&footer.to_le_bytes());
    buf
}

// ---------------------------------------------------------------- opener --

/// One entry of the section table.
#[derive(Debug, Clone, Copy)]
struct Section {
    kind: u32,
    /// Bytes per element.
    width: u32,
    off: usize,
    len: usize,
}

/// The section table in file order: an opened artifact holds each kind once.
struct SectionTable {
    entries: Vec<Section>,
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// Checks the magic and the version word. The opener runs this *before* the
/// CRC so that a file of another format version — a retired v1–v9 artifact,
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

/// Parses and bounds-checks the header and section table of `bytes`.
/// Rejects out-of-bounds, misaligned, unknown, duplicated and missing
/// sections, a width its kind does not take, and an `ix.origin_entity` and
/// `ix.blocks` — or a `rules.sides` and `rules.side_off` — of different
/// widths.
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
    let mut entries: Vec<Section> = Vec::with_capacity(s_count.min(KINDS.len()));
    for i in 0..s_count {
        let kind = r.u32("section kind")?;
        let width = r.u32("section width")?;
        let off = r.u64("section offset")? as usize;
        let len = r.u64("section length")? as usize;
        if !off.is_multiple_of(SECTION_ALIGN) {
            return Err(corrupt(format!("section {i} offset {off} is not {SECTION_ALIGN}-byte aligned")));
        }
        let end = off.checked_add(len).ok_or_else(|| corrupt(format!("section {i} range overflows")))?;
        if off < table_end || end > payload_end {
            return Err(corrupt(format!("section {i} [{off}, {end}) outside payload [{table_end}, {payload_end})")));
        }
        let Some(&(_, name, widths)) = KINDS.iter().find(|&&(k, _, _)| k == kind) else {
            return Err(corrupt(format!("section {i} is of unknown kind {kind}")));
        };
        if !widths.contains(&width) {
            let takes = widths.iter().map(u32::to_string).collect::<Vec<_>>().join(" or ");
            return Err(corrupt(format!("section {name} is stored {width} bytes wide, not {takes}")));
        }
        if entries.iter().any(|s| s.kind == kind) {
            return Err(corrupt(format!("duplicate section {name}")));
        }
        entries.push(Section { kind, width, off, len });
    }
    let table = SectionTable { entries };
    if let Some(&(_, name, _)) = KINDS.iter().find(|&&(kind, _, _)| table.find(kind).is_none()) {
        return Err(corrupt(format!("missing section {name}")));
    }
    let (origins, blocks) = (table.get(SEC_IX_ORIGENT).width, table.get(SEC_IX_BLOCKS).width);
    if origins != blocks {
        return Err(corrupt(format!("ix.origin_entity is stored {origins} bytes wide but ix.blocks {blocks}: an index has one id width")));
    }
    let (sides, side_off) = (table.get(SEC_RULES_SIDES).width, table.get(SEC_RULES_SIDEOFF).width);
    if sides != side_off {
        return Err(corrupt(format!("rules.sides is stored {sides} bytes wide but rules.side_off {side_off}: a rule table has one width")));
    }
    Ok(table)
}

/// Section lookups: [`parse_table`] returns a table only once every kind is
/// in it.
impl SectionTable {
    fn find(&self, kind: u32) -> Option<&Section> {
        self.entries.iter().find(|s| s.kind == kind)
    }

    fn get(&self, kind: u32) -> &Section {
        self.find(kind).expect("parse_table checked every kind is present")
    }

    fn slice<T: Pod>(&self, buf: &Arc<FrozenBuf>, kind: u32) -> Result<FrozenSlice<T>, PersistError> {
        let s = self.get(kind);
        FrozenSlice::new(Arc::clone(buf), s.off, s.len).map_err(|e| corrupt(format!("section {}: {e}", section_kind_name(kind))))
    }

    fn bytes<'a>(&self, bytes: &'a [u8], kind: u32) -> &'a [u8] {
        let s = self.get(kind);
        &bytes[s.off..s.off + s.len]
    }

    /// The index's id width, as `ix.origin_entity` names it.
    fn id_width(&self) -> IdWidth {
        match self.get(SEC_IX_ORIGENT).width {
            2 => IdWidth::U16,
            _ => IdWidth::U32,
        }
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
    adopt(&buf, &parse_table(bytes)?)
}

/// Validates every section of `buf` that `table` lays out and assembles the
/// parts over them: everything opening does but the CRC.
fn adopt(buf: &Arc<FrozenBuf>, table: &SectionTable) -> Result<FrozenParts, PersistError> {
    if cfg!(target_endian = "big") {
        return Err(corrupt("frozen artifacts require a little-endian host"));
    }
    let bytes = buf.as_bytes();
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte generation"));

    // Interner: validate the strings and build their slots; the strings stay
    // in the artifact.
    let interner = Interner::from_raw_arenas(table.slice::<u8>(buf, SEC_STR_BYTES)?.into(), table.slice::<u32>(buf, SEC_STR_OFF)?.into())
        .map_err(|e| corrupt(format!("string table: {e}")))?;
    let n_tokens = interner.len() as u32;

    // Global order.
    let order = GlobalOrder::from_raw_parts(table.slice::<u32>(buf, SEC_ORD_KEY)?.into(), table.slice::<TokenId>(buf, SEC_ORD_UNTIE)?.into())
        .map_err(|e| corrupt(format!("global order: {e}")))?;
    if order.tokens() > n_tokens as usize {
        return Err(corrupt(format!("global order covers {} tokens, interner holds {n_tokens}", order.tokens())));
    }
    let order = Arc::new(order);

    // META: the small decoded structures.
    let mut r = Reader { buf: table.bytes(bytes, SEC_META) };
    let meta_entities = r.u32("meta entity count")? as usize;
    let meta_rules = r.u32("meta rule count")? as usize;
    let dict = Dictionary::from_raw_arenas(
        table.slice::<u8>(buf, SEC_DICT_RAWS)?.into(),
        table.slice::<u32>(buf, SEC_DICT_RAWOFF)?.into(),
        table.slice::<TokenId>(buf, SEC_DICT_TOKENS)?.into(),
        table.slice::<u32>(buf, SEC_DICT_TOKOFF)?.into(),
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
    let config = persist::read_config(&mut r)?;
    let stats = persist::read_stats(&mut r)?;
    if !r.buf.is_empty() {
        return Err(corrupt(format!("{} trailing bytes in meta section", r.buf.len())));
    }

    // The rule table: its flat sections, validated and widened into one
    // owned part.
    let weight = table.slice::<f64>(buf, SEC_RULES_WEIGHT)?;
    let rules = match table.get(SEC_RULES_SIDES).width {
        2 if n_tokens > 1 << 16 => {
            return Err(corrupt(format!("rules.sides is stored 2 bytes wide but the interner holds {n_tokens} tokens, past 2^16")));
        }
        2 => RuleSet::from_flat(&table.slice::<u16>(buf, SEC_RULES_SIDES)?[..], &table.slice::<u16>(buf, SEC_RULES_SIDEOFF)?[..], &weight, n_tokens),
        _ => RuleSet::from_flat(&table.slice::<u32>(buf, SEC_RULES_SIDES)?[..], &table.slice::<u32>(buf, SEC_RULES_SIDEOFF)?[..], &weight, n_tokens),
    }
    .map_err(corrupt)?;
    if rules.len() != meta_rules {
        return Err(corrupt(format!("meta claims {meta_rules} rules, rules.side_off cuts {}", rules.len())));
    }

    // The index: reassemble the variant table and the clustered index from
    // their arenas, with full structural validation, and cross-check them.
    // One prefix says which variant ids an origin owns; the table and the
    // index each hold a view of it, so an id remap that takes a range start
    // from one and an id through the other cannot be handed two answers.
    let by_origin = table.slice::<u32>(buf, SEC_DD_BYORIGIN)?;
    let dd = VariantTable::from_raw_arenas(by_origin.clone().into(), table.slice::<f64>(buf, SEC_DD_WEIGHT)?.into(), stats)
        .map_err(|e| corrupt(format!("variant table: {e}")))?;
    // An index predating a dictionary-growing delta legitimately spans a
    // shorter origin space (origins beyond it have no variants there);
    // spanning more origins than the dictionary is always corruption.
    if dd.origins() > dict.len() {
        return Err(corrupt(format!("the index spans {} origins, the dictionary holds only {}", dd.origins(), dict.len())));
    }
    let origin_entity = match table.id_width() {
        IdWidth::U16 => IdArena::U16(table.slice::<u16>(buf, SEC_IX_ORIGENT)?.into()),
        IdWidth::U32 => IdArena::U32(table.slice::<u32>(buf, SEC_IX_ORIGENT)?.into()),
    };
    let index = ClusteredIndex::from_raw_parts(
        Arc::clone(&order),
        IndexArenas {
            tok_groups: table.slice::<u32>(buf, SEC_IX_TOKGROUPS)?.into(),
            group_len: table.slice::<u16>(buf, SEC_IX_GROUPLEN)?.into(),
            group_pos: table.slice::<u16>(buf, SEC_IX_GROUPPOS)?.into(),
            group_origins: table.slice::<u32>(buf, SEC_IX_GROUPORIG)?.into(),
            origin_entity,
            blocks: table.slice::<u32>(buf, SEC_IX_BLOCKS)?.into(),
            block_offsets: table.slice::<u32>(buf, SEC_IX_BLOCKOFF)?.into(),
            origin_offsets: by_origin.into(),
        },
    )
    .map_err(|e| corrupt(format!("index: {e}")))?;

    let mmapped = buf.is_mmap();
    Ok(FrozenParts { interner, dict, removed, rules, config, generation, order, dd, index, mmapped })
}

// ------------------------------------------------------------- peek info --

/// Summary of an artifact: its header facts and section table. See
/// [`peek_info`].
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Format version (always 14: other versions are refused).
    pub version: u32,
    /// Generation number.
    pub generation: u64,
    /// Origin entity count.
    pub entities: usize,
    /// Synonym rule count.
    pub rules: usize,
    /// Interned token count.
    pub tokens: usize,
    /// Total artifact size in bytes.
    pub file_len: usize,
    /// The sections, in file order.
    pub sections: Vec<SectionInfo>,
}

/// One section's identity, element width and size.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section kind name, as `aeetes dict info` prints it (e.g. `ix.blocks`).
    pub kind: &'static str,
    /// Bytes per element (for `ix.blocks`, per pool key).
    pub width: usize,
    /// Section payload bytes.
    pub len: usize,
}

/// Reads an artifact's headline facts — version, generation, entity/rule/
/// token counts, section widths and sizes. Every section is validated as
/// [`open_frozen_bytes`] validates it, so a file this describes is one the
/// opener adopts; only the CRC is not checked, so that a damaged file can
/// still be described.
pub fn peek_info(bytes: &[u8]) -> Result<ArtifactInfo, PersistError> {
    check_header(bytes)?;
    if bytes.len() < HEADER_FIXED + 4 {
        return Err(PersistError::Truncated("frozen header"));
    }
    let buf = Arc::new(FrozenBuf::heap_from_bytes(bytes));
    let table = parse_table(bytes)?;
    let parts = adopt(&buf, &table)?;
    let sections = table
        .entries
        .iter()
        .map(|s| SectionInfo { kind: section_kind_name(s.kind), width: s.width as usize, len: s.len })
        .collect();
    Ok(ArtifactInfo {
        version: persist::VERSION_FROZEN,
        generation: parts.generation,
        entities: parts.dict.len(),
        rules: parts.rules.len(),
        tokens: parts.interner.len(),
        file_len: bytes.len(),
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::extract_segment;
    use crate::limits::ExtractLimits;
    use aeetes_rules::DerivedId;
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
        assert!(parts.dd.is_frozen());
        assert!(parts.index.is_frozen());
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

    /// An artifact holds one index: the writer lays out no other count.
    #[test]
    fn the_writer_takes_exactly_one_index() {
        let (engine, int, _, rules) = sample();
        for n in [0, 2] {
            let written = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                freeze_to_bytes(&FreezeSource {
                    interner: &int,
                    dict: engine.dictionary(),
                    removed: &[],
                    rules: &rules,
                    config: engine.config(),
                    generation: 7,
                    order: engine.index().order(),
                    segments: (0..n).map(|_| FreezeSegment { dd: engine.derived(), index: engine.index() }).collect(),
                })
            }));
            assert!(written.is_err(), "{n} indexes must not be written");
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
            segments: vec![FreezeSegment { dd: &parts.dd, index: &parts.index }],
        });
        assert_eq!(bytes, again, "refreeze must be byte-identical");
    }

    #[test]
    fn peek_info_reports_header_facts() {
        let (engine, int, _, rules) = sample();
        let bytes = freeze_sample(&engine, &int, &rules, 9);
        let info = peek_info(&bytes).expect("peek");
        assert_eq!(info.version, 14);
        assert_eq!(info.generation, 9);
        assert_eq!(info.entities, 3);
        assert_eq!(info.rules, 3);
        assert_eq!(info.tokens, int.len());
        assert_eq!(info.file_len, bytes.len());
        // Every kind once, in file order, each at its width: the rule
        // table's and the index's ids at 16 bits.
        let listed: Vec<(&str, usize)> = info.sections.iter().map(|s| (s.kind, s.width)).collect();
        let widths = |name: &str| match name {
            "rules.sides" | "rules.side_off" | "ix.origin_entity" | "ix.blocks" => 2,
            _ => KINDS.iter().find(|k| k.1 == name).unwrap().2[0] as usize,
        };
        assert_eq!(listed, KINDS.map(|(_, name, _)| (name, widths(name))));
        assert_eq!(
            engine.index().size_bytes(),
            info.sections
                .iter()
                .filter(|s| s.kind.starts_with("ix.") || s.kind == "dd.by_origin")
                .map(|s| s.len)
                .sum::<usize>()
        );
    }

    #[test]
    fn other_format_versions_are_named_not_called_corrupt() {
        // A valid magic with any version but 14 — the retired v1–v13 layouts
        // or a future one — is refused by version, whatever follows it (no
        // footer, a foreign footer, or nothing at all).
        let (engine, int, _, rules) = sample();
        let v14 = freeze_sample(&engine, &int, &rules, 1);
        for version in [0u32, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 99] {
            let mut whole = v14.clone();
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

    /// CRC-valid images no writer produces: each is refused by name, on open
    /// and on peek, and none reaches a lookup that would trust it.
    #[test]
    fn hostile_images_are_refused() {
        let (engine, int, _, rules) = sample();
        let good = freeze_sample(&engine, &int, &rules, 1);
        let (by_origin, weight) = engine.derived().raw_arenas();
        assert_eq!((by_origin, weight.len()), (&[0, 2, 6, 7][..], 7));
        // The origin prefix is written once, from the table, and the index
        // reads that copy: a table that gives origin 0 a third variant cannot
        // disagree with the index over it, only with the index's own blocks,
        // where origin 0 has two masks: a third, read out of their padding,
        // is the empty set after the longer two.
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
        let (w_off, w_len) = (table.get(SEC_DD_WEIGHT).off, table.get(SEC_DD_WEIGHT).len);
        let (p_off, p_len) = (table.get(SEC_IX_GROUPPOS).off, table.get(SEC_IX_GROUPPOS).len);
        let l_off = table.get(SEC_IX_GROUPLEN).off;
        // Where the section table holds a kind's entry: kind, width, offset
        // and length.
        let entry = |kind: u32| {
            (0..)
                .map(|i| HEADER_FIXED + i * ENTRY_BYTES)
                .find(|&at| good[at..at + 4] == kind.to_le_bytes())
                .unwrap()
        };
        let len_field = |kind: u32| entry(kind) + 16;
        let patched_all = |edits: &[(usize, &[u8])]| {
            let mut bytes = good.clone();
            for &(at, with) in edits {
                bytes[at..at + with.len()].copy_from_slice(with);
            }
            recrc(&mut bytes);
            bytes
        };
        let patched = |at: usize, with: &[u8]| patched_all(&[(at, with)]);
        // Blocks, at 16 bits: origin 0 is [5 | 3 key words | one mask word:
        // a 3-key mask in bits 0–4 and a 4-key one in bits 5–9], origin 1 [6
        // | 3 key words | 4 masks of 6 bits in one word], origin 2 [4 | 2 key
        // words | 1 mask].
        let ix = engine.index().raw_parts();
        assert_eq!(ix.origin_entity.width(), aeetes_index::IdWidth::U16);
        assert_eq!(
            (ix.block_offsets, ix.blocks[0], (ix.blocks[4] & 0x1F).count_ones(), (ix.blocks[4] >> 5).count_ones()),
            (&[0, 5, 10, 14][..], 5, 3, 4)
        );
        let b_off = table.get(SEC_IX_BLOCKS).off;
        let b_off_prefix = table.get(SEC_IX_BLOCKOFF).off;
        let o_off = table.get(SEC_DD_BYORIGIN).off;
        let s_off = table.get(SEC_STR_BYTES).off;
        assert_eq!([3, 4].map(|t| int.resolve(TokenId(t))), ["uq", "au"]);
        let au: usize = (0..4).map(|t| int.resolve(TokenId(t)).len()).sum();
        let block_word = |i: usize, with: u32| patched(b_off + 4 * i, &with.to_le_bytes());
        let ranks = engine.index().order().ranks() as u32;
        let groups = ix.group_len.len();
        assert_eq!(p_len, 2 * groups);
        // The groups of one token: `g` and `g + 1`, of two lengths, share an
        // origin, and `g`'s length leaves room for a position past its own.
        let clusters_of = |g: usize| {
            (ix.group_origins[g]..ix.group_origins[g + 1])
                .map(|c| ix.origin_entity.get(c as usize))
                .collect::<Vec<_>>()
        };
        let (t, g) = (0..ix.tok_groups.len() - 1)
            .flat_map(|t| (ix.tok_groups[t] as usize..(ix.tok_groups[t + 1] as usize).saturating_sub(1)).map(move |g| (t, g)))
            .find(|&(_, g)| ix.group_pos[g] + 1 < ix.group_len[g] && clusters_of(g + 1).iter().any(|o| clusters_of(g).contains(o)))
            .expect("a token whose groups of two lengths share an origin");
        let (len, pos) = (ix.group_len[g], ix.group_pos[g]);
        let shared = clusters_of(g + 1).into_iter().find(|o| clusters_of(g).contains(o)).unwrap();
        let rekeyed =
            |g: usize, (len, pos): (u16, u16)| patched_all(&[(l_off + 2 * g, &len.to_le_bytes()[..]), (p_off + 2 * g, &pos.to_le_bytes()[..])]);
        let width_field = |kind: u32, width: u32| patched(entry(kind) + 4, &width.to_le_bytes());
        let kind_field = |kind: u32, to: u32| patched(entry(kind), &to.to_le_bytes());
        let both_widths = |width: u32| {
            let mut bytes = width_field(SEC_IX_ORIGENT, width);
            bytes[entry(SEC_IX_BLOCKS) + 4..][..4].copy_from_slice(&width.to_le_bytes());
            recrc(&mut bytes);
            bytes
        };
        for (bytes, expect) in [
            (another_prefix, "index: origin 0's variants are not sorted by set length"),
            (patched(w_off + 8, &0f64.to_le_bytes()), "variant table: variant 1 weight 0 outside (0, 1]"),
            (patched(w_off + 16, &1.5f64.to_le_bytes()), "variant table: variant 2 weight 1.5 outside (0, 1]"),
            (
                patched(len_field(SEC_DD_WEIGHT), &(w_len as u64 - 8).to_le_bytes()),
                "variant weight array holds 6 entries, expected none or 7",
            ),
            (block_word(0, 99), "index: origin 0's pool of 99 keys exceeds its block of 5 words"),
            (block_word(0, 4), "index: origin 0's block holds 5 words, not 1 + 2 key words + 1 mask words (2 masks of 4 bits)"),
            // A block one word longer or shorter than its pool and masks.
            (
                patched(b_off_prefix + 4, &6u32.to_le_bytes()),
                "index: origin 0's block holds 6 words, not 1 + 3 key words + 1 mask words (2 masks of 5 bits)",
            ),
            (
                patched(b_off_prefix + 4, &4u32.to_le_bytes()),
                "index: origin 0's block holds 4 words, not 1 + 3 key words + 1 mask words (2 masks of 5 bits)",
            ),
            (block_word(1, ix.blocks[1].rotate_left(16)), "index: origin 0's pool keys are not strictly ascending"),
            // The width rows: a section stored at a width its kind does not
            // take; the two id sections at different widths; a 16-bit pool's
            // spare half-word set, or a packed rank past the order's.
            (width_field(SEC_IX_GROUPLEN, 4), "section ix.group_len is stored 4 bytes wide, not 2"),
            (both_widths(8), "section ix.origin_entity is stored 8 bytes wide, not 2 or 4"),
            (width_field(SEC_IX_BLOCKS, 4), "ix.origin_entity is stored 2 bytes wide but ix.blocks 4: an index has one id width"),
            (width_field(SEC_IX_ORIGENT, 4), "ix.origin_entity is stored 4 bytes wide but ix.blocks 2: an index has one id width"),
            (block_word(3, ix.blocks[3] | 1 << 16), "index: origin 0's pool of 5 ranks leaves a non-zero spare half-word"),
            (block_word(3, ranks), &format!("index: origin 0's pool holds rank {ranks} but the order hands out only {ranks}")),
            (block_word(4, ix.blocks[4] | 1 << 10), "index: origin 0's masks set a padding bit past their 2 × 5 bits"),
            (block_word(4, (ix.blocks[4] & 0x1F) << 5 | ix.blocks[4] >> 5), "index: origin 0's variants are not sorted by set length"),
            // The interner's strings hold one token twice: "au" spelled "uq".
            (patched(s_off + au, b"uq"), "string table: duplicate string 4 = 3"),
            // An artifact holds each known kind once.
            (kind_field(SEC_IX_BLOCKS, 99), "section 19 is of unknown kind 99"),
            // v13's `order.freq` is no kind of v14's.
            (kind_field(SEC_IX_BLOCKS, 1), "section 19 is of unknown kind 1"),
            (kind_field(SEC_IX_BLOCKS, SEC_IX_ORIGENT), "duplicate section ix.origin_entity"),
            // One lowest position per group, inside the sets of its length;
            // a token's groups strictly ascending by (length, position); an
            // origin in one group of a token and length.
            (
                patched(len_field(SEC_IX_GROUPPOS), &(p_len as u64 + 2).to_le_bytes()),
                &format!("index: group positions hold {} entries, expected one per group: {groups}", groups + 1),
            ),
            (
                patched(len_field(SEC_IX_GROUPPOS), &(p_len as u64 - 2).to_le_bytes()),
                &format!("index: group positions hold {} entries, expected one per group: {groups}", groups - 1),
            ),
            (
                patched(p_off, &ix.group_len[0].to_le_bytes()),
                &format!("index: group 0 lowest position {0} outside its sets of {0}", ix.group_len[0]),
            ),
            (rekeyed(g + 1, (len, pos)), &format!("index: token {t}'s groups are not strictly ascending by (length, position)")),
            (rekeyed(g + 1, (len, pos + 1)), &format!("index: origin {shared:?} stands in two groups of token {t}'s length {len}")),
            // Origin 1 left without variants (they pass to origin 2) keeps its block.
            (patched(o_off + 8, &2u32.to_le_bytes()), "index: origin 1 has no variants but a block of 5 words"),
        ] {
            for err in [open_frozen_bytes(&bytes).err(), peek_info(&bytes).err()] {
                let err = err.expect(expect).to_string();
                assert!(err.contains(expect), "expected `{expect}` in `{err}`");
            }
        }
        // 19 tokens and "t00" rewritten to "x y": masks of 19 and 20 of 21
        // pool keys, the second straddling the two mask words of [21 | 11 key
        // words | 2 mask words]. Its bits in the second word cleared, its
        // popcount falls below the first's.
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let mut dict = Dictionary::new();
        dict.push(&(0..19).map(|i| format!("t{i:02}")).collect::<Vec<_>>().join(" "), &tok, &mut int);
        let mut rules = RuleSet::new();
        rules.push_str("t00", "x y", &tok, &mut int).unwrap();
        let straddle = crate::Aeetes::build(dict, &rules, &int, AeetesConfig::default());
        let blocks = straddle.index().raw_parts().blocks;
        assert_eq!((blocks.len(), [0, 1].map(|slot| straddle.index().block(EntityId(0)).set_len(slot))), (14, [19, 20]));
        let mut bytes = freeze_sample(&straddle, &int, &rules, 1);
        let at = parse_table(&bytes).unwrap().get(SEC_IX_BLOCKS).off + 4 * 13;
        bytes[at..at + 4].copy_from_slice(&(blocks[13] & !0x3FF).to_le_bytes());
        recrc(&mut bytes);
        for err in [open_frozen_bytes(&bytes).err(), peek_info(&bytes).err()] {
            let err = err.expect("a straddling slot's popcount falls").to_string();
            assert!(err.contains("index: origin 0's variants are not sorted by set length"), "{err}");
        }
        // An empty weight section is the other legal length: unit weights.
        let unweighted = open_frozen_bytes(&patched(len_field(SEC_DD_WEIGHT), &0u64.to_le_bytes())).expect("len 0 is legal");
        assert_eq!(unweighted.dd.weight_of(DerivedId(3)), 1.0);
    }
}
