//! Immutable generations: one fully-built sharded engine state.

use aeetes_core::{
    extract_segment_scratched, select_top_k, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch, ExtractStats, Match, ScratchOutcome,
    Segment, SegmentScratch, Tail,
};
use aeetes_index::{ClusteredIndex, GlobalOrder, IndexDraft};
use aeetes_pool::Pool;
use aeetes_rules::{DeriveStats, DerivedId, RuleSet, VariantTable};
use aeetes_text::{Dictionary, Document, EntityId, Interner};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default fan-out cost threshold: a multi-shard request whose estimated
/// cost — document tokens × live shards — reaches this value is worth the
/// cross-thread handoff of a pool fan-out; anything cheaper runs
/// shard-sequentially on the calling thread. Calibrated so short serve
/// requests (tens of tokens) stay on one thread even at high shard counts,
/// while analytics-sized documents parallelize.
const DEFAULT_FANOUT_THRESHOLD: u64 = 4096;

/// Cumulative sequential-vs-fanout routing decisions. Shared (via `Arc`)
/// across the generations of one engine lineage so the counters survive
/// dictionary-delta swaps.
#[derive(Debug, Default)]
pub(crate) struct RoutingCounters {
    pub(crate) sequential: AtomicU64,
    pub(crate) fanout: AtomicU64,
}

/// Deterministic origin-entity → shard routing: a bit-mixed hash of the id
/// modulo the shard count. Mixing (rather than `id % n`) keeps shards
/// balanced when entity ids carry structure (e.g. sorted-by-source blocks).
pub fn shard_of(e: EntityId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    (splitmix64(u64::from(e.0)) % shards as u64) as usize
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A variant table and the clustered index over it: what a shard's base and
/// its tail each are.
pub(crate) struct Tier {
    pub(crate) dd: VariantTable,
    pub(crate) index: ClusteredIndex,
}

/// What the deltas since a shard's base was made changed in it.
pub(crate) struct ShardTail {
    /// The changed origins that are still live, re-derived, over the origin
    /// space of the latest delta that reached the shard.
    pub(crate) tier: Tier,
    /// Bit per base origin: its variants live in the tail, or nowhere.
    superseded: Vec<u64>,
    /// Base variants of superseded origins.
    superseded_variants: usize,
    /// What the superseded origins contributed to the base's statistics.
    departed: DeriveStats,
    /// Live base variants per set length; empty until a superseded origin
    /// has variants, so building and opening never count them.
    live_lens: Vec<u32>,
}

impl ShardTail {
    /// The tail as an extraction pass reads it.
    fn view(&self) -> Tail<'_> {
        Tail { index: &self.tier.index, dd: &self.tier.dd, superseded: &self.superseded }
    }
}

/// Variants of `base` per set length.
fn variants_per_length(base: &Tier) -> Vec<u32> {
    let mut lens = vec![0u32; base.index.max_set_len().map_or(0, |max| max + 1)];
    for e in (0..base.dd.origins() as u32).map(EntityId) {
        let block = base.index.block(e);
        for slot in 0..block.ids.len() {
            lens[block.set_len(slot)] += 1;
        }
    }
    lens
}

/// `base` with `tail`'s origins merged in: the same two splices a delta's
/// changed origins go through, with `old` = the base, `small` = the tail and
/// every origin the tail owns changed. Equals a shard built from nothing over
/// the live origins, array for array.
fn compacted(base: &Tier, tail: &ShardTail) -> Tier {
    let changed: Vec<bool> = (0..tail.tier.dd.origins())
        .map(|e| e >= base.dd.origins() || tail.view().supersedes(EntityId(e as u32)))
        .collect();
    Tier {
        dd: VariantTable::splice(&base.dd, &tail.tier.dd, &changed, &tail.departed),
        index: ClusteredIndex::splice(&base.index, &tail.tier.index, &changed),
    }
}

/// One shard: the clustered index over the derived variants of its resident
/// origins, built against the generation's shared global order, and the
/// table of which variant ids each origin owns — a read-only *base*, built on
/// the heap or adopted from an artifact and shared by `Arc` across
/// generations, plus, after deltas, a *tail* of the origins they changed.
/// Each live origin is in exactly one of the two; the shard holds these
/// arrays and nothing else of the derivation — a variant's tokens, rules and
/// weight are what re-deriving its origin yields. Serving counters are
/// cumulative and carried forward when a generation update reuses or
/// changes the shard.
pub struct Shard {
    pub(crate) base: Arc<Tier>,
    pub(crate) tail: Option<ShardTail>,
    /// Resident origins (those with at least one live variant here).
    resident: usize,
    served: AtomicU64,
    candidates: AtomicU64,
    /// Wall time this shard's index build (or splice) took.
    build_nanos: u64,
    /// Cumulative wall time spent extracting in this shard.
    extract_nanos: AtomicU64,
}

impl Shard {
    fn new(base: Arc<Tier>, tail: Option<ShardTail>, build_nanos: u64) -> Self {
        let live = |by_origin: &[u32], e: usize| by_origin.get(e + 1).is_some_and(|&end| by_origin[e] < end);
        let base_prefix = base.dd.raw_arenas().0;
        let resident = match &tail {
            None => (0..base.dd.origins()).filter(|&e| live(base_prefix, e)).count(),
            Some(tail) => {
                let tail_prefix = tail.tier.dd.raw_arenas().0;
                let in_base = (0..base.dd.origins())
                    .filter(|&e| !tail.view().supersedes(EntityId(e as u32)) && live(base_prefix, e))
                    .count();
                in_base + (0..tail.tier.dd.origins()).filter(|&e| live(tail_prefix, e)).count()
            }
        };
        Shard {
            base,
            tail,
            resident,
            served: AtomicU64::new(0),
            candidates: AtomicU64::new(0),
            build_nanos,
            extract_nanos: AtomicU64::new(0),
        }
    }

    /// Keys `draft` by `order` and clusters it.
    pub(crate) fn build(draft: IndexDraft, order: Arc<GlobalOrder>) -> Self {
        let start = std::time::Instant::now();
        let (dd, index) = draft.into_index(order);
        Self::new(Arc::new(Tier { dd, index }), None, start.elapsed().as_nanos() as u64)
    }

    /// Wraps an already-built variant table + index pair (the frozen open
    /// path, where the index comes off the artifact instead of a build).
    /// Counters start at zero; `build_nanos` is 0 by definition — nothing
    /// was built.
    pub(crate) fn from_prebuilt(dd: VariantTable, index: ClusteredIndex) -> Self {
        Self::new(Arc::new(Tier { dd, index }), None, 0)
    }

    /// The shard a delta leaves behind. `small` — the `changed` origins of
    /// this shard that are still live, derived under the post-delta rules —
    /// is keyed by `order` and spliced into the tail in place of those
    /// origins' old runs there, and the changed base origins are marked
    /// superseded; the base is shared, not copied. `departing` is what the
    /// changed origins contributed to this shard's statistics before, `[in
    /// the base, in the tail]`.
    ///
    /// Once the tail's variants and the superseded base variants reach the
    /// live base variants, the next tail splice would copy as much as a base
    /// splice does; the tail is then compacted into a fresh base (see
    /// [`compacted`]). Either way the shard extracts what [`Shard::build`]
    /// over a fresh derivation of its post-delta origins would, and freezes
    /// to its bytes. The serving counters carry on; the build time is this
    /// splice's.
    pub(crate) fn splice(&self, small: IndexDraft, changed: &[bool], departing: &[DeriveStats; 2], order: Arc<GlobalOrder>) -> Self {
        let start = std::time::Instant::now();
        let (small, small_index) = small.into_index(order);
        let base = &self.base;
        let mut tail = match &self.tail {
            None => ShardTail {
                tier: Tier { dd: small, index: small_index },
                superseded: vec![0; base.dd.origins().div_ceil(64)],
                superseded_variants: 0,
                departed: DeriveStats::default(),
                live_lens: Vec::new(),
            },
            Some(tail) => ShardTail {
                tier: Tier {
                    dd: VariantTable::splice(&tail.tier.dd, &small, changed, &departing[1]),
                    index: ClusteredIndex::splice(&tail.tier.index, &small_index, changed),
                },
                superseded: tail.superseded.clone(),
                superseded_variants: tail.superseded_variants,
                departed: tail.departed.clone(),
                live_lens: tail.live_lens.clone(),
            },
        };
        tail.departed += &departing[0];
        for e in (0..base.dd.origins()).filter(|&e| changed[e]) {
            if tail.view().supersedes(EntityId(e as u32)) {
                continue;
            }
            tail.superseded[e / 64] |= 1 << (e % 64);
            let block = base.index.block(EntityId(e as u32));
            if block.ids.is_empty() {
                continue;
            }
            if tail.live_lens.is_empty() {
                tail.live_lens = variants_per_length(base);
            }
            for slot in 0..block.ids.len() {
                tail.live_lens[block.set_len(slot)] -= 1;
            }
            tail.superseded_variants += block.ids.len();
        }
        let next = if tail.tier.dd.len() + tail.superseded_variants >= base.dd.len() - tail.superseded_variants {
            Self::new(Arc::new(compacted(base, &tail)), None, start.elapsed().as_nanos() as u64)
        } else {
            Self::new(Arc::clone(base), Some(tail), start.elapsed().as_nanos() as u64)
        };
        next.served.store(self.served.load(Ordering::Relaxed), Ordering::Relaxed);
        next.candidates.store(self.candidates.load(Ordering::Relaxed), Ordering::Relaxed);
        next.extract_nanos.store(self.extract_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        next
    }

    /// What one extraction pass over this shard probes.
    pub(crate) fn segment(&self) -> Segment<'_> {
        Segment {
            index: &self.base.index,
            dd: &self.base.dd,
            tail: self.tail.as_ref().map(ShardTail::view),
        }
    }

    /// How many live variants origin `e` has here (none past the origin
    /// space of the tier that owns it).
    fn variant_count(&self, e: EntityId) -> u32 {
        let by_origin = self.segment().owner(e).1.raw_arenas().0;
        by_origin.get(e.idx() + 1).map_or(0, |&end| end - by_origin[e.idx()])
    }

    /// The `(min, max)` set length of the live variants.
    fn set_len_range(&self) -> Option<(usize, usize)> {
        let own = |index: &ClusteredIndex| index.min_set_len().zip(index.max_set_len());
        let Some(tail) = &self.tail else { return own(&self.base.index) };
        let base = if tail.live_lens.is_empty() {
            own(&self.base.index)
        } else {
            let live = |len: &usize| tail.live_lens[*len] > 0;
            (0..tail.live_lens.len()).find(live).zip((0..tail.live_lens.len()).rev().find(live))
        };
        match (base, own(&tail.tier.index)) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (one, other) => one.or(other),
        }
    }

    /// Derivation statistics of the live origins.
    fn derive_stats(&self) -> DeriveStats {
        match &self.tail {
            None => self.base.dd.stats().clone(),
            Some(tail) => self.base.dd.stats().replaced(&tail.departed, tail.tier.dd.stats()),
        }
    }

    /// Number of live derived variants in this shard.
    pub fn variants(&self) -> usize {
        match &self.tail {
            None => self.base.dd.len(),
            Some(tail) => self.base.dd.len() - tail.superseded_variants + tail.tier.dd.len(),
        }
    }

    /// The tiers' stored index entries and bytes: a tail's superseded base
    /// clusters still count, since scans still read them.
    fn tiers(&self) -> impl Iterator<Item = &ClusteredIndex> {
        std::iter::once(&self.base.index).chain(self.tail.as_ref().map(|tail| &tail.tier.index))
    }
}

/// Point-in-time serving statistics of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Origins with at least one variant in the shard.
    pub entities: usize,
    /// Live derived variants indexed by the shard.
    pub variants: usize,
    /// Extractions this shard has answered (cumulative across generations
    /// while the shard survives rebuilds).
    pub served: u64,
    /// Candidate pairs this shard has generated.
    pub candidates: u64,
    /// Wall time the shard's index build took, in nanoseconds (per build —
    /// not carried across rebuilds).
    pub build_nanos: u64,
    /// Cumulative wall time spent extracting in this shard, in nanoseconds
    /// (carried across rebuilds like `served`).
    pub extract_nanos: u64,
}

/// One immutable sharded engine state. All shards share a single global
/// token order (or an append-only extension of it), one interner snapshot,
/// the rule table and the full origin dictionary; extraction fans out to
/// every shard and merges. Cheap to share: [`crate::ShardedEngine`] hands
/// out `Arc<Generation>` snapshots, and consecutive generations share the
/// interner, the rules and every shard base a delta does not compact.
pub struct Generation {
    pub(crate) id: u64,
    /// Copied by a delta only when it interns a new string.
    pub(crate) interner: Arc<Interner>,
    pub(crate) dict: Dictionary,
    /// Sorted tombstoned origin ids (slots kept, variants dropped).
    pub(crate) removed: Vec<EntityId>,
    /// Copied by a delta only when it adds a rule.
    pub(crate) rules: Arc<RuleSet>,
    pub(crate) config: AeetesConfig,
    pub(crate) order: Arc<GlobalOrder>,
    pub(crate) shards: Vec<Arc<Shard>>,
    /// Per-origin base of the *global* derived-id space: the id a variant
    /// would have in a monolithic engine over the same dictionary. Used to
    /// remap per-shard `best_variant` ids during the merge, keeping results
    /// bit-identical to the single-engine build.
    global_base: Vec<u32>,
    /// Dictionary-global `(min, max)` distinct-set length range of the live
    /// variants, passed to every shard extraction: a shard's local range is
    /// tighter and would skip window lengths the whole dictionary admits,
    /// breaking bit-identity with the monolithic engine.
    set_len_bounds: Option<(usize, usize)>,
    /// Shards with at least one resident variant — the parallelism factor
    /// of the fan-out cost model (empty shards contribute no work).
    live_shards: usize,
    /// Sequential-vs-fanout routing tallies, inherited across generations.
    pub(crate) routing: Arc<RoutingCounters>,
}

impl Generation {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        id: u64,
        interner: Arc<Interner>,
        dict: Dictionary,
        removed: Vec<EntityId>,
        rules: Arc<RuleSet>,
        config: AeetesConfig,
        order: Arc<GlobalOrder>,
        shards: Vec<Arc<Shard>>,
    ) -> Self {
        let n = shards.len();
        let mut global_base = vec![0u32; dict.len()];
        let mut cum = 0u32;
        for (i, base) in global_base.iter_mut().enumerate() {
            *base = cum;
            let e = EntityId(i as u32);
            cum += shards[shard_of(e, n)].variant_count(e);
        }
        let set_len_bounds = shards.iter().filter_map(|s| s.set_len_range()).reduce(|(a, b), (lo, hi)| (a.min(lo), b.max(hi)));
        let live_shards = shards.iter().filter(|s| s.variants() > 0).count();
        Generation {
            id,
            interner,
            dict,
            removed,
            rules,
            config,
            order,
            shards,
            global_base,
            set_len_bounds,
            live_shards,
            routing: Arc::new(RoutingCounters::default()),
        }
    }

    /// Shares `prev`'s routing counters so sequential/fan-out tallies are
    /// cumulative across generation swaps, like the per-shard counters.
    pub(crate) fn adopt_routing(&mut self, prev: &Generation) {
        self.routing = Arc::clone(&prev.routing);
    }

    /// Cumulative `(sequential, fanout)` routing decisions of this engine
    /// lineage: how many multi-shard extractions ran shard-sequentially on
    /// the calling thread vs fanned out across the worker pool.
    pub fn routing_stats(&self) -> (u64, u64) {
        (self.routing.sequential.load(Ordering::Relaxed), self.routing.fanout.load(Ordering::Relaxed))
    }

    /// Monotonic generation number (1 for a fresh build).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Serializes this generation as a frozen (format v9) artifact: every
    /// shard's variant table and clustered index laid out as flat arenas a
    /// future engine can mmap and serve without rebuilding. A shard with a
    /// tail is written compacted, through a temporary base, so the bytes are
    /// those of a rebuild. The shared global order is written once; shards
    /// predating an append-only order extension stay valid against it
    /// (extension never changes an existing key).
    pub fn freeze(&self) -> Vec<u8> {
        let compacted: Vec<Option<Tier>> = self.shards.iter().map(|s| s.tail.as_ref().map(|tail| compacted(&s.base, tail))).collect();
        let tiers = self.shards.iter().zip(&compacted).map(|(s, c)| c.as_ref().unwrap_or(&s.base));
        aeetes_core::freeze_to_bytes(&aeetes_core::FreezeSource {
            interner: &self.interner,
            dict: &self.dict,
            removed: &self.removed,
            rules: &self.rules,
            config: &self.config,
            generation: self.id,
            order: &self.order,
            segments: tiers.map(|t| aeetes_core::FreezeSegment { dd: &t.dd, index: &t.index }).collect(),
        })
    }

    /// The interner snapshot documents must be tokenized against.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The rule table this generation was derived with.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Tombstoned origin ids, ascending.
    pub fn removed(&self) -> &[EntityId] {
        &self.removed
    }

    /// The shared global token order.
    pub fn order(&self) -> &GlobalOrder {
        &self.order
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Dictionary-global `(min, max)` distinct-set length range — the same
    /// range every shard extraction is bounded by, so streaming callers
    /// derive the same tail retention a monolithic engine would.
    pub fn set_len_range(&self) -> Option<(usize, usize)> {
        self.set_len_bounds
    }

    /// Total live derived variants across all shards.
    pub fn variants(&self) -> usize {
        self.shards.iter().map(|s| s.variants()).sum()
    }

    /// Total index entries the shards store, a tail's included.
    pub fn index_entries(&self) -> usize {
        self.shards.iter().flat_map(|s| s.tiers()).map(ClusteredIndex::total_entries).sum()
    }

    /// Summed size of the shards' indexes in bytes, a tail's included (for
    /// adopted bases: of the artifact sections they borrow).
    pub fn index_size_bytes(&self) -> usize {
        self.shards.iter().flat_map(|s| s.tiers()).map(ClusteredIndex::size_bytes).sum()
    }

    /// Derivation statistics over the whole dictionary's live origins:
    /// origins are disjoint across shards, so every total is the sum of the
    /// shards'.
    pub fn derive_stats(&self) -> DeriveStats {
        let mut total = DeriveStats::default();
        for shard in &self.shards {
            total += &shard.derive_stats();
        }
        total
    }

    /// Per-shard serving statistics, indexed by shard id.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                entities: s.resident,
                variants: s.variants(),
                served: s.served.load(Ordering::Relaxed),
                candidates: s.candidates.load(Ordering::Relaxed),
                build_nanos: s.build_nanos,
                extract_nanos: s.extract_nanos.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// `m`'s variant id — local to the tier of `shard` that owns its origin —
    /// in the global derived space.
    fn global_variant(&self, shard: &Shard, m: &Match) -> DerivedId {
        let local = shard.segment().owner(m.entity).1.variant_range(m.entity).start;
        DerivedId(self.global_base[m.entity.idx()] + (m.best_variant.0 - local))
    }

    fn run_shard_into(&self, shard: &Shard, doc: &Document, req: &ExtractRequest<'_>, seg: &mut SegmentScratch) -> (bool, ExtractStats) {
        let start = std::time::Instant::now();
        let (truncated, stats) = extract_segment_scratched(shard.segment(), doc, req, &self.config, self.set_len_bounds, seg);
        shard.extract_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shard.served.fetch_add(1, Ordering::Relaxed);
        shard.candidates.fetch_add(stats.candidates, Ordering::Relaxed);
        (truncated, stats)
    }
}

impl ExtractBackend for Generation {
    fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    fn config(&self) -> &AeetesConfig {
        &self.config
    }

    fn set_len_range(&self) -> Option<(usize, usize)> {
        self.set_len_bounds
    }

    fn extract_request<'s>(&self, doc: &Document, req: &ExtractRequest<'_>, scratch: &'s mut ExtractScratch) -> ScratchOutcome<'s> {
        if let [shard] = &self.shards[..] {
            // A single shard carries the full derivation: no merge pass is
            // needed, only the id remap (an identity without a tail).
            let seg = scratch.segment(0);
            let (truncated, stats) = self.run_shard_into(shard, doc, req, seg);
            for m in seg.matches_mut() {
                m.best_variant = self.global_variant(shard, m);
            }
            return ScratchOutcome { matches: seg.matches(), truncated, stats, stages: *seg.stages() };
        }
        let n = self.shards.len();
        let (segs, merged) = scratch.split(n);
        // Route by estimated cost: tokens × live shards. Cheap requests run
        // shard-sequentially on the calling thread — no cross-thread
        // handoff, no wakeups — and only past the threshold does the
        // request fan out across the persistent pool. Results are
        // bit-identical either way (the shard property suite is the
        // oracle); only the parallelism differs.
        let cost = doc.tokens().len() as u64 * self.live_shards as u64;
        let threshold = req.limits.fanout_threshold.unwrap_or(DEFAULT_FANOUT_THRESHOLD);
        let pool = Pool::global();
        if pool.workers() <= 1 || cost < threshold {
            self.routing.sequential.fetch_add(1, Ordering::Relaxed);
            for (shard, seg) in self.shards.iter().zip(segs.iter_mut()) {
                self.run_shard_into(shard, doc, req, seg);
            }
        } else {
            self.routing.fanout.fetch_add(1, Ordering::Relaxed);
            let panicked = pool.fan_out(segs, |i, seg| {
                self.run_shard_into(&self.shards[i], doc, req, seg);
            });
            assert!(!panicked, "shard extraction panicked");
        }
        // Merge per-shard results: remap variant ids — local to the tier
        // that owns the origin — into the global derived space, then restore
        // the request's order over the union. Origins are disjoint across
        // shards, so no deduplication is needed and sort keys never tie
        // across shards. Each shard's outcome is read back from its segment
        // scratch — no result channel on either routing path.
        merged.clear();
        let mut truncated = false;
        let mut stats = ExtractStats::default();
        let mut stages = aeetes_core::StageSlots::default();
        for (shard, seg) in self.shards.iter().zip(segs.iter()) {
            truncated |= seg.truncated();
            stats += seg.stats();
            stages.merge(seg.stages());
            merged.extend(seg.matches().iter().map(|&m| Match { best_variant: self.global_variant(shard, &m), ..m }));
        }
        match req.top_k {
            // Each shard kept its own k best, which hold every pair of the
            // dictionary-wide k best.
            Some(k) => select_top_k(merged, k),
            None => {
                merged.sort_unstable_by_key(Match::sort_key);
                // Each shard only capped its own stream: re-apply the match
                // cap across the union.
                if let Some(cap) = req.limits.max_matches.filter(|&cap| merged.len() > cap) {
                    merged.truncate(cap);
                    truncated = true;
                    stats.matches = cap as u64;
                }
            }
        }
        ScratchOutcome { matches: merged, truncated, stats, stages }
    }
}
