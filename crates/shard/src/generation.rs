//! Immutable generations: one fully-built sharded engine state.

use aeetes_core::{
    extract_segment_scratched, select_top_k, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch, ExtractStats, Match, ScratchOutcome,
    SegmentScratch,
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

/// One shard: the clustered index over the derived variants of its resident
/// origins, built against the generation's shared global order, and the
/// table of which variant ids each origin owns. Built on the heap, adopted
/// from an artifact or spliced by a delta, it holds these same arrays and
/// nothing else of the derivation — a variant's tokens, rules and weight
/// are what re-deriving its origin yields. Serving counters are cumulative
/// and carried forward when a generation update reuses the shard unchanged.
pub struct Shard {
    pub(crate) dd: VariantTable,
    pub(crate) index: ClusteredIndex,
    /// Resident origins (those with at least one variant here).
    resident: usize,
    served: AtomicU64,
    candidates: AtomicU64,
    /// Wall time this shard's index build took (set once at build).
    build_nanos: u64,
    /// Cumulative wall time spent extracting in this shard.
    extract_nanos: AtomicU64,
}

impl Shard {
    fn new(dd: VariantTable, index: ClusteredIndex, build_nanos: u64) -> Self {
        let resident = dd.raw_arenas().0.windows(2).filter(|w| w[0] < w[1]).count();
        Shard {
            dd,
            index,
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
        Self::new(dd, index, start.elapsed().as_nanos() as u64)
    }

    /// Wraps an already-built variant table + index pair (the frozen open
    /// path, where the index comes off the artifact instead of a build).
    /// Counters start at zero; `build_nanos` is 0 by definition — nothing
    /// was built.
    pub(crate) fn from_prebuilt(dd: VariantTable, index: ClusteredIndex) -> Self {
        Self::new(dd, index, 0)
    }

    /// The shard a delta leaves behind: `small` — the `changed` origins of
    /// this shard that are still live, derived under the post-delta rules —
    /// is keyed by `order` and merged into this shard's arenas (heap
    /// or mapped alike) in place of those origins' old runs. `departing` is
    /// what the changed origins contributed to this shard's derivation
    /// statistics. The result equals [`Shard::build`] over a fresh
    /// derivation of the shard's post-delta origins, byte for byte, and
    /// carries this shard's cumulative serving counters on; the build time
    /// is its own.
    pub(crate) fn splice(&self, small: IndexDraft, changed: &[bool], departing: &DeriveStats, order: Arc<GlobalOrder>) -> Self {
        let start = std::time::Instant::now();
        let (small, small_index) = small.into_index(order);
        let dd = VariantTable::splice(&self.dd, &small, changed, departing);
        let index = ClusteredIndex::splice(&self.index, &small_index, changed);
        let next = Self::new(dd, index, start.elapsed().as_nanos() as u64);
        next.served.store(self.served.load(Ordering::Relaxed), Ordering::Relaxed);
        next.candidates.store(self.candidates.load(Ordering::Relaxed), Ordering::Relaxed);
        next.extract_nanos.store(self.extract_nanos.load(Ordering::Relaxed), Ordering::Relaxed);
        next
    }

    /// Number of derived variants resident in this shard.
    pub fn variants(&self) -> usize {
        self.dd.len()
    }
}

/// Point-in-time serving statistics of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Origins with at least one variant in the shard.
    pub entities: usize,
    /// Derived variants indexed by the shard.
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
/// and the full origin dictionary; extraction fans out to every shard and
/// merges. Cheap to share: [`crate::ShardedEngine`] hands out
/// `Arc<Generation>` snapshots.
pub struct Generation {
    pub(crate) id: u64,
    pub(crate) interner: Interner,
    pub(crate) dict: Dictionary,
    /// Sorted tombstoned origin ids (slots kept, variants dropped).
    pub(crate) removed: Vec<EntityId>,
    pub(crate) rules: RuleSet,
    pub(crate) config: AeetesConfig,
    pub(crate) order: Arc<GlobalOrder>,
    pub(crate) shards: Vec<Arc<Shard>>,
    /// Per-origin base of the *global* derived-id space: the id a variant
    /// would have in a monolithic engine over the same dictionary. Used to
    /// remap per-shard `best_variant` ids during the merge, keeping results
    /// bit-identical to the single-engine build.
    global_base: Vec<u32>,
    /// Dictionary-global `(min, max)` distinct-set length range, passed to
    /// every shard extraction: a shard's local range is tighter and would
    /// skip window lengths the whole dictionary admits, breaking
    /// bit-identity with the monolithic engine.
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
        interner: Interner,
        dict: Dictionary,
        removed: Vec<EntityId>,
        rules: RuleSet,
        config: AeetesConfig,
        order: Arc<GlobalOrder>,
        shards: Vec<Arc<Shard>>,
    ) -> Self {
        let n = shards.len();
        // Hoist each shard's origin prefix array once — the loop below runs
        // per dictionary entity on the frozen open path.
        let prefixes: Vec<&[u32]> = shards.iter().map(|s| s.dd.raw_arenas().0).collect();
        let mut global_base = vec![0u32; dict.len()];
        let mut cum = 0u32;
        for (i, base) in global_base.iter_mut().enumerate() {
            *base = cum;
            let by_origin = prefixes[shard_of(EntityId(i as u32), n)];
            // A shard predating a dictionary-growing delta covers a shorter
            // origin space; origins beyond it have no variants there.
            if i + 1 < by_origin.len() {
                cum += by_origin[i + 1] - by_origin[i];
            }
        }
        let mut set_len_bounds: Option<(usize, usize)> = None;
        for shard in &shards {
            if let (Some(lo), Some(hi)) = (shard.index.min_set_len(), shard.index.max_set_len()) {
                set_len_bounds = Some(match set_len_bounds {
                    Some((a, b)) => (a.min(lo), b.max(hi)),
                    None => (lo, hi),
                });
            }
        }
        let live_shards = shards.iter().filter(|s| !s.dd.is_empty()).count();
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
    /// future engine can mmap and serve without rebuilding. The
    /// shared global order is written once; shards predating an append-only
    /// order extension stay valid against it (extension never changes an
    /// existing key).
    pub fn freeze(&self) -> Vec<u8> {
        aeetes_core::freeze_to_bytes(&aeetes_core::FreezeSource {
            interner: &self.interner,
            dict: &self.dict,
            removed: &self.removed,
            rules: &self.rules,
            config: &self.config,
            generation: self.id,
            order: &self.order,
            segments: self.shards.iter().map(|s| aeetes_core::FreezeSegment { dd: &s.dd, index: &s.index }).collect(),
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

    /// Total derived variants across all shards.
    pub fn variants(&self) -> usize {
        self.shards.iter().map(|s| s.dd.len()).sum()
    }

    /// Total postings across the shards' indexes.
    pub fn index_entries(&self) -> usize {
        self.shards.iter().map(|s| s.index.total_entries()).sum()
    }

    /// Summed size of the shards' indexes in bytes (for adopted shards: of
    /// the artifact sections they borrow).
    pub fn index_size_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.index.size_bytes()).sum()
    }

    /// Derivation statistics over the whole dictionary: origins are
    /// disjoint across shards, so every total is the sum of the shards'.
    pub fn derive_stats(&self) -> DeriveStats {
        let mut total = DeriveStats::default();
        for st in self.shards.iter().map(|s| s.dd.stats()) {
            total.origins += st.origins;
            total.derived += st.derived;
            total.applicable_total += st.applicable_total;
            total.selected_total += st.selected_total;
            total.truncated_entities += st.truncated_entities;
            total.duplicates_dropped += st.duplicates_dropped;
        }
        total
    }

    /// Per-shard serving statistics, indexed by shard id.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                entities: s.resident,
                variants: s.dd.len(),
                served: s.served.load(Ordering::Relaxed),
                candidates: s.candidates.load(Ordering::Relaxed),
                build_nanos: s.build_nanos,
                extract_nanos: s.extract_nanos.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn run_shard_into(&self, shard: &Shard, doc: &Document, req: &ExtractRequest<'_>, seg: &mut SegmentScratch) -> (bool, ExtractStats) {
        let start = std::time::Instant::now();
        let (truncated, stats) = extract_segment_scratched(&shard.index, &shard.dd, doc, req, &self.config, self.set_len_bounds, seg);
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
        if self.shards.len() == 1 {
            // A single shard carries the full derivation: local variant ids
            // coincide with global ones, so no merge pass is needed.
            let seg = scratch.segment(0);
            let (truncated, stats) = self.run_shard_into(&self.shards[0], doc, req, seg);
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
        // Merge per-shard results: remap variant ids into the global derived
        // space, then restore the request's order over the union. Origins
        // are disjoint across shards, so no deduplication is needed and sort
        // keys never tie across shards. Each shard's outcome is read back
        // from its segment scratch — no result channel on either routing
        // path.
        merged.clear();
        let mut truncated = false;
        let mut stats = ExtractStats::default();
        let mut stages = aeetes_core::StageSlots::default();
        for (shard, seg) in self.shards.iter().zip(segs.iter()) {
            truncated |= seg.truncated();
            stats += seg.stats();
            stages.merge(seg.stages());
            for &m in seg.matches() {
                let local = shard.dd.variant_range(m.entity).start;
                let mut m = m;
                m.best_variant = DerivedId(self.global_base[m.entity.idx()] + (m.best_variant.0 - local));
                merged.push(m);
            }
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
