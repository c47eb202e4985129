//! Immutable generations: one fully-built engine state.

use aeetes_core::{extract_segment_scratched, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch, ScratchOutcome, Segment};
use aeetes_index::{ClusteredIndex, GlobalOrder, IndexDraft};
use aeetes_rules::{DeriveStats, DerivedId, RuleSet, VariantTable};
use aeetes_text::{Dictionary, Document, EntityId, Interner};
use std::sync::Arc;

/// A variant table and the clustered index over it: what a generation's base
/// and its tail each are.
pub(crate) struct Tier {
    pub(crate) dd: VariantTable,
    pub(crate) index: ClusteredIndex,
}

/// What the deltas since the base was made changed in it.
pub(crate) struct Tail {
    /// The changed origins that are still live, re-derived, over the origin
    /// space of the latest delta.
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

impl Tail {
    /// The tail as an extraction pass reads it.
    fn view(&self) -> aeetes_core::Tail<'_> {
        aeetes_core::Tail { index: &self.tier.index, dd: &self.tier.dd, superseded: &self.superseded }
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
/// every origin the tail owns changed. Equals a build from nothing over the
/// live origins, array for array.
fn compacted(base: &Tier, tail: &Tail) -> Tier {
    let changed: Vec<bool> = (0..tail.tier.dd.origins())
        .map(|e| e >= base.dd.origins() || tail.view().supersedes(EntityId(e as u32)))
        .collect();
    Tier {
        dd: VariantTable::splice(&base.dd, &tail.tier.dd, &changed, &tail.departed),
        index: ClusteredIndex::splice(&base.index, &tail.tier.index, &changed),
    }
}

/// The tiers a delta leaves behind. `small` — the `changed` origins that are
/// still live, derived under the post-delta rules — is keyed by `order` and
/// spliced into `tail` in place of those origins' old runs there, and the
/// changed base origins are marked superseded; the base is shared, not
/// copied. `departing` is what the changed origins contributed to the
/// statistics before, `[in the base, in the tail]`.
///
/// Once the tail's variants and the superseded base variants reach the live
/// base variants, the next tail splice would copy as much as a base splice
/// does; the tail is then compacted into a fresh base (see [`compacted`]).
/// Either way the tiers extract what a build over a fresh derivation of the
/// post-delta origins would, and freeze to its bytes.
pub(crate) fn splice(
    base: &Arc<Tier>,
    tail: Option<&Tail>,
    small: IndexDraft,
    changed: &[bool],
    departing: &[DeriveStats; 2],
    order: Arc<GlobalOrder>,
) -> (Arc<Tier>, Option<Arc<Tail>>) {
    let (small, small_index) = small.into_index(order);
    let mut tail = match tail {
        None => Tail {
            tier: Tier { dd: small, index: small_index },
            superseded: vec![0; base.dd.origins().div_ceil(64)],
            superseded_variants: 0,
            departed: DeriveStats::default(),
            live_lens: Vec::new(),
        },
        Some(tail) => Tail {
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
    if tail.tier.dd.len() + tail.superseded_variants >= base.dd.len() - tail.superseded_variants {
        (Arc::new(compacted(base, &tail)), None)
    } else {
        (Arc::clone(base), Some(Arc::new(tail)))
    }
}

/// One immutable engine state: the dictionary's clustered index, built
/// against one global token order — a read-only *base*, built on the heap or
/// adopted from an artifact and shared by `Arc` across generations, plus,
/// after deltas, a *tail* of the origins they changed — with the interner
/// snapshot, the rule table and the full origin dictionary. Each live origin
/// is in exactly one of the two tiers, and the tiers hold their arrays and
/// nothing else of the derivation: a variant's tokens, rules and weight are
/// what re-deriving its origin yields. Every request is one window walk over
/// both tiers. Cheap to share: [`crate::ShardedEngine`] hands out
/// `Arc<Generation>` snapshots, and consecutive generations share the
/// interner, the rules, the base and — when a delta changes no origin — the
/// tail.
pub struct Generation {
    pub(crate) id: u64,
    /// Copied by a delta only when it interns a new string.
    pub(crate) interner: Arc<Interner>,
    pub(crate) dict: Dictionary,
    /// Sorted tombstoned origin ids (slots kept, variants dropped).
    pub(crate) removed: Vec<EntityId>,
    /// Shares its parts with the generation before; the rules a delta adds
    /// go to a part of their own.
    pub(crate) rules: RuleSet,
    pub(crate) config: AeetesConfig,
    pub(crate) order: Arc<GlobalOrder>,
    pub(crate) base: Arc<Tier>,
    pub(crate) tail: Option<Arc<Tail>>,
    /// Per-origin base of the derived-id space a build from nothing would
    /// hand out: the tail's variant ids are local to it, and a match reports
    /// the build's, so results are bit-identical to the monolithic engine's.
    global_base: Vec<u32>,
    /// `(min, max)` distinct-set length range of the live variants: the
    /// base's own range still counts superseded variants and misses the
    /// tail's.
    set_len_bounds: Option<(usize, usize)>,
}

impl Generation {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        id: u64,
        interner: Arc<Interner>,
        dict: Dictionary,
        removed: Vec<EntityId>,
        rules: RuleSet,
        config: AeetesConfig,
        order: Arc<GlobalOrder>,
        base: Arc<Tier>,
        tail: Option<Arc<Tail>>,
    ) -> Self {
        let mut generation = Generation {
            id,
            interner,
            dict,
            removed,
            rules,
            config,
            order,
            base,
            tail,
            global_base: Vec::new(),
            set_len_bounds: None,
        };
        let segment = generation.segment();
        let mut cum = 0u32;
        let global_base = (0..generation.dict.len())
            .map(|e| {
                let at = cum;
                // None past the origin space of the tier that owns it.
                let by_origin = segment.owner(EntityId(e as u32)).1.raw_arenas().0;
                cum += by_origin.get(e + 1).map_or(0, |&end| end - by_origin[e]);
                at
            })
            .collect();
        generation.global_base = global_base;
        generation.set_len_bounds = generation.live_set_len_range();
        generation
    }

    /// Always `(0, 0)`: requests are no longer routed between shard-by-shard
    /// and pooled runs. Kept so that callers which read it still compile.
    pub fn routing_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Monotonic generation number (1 for a fresh build).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Serializes this generation as a frozen (format v13) artifact of one
    /// segment: the variant table and clustered index laid out as flat
    /// arenas a future engine can mmap and serve without rebuilding. A tail
    /// is written compacted, through a temporary base, so the bytes are
    /// those of a rebuild.
    pub fn freeze(&self) -> Vec<u8> {
        let compacted = self.tail.as_ref().map(|tail| compacted(&self.base, tail));
        let tier = compacted.as_ref().unwrap_or(&self.base);
        aeetes_core::freeze_to_bytes(&aeetes_core::FreezeSource {
            interner: &self.interner,
            dict: &self.dict,
            removed: &self.removed,
            rules: &self.rules,
            config: &self.config,
            generation: self.id,
            order: &self.order,
            segments: vec![aeetes_core::FreezeSegment { dd: &tier.dd, index: &tier.index }],
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

    /// The global token order.
    pub fn order(&self) -> &GlobalOrder {
        &self.order
    }

    /// What one extraction pass probes.
    pub(crate) fn segment(&self) -> Segment<'_> {
        Segment {
            index: &self.base.index,
            dd: &self.base.dd,
            tail: self.tail.as_deref().map(Tail::view),
        }
    }

    /// `(min, max)` distinct-set length range of the live variants — the
    /// range every extraction is bounded by, so streaming callers derive the
    /// same tail retention a monolithic engine would.
    pub fn set_len_range(&self) -> Option<(usize, usize)> {
        self.set_len_bounds
    }

    fn live_set_len_range(&self) -> Option<(usize, usize)> {
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

    /// Live derived variants.
    pub fn variants(&self) -> usize {
        match &self.tail {
            None => self.base.dd.len(),
            Some(tail) => self.base.dd.len() - tail.superseded_variants + tail.tier.dd.len(),
        }
    }

    /// The tiers' indexes: a tail's superseded base clusters still count,
    /// since scans still read them.
    fn tiers(&self) -> impl Iterator<Item = &ClusteredIndex> {
        std::iter::once(&self.base.index).chain(self.tail.as_ref().map(|tail| &tail.tier.index))
    }

    /// Index entries stored, a tail's included.
    pub fn index_entries(&self) -> usize {
        self.tiers().map(ClusteredIndex::total_entries).sum()
    }

    /// Size of the indexes in bytes, a tail's included (for an adopted base:
    /// of the artifact sections it borrows).
    pub fn index_size_bytes(&self) -> usize {
        self.tiers().map(ClusteredIndex::size_bytes).sum()
    }

    /// Derivation statistics over the live origins.
    pub fn derive_stats(&self) -> DeriveStats {
        match &self.tail {
            None => self.base.dd.stats().clone(),
            Some(tail) => self.base.dd.stats().replaced(&tail.departed, tail.tier.dd.stats()),
        }
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
        let segment = self.segment();
        let (truncated, stats) = extract_segment_scratched(segment, doc, req, &self.config, self.set_len_bounds, scratch);
        // Variant ids are local to the tier that owns the origin: report the
        // build's (an identity without a tail).
        for m in scratch.matches_mut() {
            let local = segment.owner(m.entity).1.variant_range(m.entity).start;
            m.best_variant = DerivedId(self.global_base[m.entity.idx()] + (m.best_variant.0 - local));
        }
        ScratchOutcome { matches: scratch.matches(), truncated, stats, stages: *scratch.stages() }
    }
}
