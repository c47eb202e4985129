//! Immutable generations: one fully-built engine state.

use aeetes_core::{extract_segment_scratched, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch, ScratchOutcome, Segment};
use aeetes_index::{ClusteredIndex, GlobalOrder, IndexDraft};
use aeetes_rules::{DeriveStats, DerivedId, MergePlan, RuleSet, VariantTable};
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
    /// The changed origins that are still live, re-derived: a listed index
    /// over them and the tokens their variants hold, and the variant table
    /// over its origins — sized by what the tail holds, not the dictionary.
    pub(crate) tier: Tier,
    /// Bit per base origin: its variants live in the tail, or nowhere. Runs
    /// up to the word of the highest superseded origin; empty while none is.
    superseded: Vec<u64>,
    /// The superseded base origins that hold variants, ascending, each with
    /// the base variants of those up to and including it.
    superseded_prefix: Vec<(EntityId, u32)>,
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

    /// Base variants of superseded origins.
    fn superseded_variants(&self) -> usize {
        self.superseded_prefix.last().map_or(0, |&(_, upto)| upto as usize)
    }

    /// Base variants of the superseded origins below `e`.
    fn superseded_before(&self, e: EntityId) -> u32 {
        let below = self.superseded_prefix.partition_point(|&(s, _)| s < e);
        below.checked_sub(1).map_or(0, |i| self.superseded_prefix[i].1)
    }

    /// The id a build from nothing over the live origins gives variant `v`
    /// of origin `e`, an id of the tier that owns `e` (`in_tail`): the
    /// variants before `e` are the owning tier's own, less the superseded
    /// base variants before it, plus the other tier's before it.
    fn build_id(&self, base: &Tier, e: EntityId, v: DerivedId, in_tail: bool) -> DerivedId {
        let before = |tier: &Tier| tier.dd.variants_before(tier.index.slots().slots_before(e));
        let superseded = self.superseded_before(e);
        if in_tail {
            DerivedId(before(base) - superseded + v.0)
        } else {
            DerivedId(v.0 - superseded + before(&self.tier))
        }
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

/// `base` with `tail`'s origins merged in, over the first `origins` origins:
/// the merges a delta's changed origins go through, with `old` = the base,
/// `small` = the tail and every origin the tail supersedes turned away from
/// the base. Equals a build from nothing over the live origins, array for
/// array.
fn compacted(base: &Tier, tail: &Tail, origins: usize) -> Tier {
    let kept = |e: EntityId| !tail.view().supersedes(e);
    let plan = MergePlan::new(&[base.index.slots(), tail.tier.index.slots()], |side, e| side == 1 || kept(e), Some(origins));
    let dd = VariantTable::merge(&[&base.dd, &tail.tier.dd], &plan, base.dd.stats().replaced(&tail.departed, tail.tier.dd.stats()));
    Tier { dd, index: ClusteredIndex::splice(&base.index, &tail.tier.index, plan, kept) }
}

/// The tiers a delta leaves behind. `small` — the `changed` origins that are
/// still live, derived under the post-delta rules — is keyed by `order` and
/// spliced into `tail` in place of those origins' old runs there, and the
/// changed base origins are marked superseded; the base is shared, not
/// copied. `changed` is sorted; `departing` is what the changed origins
/// contributed to the statistics before, `[in the base, in the tail]`;
/// `origins` is the post-delta origin space. Every step is sized by the
/// tail and the delta: the tail's merge walks the two sides' origin and
/// token lists, and of the base a delta reads the blocks of the origins it
/// newly supersedes.
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
    changed: &[EntityId],
    departing: &[DeriveStats; 2],
    order: Arc<GlobalOrder>,
    origins: usize,
) -> (Arc<Tier>, Option<Arc<Tail>>) {
    let (small, small_index) = small.into_index(order);
    let mut tail = match tail {
        None => Tail {
            tier: Tier { dd: small, index: small_index },
            superseded: Vec::new(),
            superseded_prefix: Vec::new(),
            departed: DeriveStats::default(),
            live_lens: Vec::new(),
        },
        Some(tail) => {
            let unchanged = |e: EntityId| changed.binary_search(&e).is_err();
            let plan = MergePlan::new(&[tail.tier.index.slots(), small_index.slots()], |side, e| side == 1 || unchanged(e), None);
            let stats = tail.tier.dd.stats().replaced(&departing[1], small.stats());
            let dd = VariantTable::merge(&[&tail.tier.dd, &small], &plan, stats);
            Tail {
                tier: Tier {
                    dd,
                    index: ClusteredIndex::splice(&tail.tier.index, &small_index, plan, unchanged),
                },
                superseded: tail.superseded.clone(),
                superseded_prefix: tail.superseded_prefix.clone(),
                departed: tail.departed.clone(),
                live_lens: tail.live_lens.clone(),
            }
        }
    };
    tail.departed += &departing[0];
    let mut newly: Vec<(EntityId, u32)> = Vec::new();
    for &e in changed.iter().take_while(|e| e.idx() < base.dd.origins()) {
        if tail.view().supersedes(e) {
            continue;
        }
        let word = e.idx() / 64;
        if tail.superseded.len() <= word {
            tail.superseded.resize(word + 1, 0);
        }
        tail.superseded[word] |= 1 << (e.idx() % 64);
        let block = base.index.block(e);
        if block.ids.is_empty() {
            continue;
        }
        if tail.live_lens.is_empty() {
            tail.live_lens = variants_per_length(base);
        }
        for slot in 0..block.ids.len() {
            tail.live_lens[block.set_len(slot)] -= 1;
        }
        newly.push((e, block.ids.len() as u32));
    }
    if !newly.is_empty() {
        // Back to counts, the new ones among them, and summed again.
        let mut before = 0;
        for (e, upto) in std::mem::take(&mut tail.superseded_prefix) {
            newly.push((e, upto - before));
            before = upto;
        }
        newly.sort_unstable();
        let mut upto = 0;
        tail.superseded_prefix = newly
            .into_iter()
            .map(|(e, n)| {
                upto += n;
                (e, upto)
            })
            .collect();
    }
    let superseded = tail.superseded_variants();
    if tail.tier.dd.len() + superseded >= base.dd.len() - superseded {
        (Arc::new(compacted(base, &tail, origins)), None)
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
            set_len_bounds: None,
        };
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

    /// Serializes this generation as a frozen (format v14) artifact of one
    /// segment: the variant table and clustered index laid out as flat
    /// arenas a future engine can mmap and serve without rebuilding. A tail
    /// is written compacted, through a temporary base, so the bytes are
    /// those of a rebuild.
    pub fn freeze(&self) -> Vec<u8> {
        let compacted = self.tail.as_ref().map(|tail| compacted(&self.base, tail, self.dict.len()));
        let tier = compacted.as_ref().unwrap_or(&self.base);
        aeetes_core::freeze_to_bytes(&aeetes_core::FreezeSource {
            interner: &self.interner,
            dict: &self.dict,
            removed: &self.removed,
            rules: &self.rules,
            config: &self.config,
            generation: self.id,
            // A compaction keyed its index by the order folded flat already.
            order: compacted.as_ref().map_or(&*self.order, |tier| tier.index.order()),
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
            Some(tail) => self.base.dd.len() - tail.superseded_variants() + tail.tier.dd.len(),
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
        if let Some(tail) = &self.tail {
            for m in scratch.matches_mut() {
                m.best_variant = tail.build_id(&self.base, m.entity, m.best_variant, segment.in_tail(m.entity));
            }
        }
        ScratchOutcome { matches: scratch.matches(), truncated, stats, stages: *scratch.stages() }
    }
}
