//! Off-line derived-dictionary generation (`E = ⋃_{e ∈ E0} D(e)`).

use crate::apply::{find_applications, group_non_conflict, Application};
use crate::rule::{RuleId, RuleLookup, RuleSet, Side};
use aeetes_frozen::Arena;
use aeetes_text::{Dictionary, EntityId, TokenId};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Identifier of a derived entity in a [`DerivedDictionary`].
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DerivedId(pub u32);

// SAFETY: repr(transparent) over u32 — fixed layout, any bit pattern valid.
unsafe impl aeetes_frozen::Pod for DerivedId {}

impl DerivedId {
    /// The id as a usize, for indexing side tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for DerivedId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Borrowed view of one derived entity inside a [`DerivedDictionary`].
#[derive(Debug, Clone, Copy)]
pub struct DerivedRef<'a> {
    /// The origin entity this variant was derived from.
    pub origin: EntityId,
    /// Rewritten token sequence, in surface order.
    pub tokens: &'a [TokenId],
    /// Rules applied to produce this variant (empty for the origin itself).
    pub rules: &'a [RuleId],
    /// Product of applied rule weights (`1.0` for unweighted rules).
    pub weight: f64,
}

/// The variants of one origin entity (borrowed view over the arenas).
#[derive(Clone, Copy)]
pub struct Variants<'a> {
    dd: &'a DerivedDictionary,
    start: u32,
    end: u32,
}

impl<'a> Variants<'a> {
    /// Number of variants.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the origin has no variants.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The `i`-th variant, if in range.
    pub fn get(&self, i: usize) -> Option<DerivedRef<'a>> {
        if i < self.len() {
            Some(self.dd.derived(DerivedId(self.start + i as u32)))
        } else {
            None
        }
    }

    /// Iterates the variants in id order.
    pub fn iter(&self) -> impl Iterator<Item = DerivedRef<'a>> + 'a {
        let dd = self.dd;
        (self.start..self.end).map(move |i| dd.derived(DerivedId(i)))
    }
}

impl<'a> IntoIterator for Variants<'a> {
    type Item = DerivedRef<'a>;
    type IntoIter = Box<dyn Iterator<Item = DerivedRef<'a>> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl fmt::Debug for Variants<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Configuration for derived-dictionary generation.
#[derive(Debug, Clone)]
pub struct DeriveConfig {
    /// Cap on `|D(e)|` per entity. The combination count is `O(2^n)` in the
    /// number of non-conflict rule groups (paper §2.1); enumeration stops
    /// deterministically once the cap is reached and the truncation is
    /// recorded in [`DeriveStats::truncated_entities`].
    pub max_derived: usize,
    /// Use the exact maximum-weight non-conflict selection instead of the
    /// paper's greedy approximation. The span-conflict graph is an interval
    /// graph, so the optimum costs only `O(V log V)` per entity (weighted
    /// interval scheduling); the default stays greedy to mirror the paper.
    pub exact_selection: bool,
}

impl Default for DeriveConfig {
    fn default() -> Self {
        Self { max_derived: 256, exact_selection: false }
    }
}

/// Aggregate statistics of a derivation run (feeds the paper's Table 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeriveStats {
    /// Number of origin entities processed.
    pub origins: usize,
    /// Total derived entities generated (including each origin itself).
    pub derived: usize,
    /// Sum over entities of `|Ac(e)|` (all side occurrences found).
    pub applicable_total: usize,
    /// Sum over entities of `|A(e)|` (rules surviving non-conflict selection).
    pub selected_total: usize,
    /// Entities whose `D(e)` hit [`DeriveConfig::max_derived`].
    pub truncated_entities: usize,
    /// Derived variants dropped because their token sequence duplicated an
    /// earlier variant of the same origin.
    pub duplicates_dropped: usize,
}

impl DeriveStats {
    /// Average `|A(e)|` per entity — the Table 1 `avg |A(e)|` column.
    pub fn avg_selected(&self) -> f64 {
        if self.origins == 0 {
            0.0
        } else {
            self.selected_total as f64 / self.origins as f64
        }
    }

    /// Average `|Ac(e)|` per entity (before conflict resolution).
    pub fn avg_applicable(&self) -> f64 {
        if self.origins == 0 {
            0.0
        } else {
            self.applicable_total as f64 / self.origins as f64
        }
    }

    /// These totals with the `departing` origins' share taken out and the
    /// `arriving` origins' share put in. The subtraction saturates: an
    /// adopted artifact's totals are kept as written
    /// ([`VariantTable::from_raw_arenas`]) and its origins' real shares may
    /// exceed them.
    pub fn replaced(&self, departing: &DeriveStats, arriving: &DeriveStats) -> DeriveStats {
        let swap = |total: usize, out: usize, inn: usize| total.saturating_sub(out) + inn;
        DeriveStats {
            origins: swap(self.origins, departing.origins, arriving.origins),
            derived: swap(self.derived, departing.derived, arriving.derived),
            applicable_total: swap(self.applicable_total, departing.applicable_total, arriving.applicable_total),
            selected_total: swap(self.selected_total, departing.selected_total, arriving.selected_total),
            truncated_entities: swap(self.truncated_entities, departing.truncated_entities, arriving.truncated_entities),
            duplicates_dropped: swap(self.duplicates_dropped, departing.duplicates_dropped, arriving.duplicates_dropped),
        }
    }
}

impl std::ops::AddAssign<&DeriveStats> for DeriveStats {
    /// Adds the totals of a disjoint set of origins.
    fn add_assign(&mut self, other: &DeriveStats) {
        self.origins += other.origins;
        self.derived += other.derived;
        self.applicable_total += other.applicable_total;
        self.selected_total += other.selected_total;
        self.truncated_entities += other.truncated_entities;
        self.duplicates_dropped += other.duplicates_dropped;
    }
}

/// Buffers [`expand_entity`] reuses from one entity to the next.
#[derive(Default)]
struct ExpandScratch {
    /// Mixed-radix counter over the span groups.
    digits: Vec<usize>,
    /// The current entity's variants in enumeration order — their tokens and
    /// rules back to back, and where each ends — until they are handed out
    /// ids by set length.
    tokens: Vec<TokenId>,
    rules: Vec<RuleId>,
    produced: Vec<Produced>,
    /// The token sequences produced so far, hashed: a slot holds one more
    /// than an index into `produced`, or 0 while free; a sequence sits in the
    /// first free slot at or after its hash's (open addressing, the table a
    /// power of two at most half full).
    seen: Vec<u32>,
    /// The order the ids go out in.
    order: Vec<usize>,
    /// Where a long variant's tokens are sorted to be counted.
    sorted: Vec<TokenId>,
}

/// One enumerated variant waiting in [`ExpandScratch`].
struct Produced {
    /// The hash its token sequence is filed under in `seen`.
    hash: u64,
    /// Its distinct-token count.
    set_len: usize,
    /// Where its tokens and rules end in the scratch's flat buffers.
    tokens_end: usize,
    rules_end: usize,
    weight: f64,
}

/// The variants of one origin as [`derive_into`] hands them to its visitor:
/// views into the enumeration's own buffers, valid for the call.
pub struct OriginVariants<'a> {
    /// The origin entity.
    pub origin: EntityId,
    scratch: &'a ExpandScratch,
}

impl<'a> OriginVariants<'a> {
    /// The variants — at least one — in id order: ascending distinct-token
    /// count, ties in enumeration order.
    pub fn iter(&self) -> impl Iterator<Item = DerivedRef<'a>> + 'a {
        let (origin, scratch) = (self.origin, self.scratch);
        scratch.order.iter().map(move |&v| {
            let (tokens_start, rules_start) = v
                .checked_sub(1)
                .map_or((0, 0), |prev| (scratch.produced[prev].tokens_end, scratch.produced[prev].rules_end));
            let Produced { tokens_end, rules_end, weight, .. } = scratch.produced[v];
            DerivedRef {
                origin,
                tokens: &scratch.tokens[tokens_start..tokens_end],
                rules: &scratch.rules[rules_start..rules_end],
                weight,
            }
        })
    }
}

/// Which origins the slots of a variant table — or of an index's per-origin
/// arrays — stand for: every origin of a space, slot `e` being origin `e`
/// (what a build, an artifact and a generation's base hold), or the listed
/// origins only (what a delta derives and a generation's tail holds).
#[derive(Debug, Clone, Copy)]
pub enum Slots<'a> {
    /// The first `n` origins.
    Whole(usize),
    /// These origins, strictly ascending: slot `i` is `origins[i]`.
    Listed(&'a [EntityId]),
}

impl Slots<'_> {
    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            Slots::Whole(n) => *n,
            Slots::Listed(origins) => origins.len(),
        }
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The origin slot `slot` stands for.
    #[inline]
    pub fn origin(&self, slot: usize) -> EntityId {
        match self {
            Slots::Whole(_) => EntityId(slot as u32),
            Slots::Listed(origins) => origins[slot],
        }
    }

    /// The number of slots whose origin lies below `e`.
    #[inline]
    pub fn slots_before(&self, e: EntityId) -> usize {
        match self {
            Slots::Whole(n) => e.idx().min(*n),
            Slots::Listed(origins) => origins.partition_point(|&o| o < e),
        }
    }
}

/// How a merge lays its sides' slots out: runs of consecutive slots of one
/// side that land on consecutive output slots, in ascending origin order.
/// One plan drives both the variant table's merge ([`VariantTable::merge`])
/// and the index's per-origin arrays, so the two stay slot for slot.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// `(side, its slots, the output slot of the first)`, ascending.
    runs: Vec<(usize, Range<usize>, usize)>,
    /// Output slots.
    slots: usize,
    /// The origin of each output slot, when the output lists its origins.
    listed: Option<Vec<EntityId>>,
}

impl MergePlan {
    /// The slots of `sides` whose origin `keep(side, origin)` admits, merged
    /// by origin — no origin may be admitted from two sides — into the whole
    /// space of `whole` origins (an origin no side gives holds nothing), or,
    /// when `whole` is `None`, into a listed output of just those origins.
    /// Costs a step per slot of every side.
    ///
    /// # Panics
    /// Panics when two sides give one origin, or an origin lies outside
    /// `whole`.
    pub fn new(sides: &[Slots<'_>], keep: impl Fn(usize, EntityId) -> bool, whole: Option<usize>) -> Self {
        let mut next = vec![0usize; sides.len()];
        // Per side, its next admitted slot and that slot's origin.
        let admitted = |s: usize, next: &mut [usize]| {
            while next[s] < sides[s].len() && !keep(s, sides[s].origin(next[s])) {
                next[s] += 1;
            }
            (next[s] < sides[s].len()).then(|| sides[s].origin(next[s]))
        };
        let mut heads: Vec<Option<EntityId>> = (0..sides.len()).map(|s| admitted(s, &mut next)).collect();
        let mut plan = MergePlan {
            runs: Vec::new(),
            slots: whole.unwrap_or(0),
            listed: whole.is_none().then(Vec::new),
        };
        let mut last: Option<EntityId> = None;
        while let Some((e, s)) = heads.iter().zip(0..).filter_map(|(head, s)| head.map(|e| (e, s))).min() {
            assert!(last < Some(e), "origin {} is given by two sides of a merge", e.0);
            last = Some(e);
            let at = match &mut plan.listed {
                None => {
                    assert!(e.idx() < plan.slots, "origin {} lies outside the {} origins of a merge", e.0, plan.slots);
                    e.idx()
                }
                Some(listed) => {
                    listed.push(e);
                    listed.len() - 1
                }
            };
            let slot = next[s];
            match plan.runs.last_mut() {
                Some((side, run, first)) if *side == s && run.end == slot && *first + run.len() == at => run.end += 1,
                _ => plan.runs.push((s, slot..slot + 1, at)),
            }
            next[s] += 1;
            heads[s] = admitted(s, &mut next);
        }
        if let Some(listed) = &plan.listed {
            plan.slots = listed.len();
        }
        plan
    }

    /// The runs, in output order: `(side, its slots, the output slot of the
    /// first)`.
    pub fn runs(&self) -> &[(usize, Range<usize>, usize)] {
        &self.runs
    }

    /// Output slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whether the plan takes side 0's first [`Self::slots`] slots as they
    /// stand, and nothing else.
    pub fn is_identity(&self) -> bool {
        match &self.runs[..] {
            [] => self.slots == 0,
            [(0, run, 0)] => run.len() == self.slots,
            _ => false,
        }
    }

    /// The output's slots: whole, or the origins it lists.
    pub fn output(&self) -> Slots<'_> {
        match &self.listed {
            None => Slots::Whole(self.slots),
            Some(listed) => Slots::Listed(listed),
        }
    }

    /// The origins a listed output holds (`None` for a whole one).
    pub fn into_listed(self) -> Option<Vec<EntityId>> {
        self.listed
    }
}

/// `offsets` shifted so that the value `from` lands on `to` (the copy of a
/// prefix-offset range into an arena that holds `to` elements so far).
pub fn rebased(offsets: &[u32], from: u32, to: u32) -> impl Iterator<Item = u32> + '_ {
    offsets.iter().map(move |&o| o - from + to)
}

/// A variant table written run by run out of other tables' slot runs, in
/// ascending output order: the prefix moved by the running shift, the
/// weights copied behind — or ones, for a run of a table that stores none,
/// once any side does.
struct TableWriter {
    by_origin: Vec<u32>,
    weight: Vec<f64>,
    weighted: bool,
    variants: u32,
}

impl TableWriter {
    fn new(slots: usize, weighted: bool, variants: usize) -> Self {
        let mut by_origin = Vec::with_capacity(slots + 1);
        by_origin.push(0);
        Self {
            by_origin,
            weight: Vec::with_capacity(if weighted { variants } else { 0 }),
            weighted,
            variants: 0,
        }
    }

    /// Appends `side`'s `slots` as output slots from `at`; the slots between
    /// the previous run and this one hold nothing.
    fn push_run(&mut self, side: &VariantTable, slots: Range<usize>, at: usize) {
        assert!(self.by_origin.len() <= at + 1, "slot runs must ascend");
        let (v0, v1) = (side.by_origin[slots.start], side.by_origin[slots.end]);
        self.by_origin.resize(at + 1, self.variants);
        self.by_origin.extend(rebased(&side.by_origin[slots.start + 1..=slots.end], v0, self.variants));
        self.variants += v1 - v0;
        if !side.weight.is_empty() {
            self.weight.extend_from_slice(&side.weight[v0 as usize..v1 as usize]);
        } else if self.weighted {
            self.weight.resize(self.variants as usize, 1.0);
        }
    }

    fn finish(mut self, slots: usize, stats: DeriveStats) -> VariantTable {
        self.by_origin.resize(slots + 1, self.variants);
        if self.weight.iter().all(|&w| w == 1.0) {
            self.weight = Vec::new();
        }
        VariantTable { by_origin: self.by_origin.into(), weight: self.weight.into(), stats }
    }
}

/// What extraction reads of a derived dictionary once its index is built:
/// which variant ids belong to which origin, and — for weighted requests —
/// what each variant weighs. This is all an engine, a copy-on-write
/// generation and a frozen segment keep. The table is indexed by *slot*: over
/// a whole origin space (slot `e` is origin `e`), or over listed origins
/// whose list its holder keeps ([`Slots`]). Token sequences and rule provenance
/// are in a [`DerivedDictionary`] (which derefs to its table), and only
/// while something reads them: they are what re-deriving the origins gives.
#[derive(Debug, Clone)]
pub struct VariantTable {
    /// `by_origin[s]..by_origin[s+1]` is slot `s`'s variant id range
    /// (`slots + 1` entries, a prefix sum).
    by_origin: Arena<u32>,
    /// Variant → weight product: `D` entries, or none when every variant
    /// weighs `1.0`.
    weight: Arena<f64>,
    stats: DeriveStats,
}

impl Default for VariantTable {
    fn default() -> Self {
        Self { by_origin: vec![0].into(), weight: Arena::new(), stats: DeriveStats::default() }
    }
}

/// The derived dictionary: every entity's variants, grouped contiguously by
/// origin so `D(e)` is a contiguous id range.
///
/// It is a [`VariantTable`] — what extraction reads, and what it derefs to —
/// and each variant's origin, token sequence and applied rules, flat: prefix
/// offsets into shared token and rule arenas. Those are the input of the
/// order and index builds that materialise the dictionary
/// (`ClusteredIndex::build`) and of the reference verifiers, and nothing
/// else reads them. So a dictionary [`DerivedDictionary::build`] makes holds
/// them from the start, and one [`DerivedDictionary::lazy`] makes over a
/// table that an index build left behind holds what re-derives them and
/// fills them in on the first read that needs them
/// ([`DerivedDictionary::derived`], [`DerivedDictionary::variants`],
/// [`DerivedDictionary::iter`]). Clones share the sequences, filled or not.
#[derive(Debug, Clone)]
pub struct DerivedDictionary {
    table: VariantTable,
    sequences: Arc<Sequences>,
}

/// The per-variant arrays of a [`DerivedDictionary`] beside its table: given,
/// or derived again from `source` on first read.
#[derive(Debug)]
struct Sequences {
    /// What derives the table again — every origin kept — or `None` when
    /// the arrays were given.
    source: Option<(Dictionary, RuleSet, DeriveConfig)>,
    arrays: OnceLock<SequenceArrays>,
}

/// Each variant's origin, token sequence and applied rules, flat.
#[derive(Debug)]
struct SequenceArrays {
    /// Variant → origin entity (`D` entries).
    origin: Vec<EntityId>,
    /// All variants' tokens, back to back.
    tokens: Vec<TokenId>,
    /// `tok_off[i]..tok_off[i+1]` is variant `i`'s token range (`D+1`).
    tok_off: Vec<u32>,
    /// All variants' applied rules, back to back.
    rules: Vec<RuleId>,
    /// `rule_off[i]..rule_off[i+1]` is variant `i`'s rule range (`D+1`).
    rule_off: Vec<u32>,
}

impl SequenceArrays {
    /// The origins of `dict` that `keep` selects, expanded under `rules`
    /// (see [`derive_into`]): every variant's tokens and rules copied into
    /// the arenas, beside the table — over the whole origin space, an origin
    /// left out holding nothing — of which ids went to which origin.
    /// `variants` is how many variants the derivation is known to give, or 0:
    /// the per-variant arrays are sized by it, and every array is cut to
    /// what it holds once derived.
    fn derive(dict: &Dictionary, rules: &RuleSet, config: &DeriveConfig, keep: impl Fn(EntityId) -> bool, variants: usize) -> (VariantTable, Self) {
        let mut out = Self {
            origin: Vec::with_capacity(variants),
            tokens: Vec::new(),
            tok_off: Vec::with_capacity(variants + 1),
            rules: Vec::new(),
            rule_off: Vec::with_capacity(variants + 1),
        };
        let Self { origin, tokens, tok_off, rules: applied, rule_off } = &mut out;
        tok_off.push(0);
        rule_off.push(0);
        let kept: Vec<EntityId> = (0..dict.len() as u32).map(EntityId).filter(|&e| keep(e)).collect();
        let lookup = rules.lookup(kept.iter().flat_map(|&e| dict.entity(e).iter().copied()));
        let table = derive_into(dict, &lookup, config, kept.iter().copied(), |variants| {
            for d in variants.iter() {
                origin.push(d.origin);
                tokens.extend_from_slice(d.tokens);
                tok_off.push(u32::try_from(tokens.len()).expect("derived token arena overflows u32 offsets"));
                applied.extend_from_slice(d.rules);
                rule_off.push(u32::try_from(applied.len()).expect("derived rule arena overflows u32 offsets"));
            }
        });
        for arena in [&mut out.tok_off, &mut out.rule_off] {
            arena.shrink_to_fit();
        }
        out.origin.shrink_to_fit();
        out.tokens.shrink_to_fit();
        out.rules.shrink_to_fit();
        if kept.len() == dict.len() {
            return (table, out);
        }
        let plan = MergePlan::new(&[Slots::Listed(&kept)], |_, _| true, Some(dict.len()));
        let stats = table.stats.clone();
        (VariantTable::merge(&[&table], &plan, stats), out)
    }
}

impl std::ops::Deref for DerivedDictionary {
    type Target = VariantTable;
    fn deref(&self) -> &VariantTable {
        &self.table
    }
}

impl From<DerivedDictionary> for VariantTable {
    /// Releases the sequences and provenance, keeping what extraction reads.
    fn from(dd: DerivedDictionary) -> Self {
        dd.table
    }
}

impl VariantTable {
    /// The table of `sides` laid out by `plan` (over those sides' slots):
    /// each run's variants in turn, the prefix moved by the running shift,
    /// and `stats` as given. Variants sit in ascending origin order on every
    /// side, so this is the table a derivation over the output's origins
    /// gives, array for array, when the sides are derivations of the origins
    /// the plan takes from them — the concatenation of a build's parts, a
    /// delta's changed origins spliced over the ones they replace, a tail
    /// compacted into its base. Weights are stored exactly when one of the
    /// result's variants weighs other than `1.0`.
    pub fn merge(sides: &[&Self], plan: &MergePlan, stats: DeriveStats) -> Self {
        let weighted = sides.iter().any(|side| !side.weight.is_empty());
        let variants = plan
            .runs
            .iter()
            .map(|(s, run, _)| (sides[*s].by_origin[run.end] - sides[*s].by_origin[run.start]) as usize)
            .sum();
        let mut out = TableWriter::new(plan.slots, weighted, variants);
        for (s, run, at) in &plan.runs {
            out.push_run(sides[*s], run.clone(), *at);
        }
        out.finish(plan.slots, stats)
    }

    /// Reassembles a table from raw (possibly frozen) arenas, validating
    /// every structural invariant: the origin prefix starts at 0 and is
    /// monotonic, and the weights — none, or one per variant — lie in
    /// `(0, 1]`. `stats` is kept as given — a later delta's
    /// [`DeriveStats::replaced`] subtracts from it — except that `derived` is set from the prefix and
    /// `origins` may not exceed the id space.
    ///
    /// # Errors
    /// Returns a message describing the first violated invariant; a
    /// corrupted artifact yields a clean error here, never a panic later.
    pub fn from_raw_arenas(by_origin: Arena<u32>, weight: Arena<f64>, stats: DeriveStats) -> Result<Self, String> {
        let (&d, prefix) = by_origin.split_last().ok_or("origin prefix array empty")?;
        if by_origin[0] != 0 {
            return Err("origin prefix does not start at 0".into());
        }
        // Branchless folds so the scans vectorize (this runs on the
        // frozen-open critical path); the offender is hunted down on failure.
        if !by_origin.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1])) {
            return Err("origin prefix not monotonic".into());
        }
        if !weight.is_empty() && weight.len() != d as usize {
            return Err(format!("variant weight array holds {} entries, expected none or {d}", weight.len()));
        }
        if !weight.iter().fold(true, |ok, &w| ok & (w > 0.0) & (w <= 1.0)) {
            let (i, w) = weight.iter().enumerate().find(|(_, &w)| !(w > 0.0 && w <= 1.0)).expect("fold found a bad weight");
            return Err(format!("variant {i} weight {w} outside (0, 1]"));
        }
        if stats.origins > prefix.len() {
            return Err(format!("statistics count {} derived origins, the id space holds {}", stats.origins, prefix.len()));
        }
        let stats = DeriveStats { derived: d as usize, ..stats };
        Ok(Self { by_origin, weight, stats })
    }

    /// The weight product of variant `id`: `1.0` throughout a table that
    /// stores no weights.
    #[inline]
    pub fn weight_of(&self, id: DerivedId) -> f64 {
        if self.weight.is_empty() {
            1.0
        } else {
            self.weight[id.idx()]
        }
    }

    /// The contiguous range of [`DerivedId`]s holding `e`'s variants, in a
    /// table over a whole origin space (in a listed one, of slot `e`).
    pub fn variant_range(&self, e: EntityId) -> Range<u32> {
        self.by_origin[e.idx()]..self.by_origin[e.idx() + 1]
    }

    /// The variants of the slots before `slot`: the first variant id of
    /// `slot`, or the table's length at `slot == slots`.
    pub fn variants_before(&self, slot: usize) -> u32 {
        self.by_origin[slot]
    }

    /// Total number of derived entities.
    pub fn len(&self) -> usize {
        self.by_origin[self.origins()] as usize
    }

    /// Whether no derived entities exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots: origin entities, in a table over a whole space.
    pub fn origins(&self) -> usize {
        self.by_origin.len() - 1
    }

    /// Generation statistics.
    pub fn stats(&self) -> &DeriveStats {
        &self.stats
    }

    /// Whether the storage borrows a frozen artifact (zero-copy) rather
    /// than owning heap arrays.
    pub fn is_frozen(&self) -> bool {
        self.by_origin.is_frozen()
    }

    /// Raw arena views, in [`VariantTable::from_raw_arenas`] order: the
    /// origin prefix and the weights (empty when every variant weighs
    /// `1.0`) — the frozen writer serializes exactly these.
    pub fn raw_arenas(&self) -> (&[u32], &[f64]) {
        (&self.by_origin, &self.weight)
    }
}

/// Expands the `origins` of `dict` under the rules of `lookup`, hands each
/// one's variants to `each_origin` while they sit in the enumeration's
/// buffers, and returns the table of which ids went to which origin.
/// `lookup` must have been built for the origins' tokens
/// ([`RuleSet::lookup`]); it is the caller's so that a build's parts can
/// share one.
///
/// Variants are enumerated in a deterministic order — the unmodified origin
/// first, then combinations in mixed-radix order over the span groups
/// (leftmost span = least significant digit) — and an origin's variants take
/// their ids by ascending distinct-token count, ties in enumeration order.
/// That is the slot order of the origin's index block (its masks ascend by
/// popcount so that verification can binary-search the lengths the filter
/// admits): a block's slot is its variant's id less the origin's first.
///
/// The table has one slot per listed origin, in list order ([`Slots`]):
/// derivation walks the list, so a delta's few origins cost what they
/// derive, whatever the dictionary holds. [`DeriveStats::origins`] counts
/// them, and only an origin with at least one variant is handed out.
/// Nothing is allocated per variant: what a caller wants to keep of one it
/// copies out of the slices it is shown.
///
/// # Panics
/// Panics when `origins` does not ascend strictly or names an origin
/// outside `dict`.
pub fn derive_into(
    dict: &Dictionary,
    lookup: &RuleLookup<'_>,
    config: &DeriveConfig,
    origins: impl IntoIterator<Item = EntityId>,
    mut each_origin: impl FnMut(OriginVariants<'_>),
) -> VariantTable {
    let origins = origins.into_iter();
    let mut by_origin: Vec<u32> = Vec::with_capacity(origins.size_hint().0 + 1);
    by_origin.push(0);
    // The weight array comes into being with the first weight other than
    // `1.0`, so an unweighted dictionary never allocates one.
    let mut weight: Vec<f64> = Vec::new();
    let mut stats = DeriveStats::default();
    let mut scratch = ExpandScratch::default();
    let mut last = None;
    for eid in origins {
        assert!(last < Some(eid), "origins are derived in strictly ascending order");
        last = Some(eid);
        let tokens = dict.entity(eid);
        stats.origins += 1;
        if !tokens.is_empty() {
            expand_entity(tokens, lookup, config, &mut scratch, &mut stats);
            for &v in &scratch.order {
                let w = scratch.produced[v].weight;
                if w != 1.0 && weight.is_empty() {
                    weight.resize(stats.derived, 1.0);
                }
                if w != 1.0 || !weight.is_empty() {
                    weight.push(w);
                }
                stats.derived += 1;
            }
            if !scratch.order.is_empty() {
                each_origin(OriginVariants { origin: eid, scratch: &scratch });
            }
        }
        by_origin.push(u32::try_from(stats.derived).expect("derived dictionary overflows u32 variant ids"));
    }
    VariantTable { by_origin: by_origin.into(), weight: weight.into(), stats }
}

/// Enumerates one entity's variants into the scratch — tokens and rules
/// written straight behind those of the variants before, a sequence already
/// there taken back out — and settles the order their ids go out in.
fn expand_entity(tokens: &[TokenId], lookup: &RuleLookup<'_>, config: &DeriveConfig, scratch: &mut ExpandScratch, stats: &mut DeriveStats) {
    let apps = find_applications(tokens, lookup);
    stats.applicable_total += apps.len();
    let groups = group_non_conflict(&apps, config.exact_selection);
    stats.selected_total += groups.iter().map(Vec::len).sum::<usize>();
    // What each selected application rewrites its span to, looked up once
    // per entity rather than once per variant that applies it.
    let groups: Vec<Vec<Rewrite<'_>>> = groups.iter().map(|g| g.iter().map(|&app| Rewrite::of(app, lookup.rules())).collect()).collect();
    let mut chosen: Vec<Rewrite<'_>> = Vec::with_capacity(groups.len());

    // Mixed-radix enumeration: digit g ranges over 0 (skip span) ..= |groups[g]|.
    let ExpandScratch { digits, tokens: flat_tokens, rules: flat_rules, produced, seen, order, sorted } = scratch;
    digits.clear();
    digits.resize(groups.len(), 0);
    flat_tokens.clear();
    flat_rules.clear();
    produced.clear();
    seen.clear();
    seen.resize(16, 0);
    'enumerate: loop {
        if produced.len() >= config.max_derived {
            stats.truncated_entities += 1;
            break;
        }
        chosen.clear();
        chosen.extend(digits.iter().zip(&groups).filter_map(|(&d, g)| d.checked_sub(1).map(|i| g[i])));
        let (tokens_start, rules_start) = (flat_tokens.len(), flat_rules.len());
        let weight = rewrite(tokens, &chosen, flat_tokens, flat_rules);
        let (earlier, new_tokens) = flat_tokens.split_at(tokens_start);
        let hash = hash_tokens(new_tokens);
        let slot = probe(seen, hash, |v| {
            let tokens_start = v.checked_sub(1).map_or(0, |prev| produced[prev].tokens_end);
            produced[v].hash == hash && earlier[tokens_start..produced[v].tokens_end] == *new_tokens
        });
        if seen[slot] != 0 {
            stats.duplicates_dropped += 1;
            flat_tokens.truncate(tokens_start);
            flat_rules.truncate(rules_start);
        } else {
            produced.push(Produced {
                hash,
                set_len: distinct_tokens(new_tokens, sorted),
                tokens_end: flat_tokens.len(),
                rules_end: flat_rules.len(),
                weight,
            });
            seen[slot] = produced.len() as u32;
            if produced.len() * 2 > seen.len() {
                let slots = seen.len() * 2;
                seen.clear();
                seen.resize(slots, 0);
                for (p, filed) in produced.iter().zip(1..) {
                    let slot = probe(seen, p.hash, |_| false);
                    seen[slot] = filed;
                }
            }
        }
        // Increment mixed-radix counter.
        let mut g = 0;
        loop {
            if g == groups.len() {
                break 'enumerate; // all combinations enumerated
            }
            digits[g] += 1;
            if digits[g] <= groups[g].len() {
                break;
            }
            digits[g] = 0;
            g += 1;
        }
    }
    order.clear();
    order.extend(0..produced.len());
    order.sort_by_key(|&v| produced[v].set_len);
}

impl DerivedDictionary {
    /// Expands every entity of `dict` under `rules`, in the order and with
    /// the ids of [`derive_into`].
    pub fn build(dict: &Dictionary, rules: &RuleSet, config: &DeriveConfig) -> Self {
        Self::build_filtered(dict, rules, config, |_| true)
    }

    /// Expands only the entities selected by `keep`, preserving the *full*
    /// origin id space (see [`derive_into`], which this materialises: every
    /// variant's tokens and rules are copied into the arenas);
    /// `build` is `build_filtered(.., |_| true)`.
    pub fn build_filtered(dict: &Dictionary, rules: &RuleSet, config: &DeriveConfig, keep: impl Fn(EntityId) -> bool) -> Self {
        let (table, arrays) = SequenceArrays::derive(dict, rules, config, keep, 0);
        Self {
            table,
            sequences: Arc::new(Sequences { source: None, arrays: OnceLock::from(arrays) }),
        }
    }

    /// The dictionary whose table is `table` — what [`derive_into`] returns
    /// over every origin of `dict` under `rules` and `config`, as an index
    /// build leaves it behind — holding no sequence until a read needs one:
    /// the first such read derives them all again, once.
    ///
    /// # Panics
    /// That first read panics when the derivation gives another table.
    pub fn lazy(table: VariantTable, dict: Dictionary, rules: RuleSet, config: DeriveConfig) -> Self {
        Self {
            table,
            sequences: Arc::new(Sequences { source: Some((dict, rules, config)), arrays: OnceLock::new() }),
        }
    }

    /// The per-variant arrays, derived again first if this is the first read
    /// of a lazy dictionary.
    fn arrays(&self) -> &SequenceArrays {
        self.sequences.arrays.get_or_init(|| {
            let (dict, rules, config) = self.sequences.source.as_ref().expect("a dictionary without sequences derives them");
            let (table, arrays) = SequenceArrays::derive(dict, rules, config, |_| true, self.table.len());
            assert!(
                table.raw_arenas() == self.table.raw_arenas() && table.stats == self.table.stats,
                "re-deriving the dictionary gave another variant table than the one it was made with"
            );
            arrays
        })
    }

    /// The derived entity with id `id` (borrowed view).
    #[inline]
    pub fn derived(&self, id: DerivedId) -> DerivedRef<'_> {
        let i = id.idx();
        let arrays = self.arrays();
        DerivedRef {
            origin: arrays.origin[i],
            tokens: &arrays.tokens[arrays.tok_off[i] as usize..arrays.tok_off[i + 1] as usize],
            rules: &arrays.rules[arrays.rule_off[i] as usize..arrays.rule_off[i + 1] as usize],
            weight: self.table.weight_of(id),
        }
    }

    /// The origin entity variant `id` was derived from.
    #[inline]
    #[cfg(test)]
    fn origin_of(&self, id: DerivedId) -> EntityId {
        self.arrays().origin[id.idx()]
    }

    /// All variants of origin entity `e` (includes the unmodified origin).
    pub fn variants(&self, e: EntityId) -> Variants<'_> {
        let Range { start, end } = self.table.variant_range(e);
        Variants { dd: self, start, end }
    }

    /// Iterates over `(id, derived entity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (DerivedId, DerivedRef<'_>)> {
        (0..self.len() as u32).map(move |i| (DerivedId(i), self.derived(DerivedId(i))))
    }
}

/// Calls `visit` with each distinct token of `tokens`, once. Entities are
/// short phrases, and up to a few dozen tokens comparing each with those
/// before it is several times cheaper than sorting a copy (usjob: 7 tokens,
/// 418 520 variants, 27 ms of a 160 ms derive); longer ones are sorted in
/// `sorted`.
pub fn each_distinct_token(tokens: &[TokenId], sorted: &mut Vec<TokenId>, mut visit: impl FnMut(TokenId)) {
    if tokens.len() <= 32 {
        for (i, &t) in tokens.iter().enumerate() {
            if !tokens[..i].contains(&t) {
                visit(t);
            }
        }
        return;
    }
    sorted.clear();
    sorted.extend_from_slice(tokens);
    sorted.sort_unstable();
    sorted.dedup();
    sorted.iter().copied().for_each(visit);
}

/// Number of distinct tokens in `tokens`.
fn distinct_tokens(tokens: &[TokenId], sorted: &mut Vec<TokenId>) -> usize {
    let mut distinct = 0;
    each_distinct_token(tokens, sorted, |_| distinct += 1);
    distinct
}

/// The first slot of `seen`, from the one `hash` names on, that is free or
/// holds a variant `is_it` takes for the one looked for.
fn probe(seen: &[u32], hash: u64, mut is_it: impl FnMut(usize) -> bool) -> usize {
    let mut slot = hash as usize & (seen.len() - 1);
    while seen[slot] != 0 && !is_it(seen[slot] as usize - 1) {
        slot = (slot + 1) & (seen.len() - 1);
    }
    slot
}

/// Mixes a token sequence into one word, length included.
fn hash_tokens(tokens: &[TokenId]) -> u64 {
    tokens
        .iter()
        .fold(tokens.len() as u64, |h, t| (h ^ u64::from(t.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23))
}

/// A selected application with what it rewrites its span to and its rule's
/// weight.
#[derive(Clone, Copy)]
struct Rewrite<'r> {
    app: Application,
    to: &'r [TokenId],
    weight: f64,
}

impl<'r> Rewrite<'r> {
    fn of(app: Application, rules: &'r RuleSet) -> Self {
        let rule = rules.rule(app.rule);
        let to = match app.side {
            Side::Lhs => rule.rhs,
            Side::Rhs => rule.lhs,
        };
        Rewrite { app, to, weight: rule.weight }
    }
}

/// Applies `chosen` (span-disjoint, ascending by start — the order the
/// selected groups come in) to `tokens`: the rewritten sequence is appended
/// to `out`, the rule ids applied to `applied`, and the weight product
/// returned.
fn rewrite(tokens: &[TokenId], chosen: &[Rewrite<'_>], out: &mut Vec<TokenId>, applied: &mut Vec<RuleId>) -> f64 {
    debug_assert!(chosen.windows(2).all(|w| w[0].app.end() <= w[1].app.start), "chosen applications overlap or are out of order");
    let mut weight = 1.0;
    let mut pos = 0usize;
    for &Rewrite { app, to, weight: w } in chosen {
        out.extend_from_slice(&tokens[pos..app.start as usize]);
        out.extend_from_slice(to);
        applied.push(app.rule);
        weight *= w;
        pos = app.end() as usize;
    }
    out.extend_from_slice(&tokens[pos..]);
    weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_text::{Interner, Tokenizer};
    use std::collections::HashSet;

    struct Ctx {
        int: Interner,
        tok: Tokenizer,
        dict: Dictionary,
        rules: RuleSet,
    }

    impl Ctx {
        fn new() -> Self {
            Self {
                int: Interner::new(),
                tok: Tokenizer::default(),
                dict: Dictionary::new(),
                rules: RuleSet::new(),
            }
        }
        fn entity(&mut self, s: &str) -> EntityId {
            self.dict.push(s, &self.tok, &mut self.int)
        }
        fn rule(&mut self, l: &str, r: &str) {
            self.rules.push_str(l, r, &self.tok, &mut self.int).unwrap();
        }
        fn build(&self) -> DerivedDictionary {
            DerivedDictionary::build(&self.dict, &self.rules, &DeriveConfig::default())
        }
        fn render(&self, d: DerivedRef<'_>) -> String {
            self.int.render(d.tokens)
        }
    }

    /// Paper §2.1: e3 = "UQ AU" with rules UQ⇔University of Queensland and
    /// AU⇔Australia derives exactly the four listed variants.
    #[test]
    fn paper_uq_au_example() {
        let mut c = Ctx::new();
        let e = c.entity("UQ AU");
        c.rule("UQ", "University of Queensland");
        c.rule("AU", "Australia");
        let dd = c.build();
        let got: Vec<String> = dd.variants(e).iter().map(|d| c.render(d)).collect();
        assert_eq!(dd.len(), 4);
        assert!(got.contains(&"uq au".to_string()));
        assert!(got.contains(&"university of queensland au".to_string()));
        assert!(got.contains(&"uq australia".to_string()));
        assert!(got.contains(&"university of queensland australia".to_string()));
    }

    /// An origin's variants take their ids by ascending distinct-token count,
    /// ties in enumeration order, and tokens, rules and weights move together.
    #[test]
    fn variants_ascend_by_distinct_token_count() {
        let mut c = Ctx::new();
        c.entity("plain words"); // the weight array comes into being mid-dictionary
        let e = c.entity("University of Wisconsin Madison WI");
        c.rules.push_weighted_str("UW", "University of Wisconsin", 0.5, &c.tok.clone(), &mut c.int).unwrap();
        c.rule("WI", "Wisconsin");
        let dd = c.build();
        // Enumerated: the origin (5 distinct), "uw madison wi" (3), "… madison
        // wisconsin" (4: "wisconsin" twice), "uw madison wisconsin" (3).
        let got: Vec<(String, usize, f64)> = dd.variants(e).iter().map(|d| (c.render(d), d.rules.len(), d.weight)).collect();
        assert_eq!(
            got,
            [
                ("uw madison wi".to_string(), 1, 0.5),
                ("uw madison wisconsin".to_string(), 2, 0.5),
                ("university of wisconsin madison wisconsin".to_string(), 1, 1.0),
                ("university of wisconsin madison wi".to_string(), 0, 1.0),
            ]
        );
        assert_eq!(dd.raw_arenas().1, [1.0, 0.5, 0.5, 1.0, 1.0]);
        assert!(dd.iter().all(|(id, d)| dd.origin_of(id) == d.origin));
    }

    /// Past the length where distinct tokens are counted by comparison they
    /// are counted by sorting, to the same effect: of a 41-token entity with
    /// 21 distinct tokens and its rewrite with 20, the rewrite comes first.
    #[test]
    fn long_variants_ascend_by_distinct_token_count_too() {
        let mut c = Ctx::new();
        let words: Vec<String> = (0..40).map(|i| format!("w{:02}", i % 20)).collect();
        let e = c.entity(&format!("solo {}", words.join(" ")));
        c.rule("solo w00 w01", "w01 w00");
        let dd = c.build();
        let sets: Vec<usize> = dd.variants(e).iter().map(|d| d.tokens.iter().collect::<HashSet<_>>().len()).collect();
        assert_eq!(sets, [20, 21]);
        assert_eq!(dd.variants(e).get(1).unwrap().tokens.len(), 41, "the unmodified origin is the longer set");
        let mut scratch = Vec::new();
        for n in [0, 1, 32, 33, 41] {
            let tokens = &dd.variants(e).get(1).unwrap().tokens[..n];
            assert_eq!(distinct_tokens(tokens, &mut scratch), tokens.iter().collect::<HashSet<_>>().len(), "{n} tokens");
        }
    }

    #[test]
    fn rhs_occurrence_rewrites_to_lhs() {
        let mut c = Ctx::new();
        let e = c.entity("University of Queensland");
        c.rule("UQ", "University of Queensland");
        let dd = c.build();
        let got: Vec<String> = dd.variants(e).iter().map(|d| c.render(d)).collect();
        assert!(got.contains(&"uq".to_string()));
    }

    #[test]
    fn conflicting_rules_never_coapplied() {
        let mut c = Ctx::new();
        // "UW" could be Wisconsin or Washington (paper's r4/r5 conflict).
        let e = c.entity("UW Madison");
        c.rule("UW", "University of Wisconsin");
        c.rule("UW", "University of Washington");
        let dd = c.build();
        let got: Vec<String> = dd.variants(e).iter().map(|d| c.render(d)).collect();
        assert_eq!(got.len(), 3); // origin + two alternatives
        for d in dd.variants(e) {
            assert!(d.rules.len() <= 1);
        }
    }

    #[test]
    fn empty_entity_has_no_variants() {
        let mut c = Ctx::new();
        let e = c.entity("!!!");
        let dd = c.build();
        assert!(dd.variants(e).is_empty());
    }

    #[test]
    fn cap_truncates_deterministically() {
        let mut c = Ctx::new();
        // 8 independent spans, each with one rule → 2^8 = 256 combos.
        let e = c.entity("a b c d e f g h");
        for s in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            c.rule(s, &format!("{s}x"));
        }
        let dd1 = DerivedDictionary::build(&c.dict, &c.rules, &DeriveConfig { max_derived: 10, ..DeriveConfig::default() });
        let dd2 = DerivedDictionary::build(&c.dict, &c.rules, &DeriveConfig { max_derived: 10, ..DeriveConfig::default() });
        assert_eq!(dd1.variants(e).len(), 10);
        assert_eq!(dd1.stats().truncated_entities, 1);
        let t1: Vec<Vec<TokenId>> = dd1.variants(e).iter().map(|d| d.tokens.to_vec()).collect();
        let t2: Vec<Vec<TokenId>> = dd2.variants(e).iter().map(|d| d.tokens.to_vec()).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn no_cap_generates_full_product() {
        let mut c = Ctx::new();
        let e = c.entity("a b c d e f g h");
        for s in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            c.rule(s, &format!("{s}x"));
        }
        let dd = c.build();
        assert_eq!(dd.variants(e).len(), 256);
        assert_eq!(dd.stats().truncated_entities, 0);
    }

    #[test]
    fn duplicate_variants_are_dropped() {
        let mut c = Ctx::new();
        let e = c.entity("ny ny");
        c.rule("ny", "new york");
        let dd = c.build();
        // Spans (0,1) and (1,2): combos = 4, all distinct here. Now a rule
        // pair producing identical output: a⇔b and a⇔b reversed.
        let _ = e;
        let e2 = c.entity("a");
        c.rules.push_str("a", "b", &c.tok.clone(), &mut c.int).unwrap();
        c.rules.push_str("b", "a", &c.tok.clone(), &mut c.int).unwrap();
        let dd2 = c.build();
        // variants of "a": origin "a", rule1→"b", rule2 rhs "a" matched → lhs "b" (dup).
        let got: Vec<String> = dd2.variants(e2).iter().map(|d| c.render(d)).collect();
        assert_eq!(got.len(), 2, "duplicate 'b' dropped: {got:?}");
        assert!(dd2.stats().duplicates_dropped >= 1);
        drop(dd);
    }

    #[test]
    fn weights_multiply() {
        let mut c = Ctx::new();
        let e = c.entity("uq au");
        c.rules
            .push_weighted_str("uq", "university of queensland", 0.5, &c.tok.clone(), &mut c.int)
            .unwrap();
        c.rules.push_weighted_str("au", "australia", 0.8, &c.tok.clone(), &mut c.int).unwrap();
        let dd = c.build();
        let both = dd.variants(e).iter().find(|d| d.rules.len() == 2).expect("variant with both rules");
        assert!((both.weight - 0.4).abs() < 1e-12);
        let id = DerivedId(dd.variant_range(e).start + dd.variants(e).iter().position(|d| d.rules.len() == 2).unwrap() as u32);
        assert_eq!(dd.weight_of(id), both.weight);
    }

    #[test]
    fn stats_track_counts() {
        let mut c = Ctx::new();
        c.entity("UQ AU");
        c.entity("plain words");
        c.rule("UQ", "University of Queensland");
        c.rule("AU", "Australia");
        let dd = c.build();
        let s = dd.stats();
        assert_eq!(s.origins, 2);
        assert_eq!(s.selected_total, 2);
        assert_eq!(s.avg_selected(), 1.0);
    }

    #[test]
    fn variants_ranges_are_disjoint_and_ordered() {
        let mut c = Ctx::new();
        let a = c.entity("UQ x");
        let b = c.entity("UQ y");
        c.rule("UQ", "University of Queensland");
        let dd = c.build();
        assert_eq!(dd.variants(a).len(), 2);
        assert_eq!(dd.variants(b).len(), 2);
        for d in dd.variants(a) {
            assert_eq!(d.origin, a);
        }
        for d in dd.variants(b) {
            assert_eq!(d.origin, b);
        }
        assert_eq!(dd.len(), 4);
        assert_eq!(dd.origins(), 2);
    }

    #[test]
    fn raw_arena_round_trip_and_validation() {
        let mut c = Ctx::new();
        c.entity("UQ AU");
        c.entity("plain words");
        c.rules
            .push_weighted_str("UQ", "University of Queensland", 0.5, &c.tok.clone(), &mut c.int)
            .unwrap();
        let dd = c.build();
        let (by_origin, weight) = dd.raw_arenas();
        assert_eq!((by_origin, weight), (&[0, 2, 3][..], &[1.0, 0.5, 1.0][..]));
        let rebuild = |by_origin: &[u32], weight: &[f64], stats: DeriveStats| {
            VariantTable::from_raw_arenas(by_origin.to_vec().into(), weight.to_vec().into(), stats)
        };
        let ok = rebuild(by_origin, weight, dd.stats().clone()).unwrap();
        assert_eq!((ok.len(), ok.origins(), ok.stats()), (3, 2, dd.stats()), "statistics survive as written");
        assert_eq!(ok.variant_range(EntityId(0)), dd.variant_range(EntityId(0)));
        assert_eq!((0..3).map(|i| ok.weight_of(DerivedId(i))).collect::<Vec<_>>(), weight);
        let unweighted = rebuild(by_origin, &[], DeriveStats::default()).unwrap();
        assert_eq!(unweighted.weight_of(DerivedId(1)), 1.0, "no stored weights means unit weights");
        for (bad, why) in [
            (rebuild(&[], weight, DeriveStats::default()), "empty"),
            (rebuild(&[1, 2, 3], weight, DeriveStats::default()), "does not start at 0"),
            (rebuild(&[0, 3, 2], &[], DeriveStats::default()), "not monotonic"),
            (rebuild(by_origin, &weight[..2], DeriveStats::default()), "holds 2 entries, expected none or 3"),
            (rebuild(by_origin, &[1.0, 0.0, 1.0], DeriveStats::default()), "variant 1 weight 0 outside (0, 1]"),
            (rebuild(by_origin, &[1.0, 1.0, f64::NAN], DeriveStats::default()), "variant 2 weight NaN outside (0, 1]"),
            (rebuild(by_origin, weight, DeriveStats { origins: 3, ..dd.stats().clone() }), "3 derived origins, the id space holds 2"),
        ] {
            let err = bad.expect_err(why);
            assert!(err.contains(why), "expected `{why}` in `{err}`");
        }
    }

    /// The weight array exists exactly while some variant weighs other than
    /// 1.0: built that way, and kept that way by every splice.
    #[test]
    fn weights_are_stored_only_while_some_variant_has_one() {
        let mut c = Ctx::new();
        c.entity("UQ AU");
        c.entity("plain words");
        c.rule("AU", "Australia");
        let unweighted = c.build();
        assert!(unweighted.raw_arenas().1.is_empty());
        c.rules
            .push_weighted_str("UQ", "University of Queensland", 0.5, &c.tok.clone(), &mut c.int)
            .unwrap();
        let whole = c.build();
        assert_eq!(whole.raw_arenas().1, [1.0, 1.0, 0.5, 0.5, 1.0]);

        // The weighted rule arrives as a delta reaching origin 0, derived
        // over that origin alone ...
        let changed = [EntityId(0)];
        let tokens = || c.dict.entity(changed[0]).iter().copied();
        let small = derive_into(&c.dict, &c.rules.lookup(tokens()), &DeriveConfig::default(), changed, |_| {});
        let departing = derive_into(&c.dict, &RuleSet::new().lookup(tokens()), &DeriveConfig::default(), changed, |_| {});
        assert_eq!(small.origins(), 1, "a delta's table holds a slot per origin it derives");
        let splice = |old: &VariantTable, small: &VariantTable, departing: &DeriveStats| {
            let sides = [Slots::Whole(2), Slots::Listed(&changed[..small.origins()])];
            let plan = MergePlan::new(&sides, |side, e| side == 1 || !changed.contains(&e), Some(2));
            VariantTable::merge(&[old, small], &plan, old.stats().replaced(departing, small.stats()))
        };
        let spliced = splice(&unweighted, &small, departing.stats());
        assert_eq!(spliced.raw_arenas(), whole.raw_arenas());
        // ... and leaves with the origin it reached.
        let gone = derive_into(&c.dict, &c.rules.lookup([]), &DeriveConfig::default(), [], |_| {});
        let left = splice(&spliced, &gone, small.stats());
        assert_eq!(left.raw_arenas(), (&[0, 0, 1][..], &[][..]));
    }
}
