//! Candidate-generation strategies (paper §4; ablation of Figure 10/11).

mod dynamic;
mod lazy;
mod naive;

use crate::limits::{Budget, ExtractLimits};
use crate::scratch::ExtractScratch;
use crate::segment::Segment;
use crate::stats::ExtractStats;
use aeetes_index::ClusteredIndex;
use aeetes_rules::VariantTable;
use aeetes_sim::Metric;
use aeetes_text::{Document, EntityId, Span};

/// Which filtering pipeline generates candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Enumerate every substring, compute its prefix from scratch and scan
    /// the full posting list of each prefix token (per-entry filters only).
    Simple,
    /// Like `Simple`, but scans use the clustered index: length groups the
    /// length filter excludes are skipped in batch (§3.2; the paper's other
    /// batch skip, over an origin's postings, is the index entry itself).
    Skip,
    /// Incremental prefix maintenance with Window Extend / Window Migrate
    /// (§4.1) on top of the clustered scans.
    Dynamic,
    /// Incremental prefixes plus lazy candidate generation (§4.2): posting
    /// lists are scanned once per document, after all valid tokens are
    /// collected.
    Lazy,
}

impl Strategy {
    /// All strategies, in the paper's ablation order.
    pub const ALL: [Strategy; 4] = [Strategy::Simple, Strategy::Skip, Strategy::Dynamic, Strategy::Lazy];

    /// Stable lowercase name (used by the experiment harness).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Simple => "simple",
            Strategy::Skip => "skip",
            Strategy::Dynamic => "dynamic",
            Strategy::Lazy => "lazy",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs the chosen strategy, filling `seg.sink` with the candidate pairs in
/// discovery order. The budget is consulted at every window advance; an
/// exhausted budget stops generation with whatever candidates were produced
/// so far.
///
/// `set_bounds` is the `(min, max)` distinct-set length range used to bound
/// window enumeration — the index's own range for a monolithic engine, or
/// the range of a generation's live variants when the segment has a tail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate(
    segment: Segment<'_>,
    doc: &Document,
    tau: f64,
    metric: Metric,
    strategy: Strategy,
    set_bounds: (Option<usize>, Option<usize>),
    seg: &mut ExtractScratch,
    stats: &mut ExtractStats,
    budget: &mut Budget,
) {
    seg.sink.clear();
    seg.stages.clear();
    // An already-spent budget (e.g. `max_candidates: Some(0)` or an expired
    // deadline) returns before any window is visited, even on inputs that
    // produce no windows at all.
    if !budget.keep_generating(0) {
        return;
    }
    match strategy {
        Strategy::Simple => naive::generate(segment, doc, tau, metric, set_bounds, false, seg, stats, budget),
        Strategy::Skip => naive::generate(segment, doc, tau, metric, set_bounds, true, seg, stats, budget),
        Strategy::Dynamic => dynamic::generate(segment, doc, tau, metric, set_bounds, seg, stats, budget),
        Strategy::Lazy => lazy::generate(segment, doc, tau, metric, set_bounds, seg, stats, budget),
    }
}

/// Runs candidate generation alone — no verification — into `scratch`,
/// returning the deduplicated candidate pairs in discovery order plus the
/// work counters. The returned slice borrows the scratch and is valid until
/// its next use.
///
/// # Panics
/// Panics when `tau` is not in `(0, 1]`.
pub fn generate_candidates<'s>(
    index: &ClusteredIndex,
    doc: &Document,
    tau: f64,
    metric: Metric,
    strategy: Strategy,
    scratch: &'s mut ExtractScratch,
) -> (&'s [(Span, EntityId)], ExtractStats) {
    assert!(tau > 0.0 && tau <= 1.0, "similarity threshold must be in (0, 1], got {tau}");
    let set_bounds = (index.min_set_len(), index.max_set_len());
    let mut stats = ExtractStats::default();
    let mut budget = Budget::start(&ExtractLimits::UNLIMITED, None);
    generate(Segment::new(index, &VariantTable::default()), doc, tau, metric, strategy, set_bounds, scratch, &mut stats, &mut budget);
    (&scratch.sink.pairs, stats)
}

/// What the strategy and scan tests share: small indexes, documents, and one
/// way to run a strategy.
#[cfg(test)]
pub(crate) mod fixture {
    use super::*;
    use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet};
    use aeetes_text::{Dictionary, Interner, Tokenizer};

    pub(crate) fn index_with(entries: &[&str], rules: &[(&str, &str)]) -> (ClusteredIndex, Interner) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let dict = Dictionary::from_strings(entries.iter().copied(), &tok, &mut int);
        let mut rs = RuleSet::new();
        for (l, r) in rules {
            rs.push_str(l, r, &tok, &mut int).unwrap();
        }
        let dd = DerivedDictionary::build(&dict, &rs, &DeriveConfig::default());
        (ClusteredIndex::build(&dd, &int), int)
    }

    pub(crate) fn setup(entries: &[&str], rules: &[(&str, &str)], doc: &str) -> (ClusteredIndex, Document) {
        let (ix, mut int) = index_with(entries, rules);
        let doc = Document::parse(doc, &Tokenizer::default(), &mut int);
        (ix, doc)
    }

    pub(crate) fn sorted(mut v: Vec<(Span, EntityId)>) -> Vec<(Span, EntityId)> {
        v.sort_by_key(|(sp, e)| (sp.start, sp.len, e.0));
        v
    }

    /// The index's own set-length range, as a monolithic engine passes it.
    pub(crate) fn own(ix: &ClusteredIndex) -> (Option<usize>, Option<usize>) {
        (ix.min_set_len(), ix.max_set_len())
    }

    /// `strategy`'s candidates under Jaccard and no budget, in discovery
    /// order, generated in `seg`.
    pub(crate) fn run_in(
        seg: &mut ExtractScratch,
        ix: &ClusteredIndex,
        doc: &Document,
        tau: f64,
        strategy: Strategy,
        stats: &mut ExtractStats,
    ) -> Vec<(Span, EntityId)> {
        generate(
            Segment::new(ix, &VariantTable::default()),
            doc,
            tau,
            Metric::Jaccard,
            strategy,
            own(ix),
            seg,
            stats,
            &mut Budget::unlimited(),
        );
        seg.sink.pairs.clone()
    }

    /// [`run_in`] a fresh scratch.
    pub(crate) fn run(ix: &ClusteredIndex, doc: &Document, tau: f64, strategy: Strategy, stats: &mut ExtractStats) -> Vec<(Span, EntityId)> {
        run_in(&mut ExtractScratch::default(), ix, doc, tau, strategy, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["simple", "skip", "dynamic", "lazy"]);
        assert_eq!(Strategy::Lazy.to_string(), "lazy");
    }
}
