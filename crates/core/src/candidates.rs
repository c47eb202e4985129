//! Candidate collection and the posting-list scan primitives.
//!
//! An index entry is one `(token, set length, origin)` cluster holding the
//! lowest position the token takes in the origin's variants of that length
//! (`aeetes_index::OriginGroup`), so every scan decides an origin with one
//! compare against the group's prefix length, and `accessed_entries` counts
//! the clusters read.

use crate::stats::ExtractStats;
use aeetes_index::ClusteredIndex;
use aeetes_sim::Metric;
use aeetes_text::{EntityId, Span, TokenId};
use std::collections::HashSet;

/// Accumulates candidate `(substring, origin entity)` pairs, deduplicated.
#[derive(Debug, Default)]
pub(crate) struct CandidateSink {
    /// Unique candidate pairs in discovery order.
    pub pairs: Vec<(Span, EntityId)>,
    seen: HashSet<(u32, u32, u32)>,
}

impl CandidateSink {
    /// Records a candidate; returns `false` when it was already present.
    pub fn push(&mut self, span: Span, e: EntityId) -> bool {
        if self.seen.insert((span.start, span.len, e.0)) {
            self.pairs.push((span, e));
            true
        } else {
            false
        }
    }

    /// Number of unique candidates collected (used by tests and stats).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Forgets all candidates, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.seen.clear();
    }
}

/// Scans the *entire* posting list of `t`, applying the length and position
/// filters per entry — the `Simple` baseline: no batch skipping, every entry
/// is accessed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_flat(
    index: &ClusteredIndex,
    t: TokenId,
    span: Span,
    s_len: usize,
    tau: f64,
    metric: Metric,
    sink: &mut CandidateSink,
    stats: &mut ExtractStats,
) {
    let Some(tp) = index.postings(t) else { return };
    let (lo, hi) = metric.length_bounds(s_len, tau, usize::MAX);
    for g in tp.groups() {
        let len = g.len();
        let in_range = len >= lo && len <= hi;
        let plen = metric.prefix_len(len, tau);
        stats.accessed_entries += g.origin_count() as u64;
        for og in g.origins() {
            if in_range && (og.min_pos as usize) < plen {
                sink.push(span, og.origin);
            }
        }
    }
}

/// Scans the posting list of `t` with the clustered-index skip of §3.2:
/// length groups outside the length filter are skipped in batch (binary
/// search + early break). The paper's second skip — the rest of an origin's
/// postings once one of them made it a candidate — is the cluster itself
/// here: an origin is one entry per group. An origin some other token or
/// group already made a candidate of this substring is tested again (one
/// compare, cheaper than asking the sink first) and deduplicated by the
/// sink.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_clustered(
    index: &ClusteredIndex,
    t: TokenId,
    span: Span,
    s_len: usize,
    tau: f64,
    metric: Metric,
    sink: &mut CandidateSink,
    stats: &mut ExtractStats,
) {
    let Some(tp) = index.postings(t) else { return };
    let (lo, hi) = metric.length_bounds(s_len, tau, usize::MAX);
    let start = tp.first_group_at_least(lo);
    for g in tp.groups_from(start) {
        let len = g.len();
        if len > hi {
            break;
        }
        let plen = metric.prefix_len(len, tau);
        stats.accessed_entries += g.origin_count() as u64;
        for og in g.origins() {
            if (og.min_pos as usize) < plen {
                sink.push(span, og.origin);
            }
        }
    }
}

/// Scans the posting list of `t` like [`scan_clustered`], but appends the
/// candidate origins to `arena` and returns the appended `(start, end)`
/// range. Used by the `Dynamic` strategy, which caches one scan per
/// surviving prefix token across Window Migrate steps (the result depends
/// only on `(t, s_len, tau)`, not on the substring position). `seen` is
/// scan-local dedup scratch (an origin can pass in several length groups),
/// cleared here; both buffers retain capacity across scans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_token_origins_into(
    index: &ClusteredIndex,
    t: TokenId,
    s_len: usize,
    tau: f64,
    metric: Metric,
    stats: &mut ExtractStats,
    arena: &mut Vec<EntityId>,
    seen: &mut HashSet<EntityId>,
) -> (u32, u32) {
    let from = arena.len() as u32;
    let Some(tp) = index.postings(t) else { return (from, from) };
    seen.clear();
    let (lo, hi) = metric.length_bounds(s_len, tau, usize::MAX);
    let start = tp.first_group_at_least(lo);
    for g in tp.groups_from(start) {
        let len = g.len();
        if len > hi {
            break;
        }
        let plen = metric.prefix_len(len, tau);
        stats.accessed_entries += g.origin_count() as u64;
        for og in g.origins() {
            if (og.min_pos as usize) < plen && seen.insert(og.origin) {
                arena.push(og.origin);
            }
        }
    }
    (from, arena.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::Budget;
    use crate::scratch::SegmentScratch;
    use crate::strategy::{self, Strategy};
    use aeetes_index::metric_window_bounds;
    use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet};
    use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
    use std::collections::BTreeSet;

    fn index_with(entries: &[&str], rules: &[(&str, &str)]) -> (ClusteredIndex, Interner) {
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

    fn index_of(entries: &[&str]) -> (ClusteredIndex, Interner) {
        index_with(entries, &[])
    }

    // ---- the retired scan: one position per variant holding the token ----

    /// The scan this module had while the index stored a posting per variant,
    /// kept as the oracle: every variant's own set (read off its origin's
    /// block, not off the clusters), the length filter on its length and the
    /// prefix filter on the position the token takes *in that variant*.
    /// Returns the candidate origins and the postings looked at.
    fn scan_per_posting(index: &ClusteredIndex, origins: usize, t: TokenId, s_len: usize, tau: f64, metric: Metric) -> (BTreeSet<EntityId>, u64) {
        let key = index.order().key(t);
        let (lo, hi) = metric.length_bounds(s_len, tau, usize::MAX);
        let (mut found, mut postings) = (BTreeSet::new(), 0);
        for e in (0..origins as u32).map(EntityId) {
            let block = index.block(e);
            for slot in 0..block.ids.len() {
                let Some(pos) = block.keys(slot).position(|k| k == key) else { continue };
                postings += 1;
                let len = block.set_len(slot);
                if len >= lo && len <= hi && pos < metric.prefix_len(len, tau) {
                    found.insert(e);
                }
            }
        }
        (found, postings)
    }

    const TAUS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

    /// Seven origins under nine rules: several variants of one origin and one
    /// set length hold a shared token at different positions, so a cluster's
    /// lowest position is not simply its first (keeping the highest instead
    /// fails both tests below).
    fn rule_dense() -> (ClusteredIndex, Interner, usize) {
        let entries = [
            "purdue university usa",
            "uq au",
            "uw madison wi",
            "big apple marathon",
            "nyc marathon usa",
            "data base systems",
            "university data mining",
        ];
        let rules = [
            ("uq", "university of queensland"),
            ("au", "australia"),
            ("usa", "united states"),
            ("uw", "university of wisconsin"),
            ("wi", "wisconsin"),
            ("big apple", "new york"),
            ("nyc", "new york city"),
            ("data base", "database"),
            ("university", "uni"),
        ];
        let (ix, int) = index_with(&entries, &rules);
        (ix, int, entries.len())
    }

    /// One cluster entry per `(token, length, origin)` decides what a posting
    /// per variant decided: all three scans find the per-posting scan's
    /// origins for every token, window length, threshold and metric, and
    /// read no more entries than it read postings.
    #[test]
    fn cluster_scans_find_the_per_posting_candidates() {
        let (ix, int, origins) = rule_dense();
        let span = Span::new(0, 1);
        let mut cases = 0;
        for t in (0..int.len() as u32).map(TokenId) {
            for metric in Metric::ALL {
                for tau in TAUS {
                    for s_len in 1..=9 {
                        let (want, postings) = scan_per_posting(&ix, origins, t, s_len, tau, metric);
                        let what = format!("{t:?} |s|={s_len} tau={tau} {metric}");
                        let (mut flat, mut clustered) = (CandidateSink::default(), CandidateSink::default());
                        let (mut st_flat, mut st_clustered, mut st_origins) =
                            (ExtractStats::default(), ExtractStats::default(), ExtractStats::default());
                        scan_flat(&ix, t, span, s_len, tau, metric, &mut flat, &mut st_flat);
                        scan_clustered(&ix, t, span, s_len, tau, metric, &mut clustered, &mut st_clustered);
                        let (mut arena, mut seen) = (vec![EntityId(99)], HashSet::new());
                        let (from, to) = scan_token_origins_into(&ix, t, s_len, tau, metric, &mut st_origins, &mut arena, &mut seen);
                        assert_eq!((from, to as usize), (1, arena.len()), "{what}");
                        let origins_of = |pairs: &[(Span, EntityId)]| pairs.iter().map(|&(_, e)| e).collect::<BTreeSet<_>>();
                        assert_eq!(origins_of(&flat.pairs), want, "scan_flat, {what}");
                        assert_eq!(origins_of(&clustered.pairs), want, "scan_clustered, {what}");
                        assert_eq!(arena[1..].iter().copied().collect::<BTreeSet<_>>(), want, "scan_token_origins_into, {what}");
                        assert_eq!(arena.len() - 1, want.len(), "scan_token_origins_into repeats an origin, {what}");
                        assert!(st_flat.accessed_entries <= postings, "{what}");
                        assert!(st_clustered.accessed_entries <= st_flat.accessed_entries, "{what}");
                        assert_eq!(st_origins.accessed_entries, st_clustered.accessed_entries, "{what}");
                        cases += usize::from(!want.is_empty());
                    }
                }
            }
        }
        assert!(cases > 500, "the fixture must produce candidates: {cases} non-empty cases");
    }

    /// The same at document level, Lazy included: every strategy's candidate
    /// set is the one the naive enumeration produces with the per-posting
    /// scan in place of the cluster scans.
    #[test]
    fn every_strategy_finds_the_per_posting_candidates() {
        let (ix, mut int, origins) = rule_dense();
        let doc = Document::parse(
            "alumni of purdue university united states ran the new york city marathon usa near the uni of queensland australia \
             booth with uw madison wisconsin colleagues on database systems and university data mining in new york",
            &Tokenizer::default(),
            &mut int,
        );
        let order = ix.order();
        let set_bounds = (ix.min_set_len(), ix.max_set_len());
        let mut nonempty = 0;
        for metric in Metric::ALL {
            for tau in TAUS {
                let mut want: BTreeSet<(u32, u32, EntityId)> = BTreeSet::new();
                let bounds = metric_window_bounds(set_bounds.0, set_bounds.1, tau, metric).expect("non-empty index");
                for p in 0..doc.len() {
                    for l in bounds.min..=bounds.max.min(doc.len() - p) {
                        let span = Span::new(p, l);
                        let mut keys: Vec<u32> = doc.slice(span).iter().map(|&t| order.key(t)).collect();
                        keys.sort_unstable();
                        keys.dedup();
                        for &key in &keys[..metric.prefix_len(keys.len(), tau)] {
                            if key & aeetes_index::VALID_BIT != 0 {
                                let (found, _) = scan_per_posting(&ix, origins, order.token_of(key), keys.len(), tau, metric);
                                want.extend(found.into_iter().map(|e| (span.start, span.len, e)));
                            }
                        }
                    }
                }
                nonempty += usize::from(!want.is_empty());
                for strategy in Strategy::ALL {
                    let mut seg = SegmentScratch::default();
                    let mut stats = ExtractStats::default();
                    strategy::generate(&ix, &doc, tau, metric, strategy, set_bounds, &mut seg, &mut stats, &mut Budget::unlimited());
                    let got: BTreeSet<(u32, u32, EntityId)> = seg.sink.pairs.iter().map(|&(sp, e)| (sp.start, sp.len, e)).collect();
                    assert_eq!(got.len(), seg.sink.pairs.len(), "{strategy} {metric} tau={tau}: the sink holds a pair twice");
                    assert_eq!(got, want, "{strategy} {metric} tau={tau}");
                }
            }
        }
        assert_eq!(nonempty, Metric::ALL.len() * TAUS.len(), "every configuration must have candidates to compare");
    }

    #[test]
    fn sink_dedups() {
        let mut s = CandidateSink::default();
        let sp = Span::new(0, 2);
        assert!(s.push(sp, EntityId(1)));
        assert!(!s.push(sp, EntityId(1)));
        assert!(s.push(sp, EntityId(2)));
        assert!(s.push(Span::new(1, 2), EntityId(1)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn flat_scan_accesses_every_entry() {
        let (ix, mut int) = index_of(&["a b", "a c d", "a e f g h i j k"]);
        let a = int.intern("a");
        let b = int.intern("b");
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        // "a" is the most frequent token, so it sits at the END of every
        // ordered entity — the position filter rejects all its entries,
        // but the flat scan still touches every one of them.
        scan_flat(&ix, a, Span::new(0, 2), 2, 0.9, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!(stats.accessed_entries, 3, "one entry per entity containing 'a'");
        assert_eq!(sink.len(), 0, "'a' is outside every entity prefix");
        // The rare token "b" IS the prefix of "a b" → candidate found.
        scan_flat(&ix, b, Span::new(0, 2), 2, 0.9, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn clustered_scan_skips_length_groups() {
        let (ix, mut int) = index_of(&["a b", "a c d", "a e f g h i j k"]);
        let a = int.intern("a");
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        // s_len=2, τ=0.9 → admissible entity lengths [1, 3]: the len-2 and
        // len-3 groups are touched (1 entry each), the len-8 group is
        // batch-skipped without access.
        scan_clustered(&ix, a, Span::new(0, 2), 2, 0.9, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!(stats.accessed_entries, 2, "len-8 group batch-skipped");
        assert_eq!(sink.len(), 0, "'a' is outside every entity prefix");
    }

    /// An origin is one entry however many of its variants hold the token —
    /// the paper's origin-level batch skip, built into the index — and an
    /// origin a second prefix token finds again is tested, not looked up
    /// first: the sink keeps it once.
    #[test]
    fn clustered_scan_reads_one_entry_per_origin_and_leaves_dedup_to_the_sink() {
        // "a b", "a c", "a d": three sets of length 2, all holding "a".
        let (ix, mut int) = index_with(&["a b"], &[("b", "c"), ("b", "d")]);
        let a = int.intern("a");
        let b = int.intern("b");
        let span = Span::new(0, 2);
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        scan_clustered(&ix, a, span, 2, 0.5, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!((stats.accessed_entries, sink.len()), (1, 1), "three variants, one entry");
        scan_clustered(&ix, b, span, 2, 0.5, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!((stats.accessed_entries, sink.len()), (2, 1), "found again under 'b', kept once");
    }

    #[test]
    fn unknown_token_scans_nothing() {
        let (ix, mut int) = index_of(&["a b"]);
        let z = int.intern("zzz");
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        scan_flat(&ix, z, Span::new(0, 1), 1, 0.8, Metric::Jaccard, &mut sink, &mut stats);
        scan_clustered(&ix, z, Span::new(0, 1), 1, 0.8, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!(stats.accessed_entries, 0);
        assert_eq!(sink.len(), 0);
    }
}
