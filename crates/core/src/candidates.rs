//! Candidate collection and the posting-list scan (paper §3.2).
//!
//! An index entry is one `(token, set length, origin)` cluster, and a group
//! holds a token's clusters of one set length and one lowest position — the
//! lowest the token takes in each cluster's variants of that length
//! (`aeetes_index::LengthGroup::pos`) — so [`scan`] decides a whole group
//! with one compare against its prefix length, and `accessed_entries` counts
//! the clusters of every group of an admitted length, taken or passed over.
//! There is one scan: the strategies differ in when they
//! call it and where its origins go (Simple, Skip and top-k straight into
//! the [`CandidateSink`], Dynamic through a scan-local dedup into its cache
//! arena), not in how a list is read. Lazy reads each list once against many
//! windows at a time — a different loop over the groups, in
//! `strategy/lazy.rs`, around the same cluster kernel, [`admit`]. Over a
//! segment with a tail, [`scan_segment`] reads a token's base list and then
//! its tail list, in the same call.

use crate::segment::Segment;
use crate::stats::ExtractStats;
use aeetes_index::{ClusteredIndex, Ids, LengthGroup, StoredId};
use aeetes_sim::Metric;
use aeetes_text::{EntityId, Span, TokenId};
use std::collections::HashSet;

/// The group step of every scan: when `g`'s lowest position lies below
/// `plen` — the prefix length of its set length — hands `emit` the origin of
/// every cluster of `g`, else none. The index stores origins at one width, so
/// this branches on it once per group, onto one loop per width.
#[inline]
pub(crate) fn admit(g: LengthGroup<'_>, plen: usize, mut emit: impl FnMut(EntityId)) {
    #[inline]
    fn each<I: StoredId>(origins: &[I], emit: &mut impl FnMut(EntityId)) {
        for &origin in origins {
            emit(EntityId(origin.get()));
        }
    }
    if g.pos() >= plen {
        return;
    }
    match g.clusters() {
        Ids::U16(origins) => each(origins, &mut emit),
        Ids::U32(origins) => each(origins, &mut emit),
    }
}

/// Accumulates candidate `(substring, origin entity)` pairs, deduplicated.
#[derive(Debug, Default)]
pub(crate) struct CandidateSink {
    /// Unique candidate pairs in discovery order.
    pub pairs: Vec<(Span, EntityId)>,
    seen: HashSet<(u32, u32, u32)>,
}

impl CandidateSink {
    /// Records a candidate; returns `false` when it was already present.
    pub(crate) fn push(&mut self, span: Span, e: EntityId) -> bool {
        if self.seen.insert((span.start, span.len, e.0)) {
            self.pairs.push((span, e));
            true
        } else {
            false
        }
    }

    /// Number of unique candidates collected (used by tests and stats).
    pub(crate) fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Forgets all candidates, keeping the allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.pairs.clear();
        self.seen.clear();
    }
}

/// Scans the posting list of `t` for a window of `s_len` distinct tokens,
/// handing `emit` every origin that passes the length filter (its group's
/// length is admissible for `s_len`) and the prefix filter (its group's
/// lowest position lies in that length's τ-prefix). The outcome depends only
/// on `(t, s_len, tau, metric)`, never on where the window is; within one
/// length, origins come group by group, by ascending position.
///
/// `skip` is the clustered-index skip of §3.2: groups outside the length
/// filter are passed over in batch (binary search to the first, stop at the
/// last). Without it every entry of the list is accessed and filtered group
/// by group — `Simple`'s baseline. The paper's second skip, the rest of an
/// origin's postings once one made it a candidate, is the cluster itself: an
/// origin is one entry per length. `emit` can see an origin again — from a
/// second length, or under another token of the same window — and owns the
/// dedup: the test is one compare, cheaper than asking first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan(
    index: &ClusteredIndex,
    t: TokenId,
    s_len: usize,
    tau: f64,
    metric: Metric,
    skip: bool,
    stats: &mut ExtractStats,
    mut emit: impl FnMut(EntityId),
) {
    let Some(tp) = index.postings(t) else { return };
    let (lo, hi) = metric.length_bounds(s_len, tau, usize::MAX);
    let first = if skip { tp.first_group_at_least(lo) } else { 0 };
    for g in tp.groups_from(first) {
        let len = g.len();
        let admitted = lo <= len && len <= hi;
        if skip && !admitted {
            break; // lengths never fall along the groups: this and every later one is too long
        }
        stats.accessed_entries += g.origin_count() as u64;
        if admitted {
            admit(g, metric.prefix_len(len, tau), &mut emit);
        }
    }
}

/// [`scan`] over every tier of `segment`: the base list of `t`, its clusters
/// of superseded origins dropped at emit with one bit test (they are still
/// read, and counted in `accessed_entries`), then the tail's list of `t`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_segment(
    segment: Segment<'_>,
    t: TokenId,
    s_len: usize,
    tau: f64,
    metric: Metric,
    skip: bool,
    stats: &mut ExtractStats,
    mut emit: impl FnMut(EntityId),
) {
    let Some(tail) = segment.tail else {
        return scan(segment.index, t, s_len, tau, metric, skip, stats, emit);
    };
    scan(segment.index, t, s_len, tau, metric, skip, stats, |origin| {
        if !tail.supersedes(origin) {
            emit(origin);
        }
    });
    scan(tail.index, t, s_len, tau, metric, skip, stats, emit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::Budget;
    use crate::scratch::ExtractScratch;
    use crate::strategy::fixture::index_with;
    use crate::strategy::{self, Strategy};
    use aeetes_index::metric_window_bounds;
    use aeetes_text::{Document, Interner, Tokenizer};
    use std::collections::BTreeSet;

    /// `scan` straight into `sink` under one span, as Simple (`skip =
    /// false`), Skip and top-k call it.
    fn scan_into(ix: &ClusteredIndex, t: TokenId, s_len: usize, tau: f64, skip: bool, sink: &mut CandidateSink, stats: &mut ExtractStats) {
        scan(ix, t, s_len, tau, Metric::Jaccard, skip, stats, |origin| {
            sink.push(Span::new(0, 2), origin);
        });
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
    /// per variant decided: with and without the batch skip the scan finds
    /// the per-posting scan's origins for every token, window length,
    /// threshold and metric, and reads no more entries than it read postings.
    #[test]
    fn cluster_scans_find_the_per_posting_candidates() {
        let (ix, int, origins) = rule_dense();
        let mut cases = 0;
        for t in (0..int.len() as u32).map(TokenId) {
            for metric in Metric::ALL {
                for tau in TAUS {
                    for s_len in 1..=9 {
                        let (want, postings) = scan_per_posting(&ix, origins, t, s_len, tau, metric);
                        let what = format!("{t:?} |s|={s_len} tau={tau} {metric}");
                        let mut accessed = [0, 0];
                        for skip in [false, true] {
                            let (mut found, mut stats) = (BTreeSet::new(), ExtractStats::default());
                            scan(&ix, t, s_len, tau, metric, skip, &mut stats, |origin| {
                                found.insert(origin);
                            });
                            assert_eq!(found, want, "skip={skip}, {what}");
                            accessed[usize::from(skip)] = stats.accessed_entries;
                        }
                        assert!(accessed[0] <= postings, "{what}");
                        assert!(accessed[1] <= accessed[0], "{what}");
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
        let no_variants = aeetes_rules::VariantTable::default();
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
                    let mut seg = ExtractScratch::default();
                    let mut stats = ExtractStats::default();
                    let segment = Segment::new(&ix, &no_variants);
                    strategy::generate(segment, &doc, tau, metric, strategy, set_bounds, &mut seg, &mut stats, &mut Budget::unlimited());
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
        let (ix, mut int) = index_with(&["a b", "a c d", "a e f g h i j k"], &[]);
        let a = int.intern("a");
        let b = int.intern("b");
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        // "a" is the most frequent token, so it sits at the END of every
        // ordered entity — the position filter rejects all its entries,
        // but the flat scan still touches every one of them.
        scan_into(&ix, a, 2, 0.9, false, &mut sink, &mut stats);
        assert_eq!(stats.accessed_entries, 3, "one entry per entity containing 'a'");
        assert_eq!(sink.len(), 0, "'a' is outside every entity prefix");
        // The rare token "b" IS the prefix of "a b" → candidate found.
        scan_into(&ix, b, 2, 0.9, false, &mut sink, &mut stats);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn clustered_scan_skips_length_groups() {
        let (ix, mut int) = index_with(&["a b", "a c d", "a e f g h i j k"], &[]);
        let a = int.intern("a");
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        // s_len=2, τ=0.9 → admissible entity lengths [1, 3]: the len-2 and
        // len-3 groups are touched (1 entry each), the len-8 group is
        // batch-skipped without access.
        scan_into(&ix, a, 2, 0.9, true, &mut sink, &mut stats);
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
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        scan_into(&ix, a, 2, 0.5, true, &mut sink, &mut stats);
        assert_eq!((stats.accessed_entries, sink.len()), (1, 1), "three variants, one entry");
        scan_into(&ix, b, 2, 0.5, true, &mut sink, &mut stats);
        assert_eq!((stats.accessed_entries, sink.len()), (2, 1), "found again under 'b', kept once");
    }

    #[test]
    fn unknown_token_scans_nothing() {
        let (ix, mut int) = index_with(&["a b"], &[]);
        let z = int.intern("zzz");
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        scan_into(&ix, z, 1, 0.8, false, &mut sink, &mut stats);
        scan_into(&ix, z, 1, 0.8, true, &mut sink, &mut stats);
        assert_eq!(stats.accessed_entries, 0);
        assert_eq!(sink.len(), 0);
    }
}
