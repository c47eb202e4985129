//! Candidate collection and the two posting-list scan primitives.

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
    /// Whether `(span, e)` is already a candidate (drives the origin-group
    /// batch skip of §3.2).
    pub fn contains(&self, span: Span, e: EntityId) -> bool {
        self.seen.contains(&(span.start, span.len, e.0))
    }

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
        for og in g.origins() {
            for &pos in og.positions {
                stats.accessed_entries += 1;
                if in_range && (pos as usize) < plen {
                    sink.push(span, og.origin);
                }
            }
        }
    }
}

/// Scans the posting list of `t` with the clustered-index skips of §3.2:
/// length groups outside the length filter are skipped in batch (binary
/// search + early break) and origin groups whose origin is already a
/// candidate of this substring are skipped in batch.
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
        for og in g.origins() {
            if sink.contains(span, og.origin) {
                continue; // batch skip: L_e^l[t] skipped wholesale
            }
            for &pos in og.positions {
                stats.accessed_entries += 1;
                if (pos as usize) < plen {
                    sink.push(span, og.origin);
                    break; // rest of the origin group is now skippable
                }
            }
        }
    }
}

/// Scans the posting list of `t` like [`scan_clustered`], but appends the
/// candidate origins to `arena` and returns the appended `(start, end)`
/// range. Used by the `Dynamic` strategy, which caches one scan per
/// surviving prefix token across Window Migrate steps (the result depends
/// only on `(t, s_len, tau)`, not on the substring position). `seen` is
/// scan-local dedup scratch, cleared here; both buffers retain capacity
/// across scans.
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
        for og in g.origins() {
            // Origin already found under this token (in an earlier length
            // group): batch-skip its entries.
            if seen.contains(&og.origin) {
                continue;
            }
            for &pos in og.positions {
                stats.accessed_entries += 1;
                if (pos as usize) < plen {
                    seen.insert(og.origin);
                    arena.push(og.origin);
                    break;
                }
            }
        }
    }
    (from, arena.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet};
    use aeetes_text::{Dictionary, Interner, Tokenizer};

    fn index_of(entries: &[&str]) -> (ClusteredIndex, Interner) {
        let mut int = Interner::new();
        let tok = Tokenizer::default();
        let dict = Dictionary::from_strings(entries.iter().copied(), &tok, &mut int);
        let dd = DerivedDictionary::build(&dict, &RuleSet::new(), &DeriveConfig::default());
        (ClusteredIndex::build(&dd, &int), int)
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
        assert!(s.contains(sp, EntityId(1)));
        assert!(!s.contains(Span::new(5, 1), EntityId(1)));
    }

    #[test]
    fn flat_scan_accesses_every_entry() {
        let (ix, mut int) = index_of(&["a b", "a c d", "a e f g h i j k"]);
        let a = int.intern("a");
        let b = int.intern("b");
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        // "a" is the most frequent token, so it sits at the END of every
        // ordered entity — the position filter rejects all its postings,
        // but the flat scan still touches every one of them.
        scan_flat(&ix, a, Span::new(0, 2), 2, 0.9, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!(stats.accessed_entries, 3, "one posting per entity containing 'a'");
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

    #[test]
    fn clustered_scan_skips_known_origins() {
        let (ix, mut int) = index_of(&["a b"]);
        let a = int.intern("a");
        let b = int.intern("b");
        let span = Span::new(0, 2);
        let mut sink = CandidateSink::default();
        let mut stats = ExtractStats::default();
        scan_clustered(&ix, a, span, 2, 0.8, Metric::Jaccard, &mut sink, &mut stats);
        let after_first = stats.accessed_entries;
        assert_eq!(sink.len(), 1);
        // Second token of the same substring: origin already a candidate →
        // its group is skipped without touching entries.
        scan_clustered(&ix, b, span, 2, 0.8, Metric::Jaccard, &mut sink, &mut stats);
        assert_eq!(stats.accessed_entries, after_first);
    }

    #[test]
    fn flat_and_clustered_agree_on_candidates() {
        let (ix, mut int) = index_of(&["x y", "x z", "w x y z", "p q r"]);
        let x = int.intern("x");
        for s_len in 1..=5 {
            for tau in [0.7, 0.8, 0.9] {
                let mut s1 = CandidateSink::default();
                let mut s2 = CandidateSink::default();
                let mut st = ExtractStats::default();
                let span = Span::new(0, s_len);
                scan_flat(&ix, x, span, s_len, tau, Metric::Jaccard, &mut s1, &mut st);
                scan_clustered(&ix, x, span, s_len, tau, Metric::Jaccard, &mut s2, &mut st);
                let mut a = s1.pairs.clone();
                let mut b = s2.pairs.clone();
                a.sort_by_key(|(sp, e)| (sp.start, sp.len, e.0));
                b.sort_by_key(|(sp, e)| (sp.start, sp.len, e.0));
                assert_eq!(a, b, "s_len={s_len} tau={tau}");
            }
        }
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
