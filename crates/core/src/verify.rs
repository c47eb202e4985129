//! Exact JaccAR verification of candidate pairs (paper Algorithm 1, lines
//! 6–9).

use crate::limits::Budget;
use crate::matches::Match;
use crate::segment::Segment;
use crate::stats::ExtractStats;
use aeetes_index::{Keys, Pool};
use aeetes_rules::DerivedId;
use aeetes_sim::Metric;
use aeetes_text::{Document, EntityId, Span};

/// The one merge a candidate costs: marks in `hits` which keys of the
/// origin's `pool` the window holds. `hits` becomes two masks over the pool,
/// back to back — bit `b` of the first ⇔ pool key `b` is among `s_keys`, of
/// the second ⇔ it is among the window's τ-prefix `s_keys[..s_prefix]`.
/// Returns the number of pool keys in the window, or `None` as soon as fewer
/// than `required` are reachable (`hits` is then unfinished). Written once
/// for both pool widths: a 16-bit pool is decoded into `keys` first, each
/// rank as the key `VALID_BIT | rank` it stands for, and the window meets
/// that.
fn mark_window<K: Keys>(pool: K, keys: &mut Vec<u32>, s_keys: &[u32], s_prefix: usize, required: usize, hits: &mut Vec<u32>) -> Option<usize> {
    let pool = pool.as_keys(keys);
    let words = pool.len().div_ceil(32);
    hits.clear();
    hits.resize(2 * words, 0);
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < pool.len() && j < s_keys.len() {
        if n + (pool.len() - i).min(s_keys.len() - j) < required {
            return None;
        }
        match pool[i].cmp(&s_keys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hits[i / 32] |= 1 << (i % 32);
                if j < s_prefix {
                    hits[words + i / 32] |= 1 << (i % 32);
                }
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (n >= required).then_some(n)
}

/// Per-variant prefix filter (Lemma 3.1) on masks: whether the variant `v`
/// holds, among its first `v_prefix` keys, a key of the window's τ-prefix
/// `in_prefix`. A key's position in the variant's set is the number of the
/// variant's keys below it, so only the lowest shared key needs its rank
/// taken.
#[inline]
fn prefixes_share_a_key(v: &[u32], in_prefix: &[u32], v_prefix: usize) -> bool {
    let mut below = 0;
    for (&v, &p) in v.iter().zip(in_prefix) {
        let shared = v & p;
        if shared != 0 {
            let under = (1u32 << shared.trailing_zeros()) - 1;
            return below + ((v & under).count_ones() as usize) < v_prefix;
        }
        below += v.count_ones() as usize;
    }
    false
}

/// Verifies each candidate pair into `out` (cleared first): the matches
/// with `JaccAR ≥ τ` (or weighted JaccAR when `weighted` is set), sorted by
/// `(span, entity)` because `pairs` is sorted in place first. The budget is
/// consulted between candidates: an exhausted deadline or match cap stops
/// verification with the (exact, verified) matches found so far. `s_keys`
/// is span-local and `keys` and `hits` candidate-local scratch (`hits` holds
/// the two marks of [`mark_window`] and the mask of the variant in hand);
/// all four buffers retain capacity across calls.
///
/// `JaccAR` is a maximum over the origin's variants, and all of them are
/// subsets of one key pool, so a candidate costs one merge of that pool
/// against the window ([`mark_window`]) and each variant a few popcounts:
/// its overlap with the window is `|v & hits|`. No variant shares more keys
/// with the window than the pool does, and every metric's required overlap
/// only grows with the variant's length, so a pool that misses the overlap
/// the shortest admissible length requires settles the candidate before any
/// variant is looked at.
///
/// An origin's block and weights are read from the tier of `segment` that
/// owns it, and `best_variant` is an id of that tier.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidates(
    segment: Segment<'_>,
    doc: &Document,
    tau: f64,
    metric: Metric,
    pairs: &mut [(Span, EntityId)],
    stats: &mut ExtractStats,
    weighted: bool,
    budget: &mut Budget,
    s_keys: &mut Vec<u32>,
    keys: &mut Vec<u32>,
    hits: &mut Vec<u32>,
    out: &mut Vec<Match>,
) {
    out.clear();
    // Group by span so the substring key set — and the length bounds that
    // depend only on it — are built once per span.
    pairs.sort_unstable_by_key(|(sp, e)| (sp.start, sp.len, e.0));
    let order = segment.order();
    let mut s_prefix = 0usize;
    let mut lo = 0usize;
    let mut hi = 0usize;
    let mut origin_bound = 0usize;
    let mut cur: Option<Span> = None;
    for &(span, e) in pairs.iter() {
        if !budget.keep_verifying(out.len()) {
            break;
        }
        if cur != Some(span) {
            s_keys.clear();
            s_keys.extend(doc.slice(span).iter().map(|&t| order.key(t)));
            s_keys.sort_unstable();
            s_keys.dedup();
            s_prefix = metric.prefix_len(s_keys.len(), tau);
            (lo, hi) = metric.length_bounds(s_keys.len(), tau, usize::MAX);
            origin_bound = metric.required_overlap(lo, s_keys.len(), tau);
            cur = Some(span);
        }
        stats.candidates += 1;
        let (index, dd) = segment.owner(e);
        let block = index.block(e);
        let in_window = match block.pool {
            Pool::U16(pool) => mark_window(pool, keys, s_keys, s_prefix, origin_bound, hits),
            Pool::U32(pool) => mark_window(pool, keys, s_keys, s_prefix, origin_bound, hits),
        };
        if in_window.is_none() {
            continue;
        }
        // Behind the two marks, room for one variant's mask, read out of the
        // block slot by slot.
        let words = block.words();
        hits.resize(3 * words, 0);
        let (marks, v) = hits.split_at_mut(2 * words);
        let (in_window, in_prefix) = marks.split_at(words);
        let mut best_score = 0.0f64;
        let mut best_variant: Option<DerivedId> = None;
        // Slots — the origin's variant ids — ascend by set length:
        // binary-search to the first admitted length, stop at the first
        // beyond it (§8 future-work (i)).
        for slot in block.first_slot_at_least(lo)..block.ids.len() {
            block.mask_into(slot, v);
            let len = v.iter().map(|w| w.count_ones() as usize).sum();
            if len > hi {
                break;
            }
            // A variant similar to the substring must share a token inside
            // both τ-prefixes.
            if !prefixes_share_a_key(v, in_prefix, metric.prefix_len(len, tau)) {
                continue;
            }
            stats.verifications += 1;
            // Only variants that can reach τ matter for the output.
            let inter: usize = v.iter().zip(in_window).map(|(v, w)| (v & w).count_ones() as usize).sum();
            if inter < metric.required_overlap(len, s_keys.len(), tau) {
                continue;
            }
            let mut score = metric.score(len, s_keys.len(), inter);
            if weighted {
                score *= dd.weight_of(block.id(slot));
            }
            if score > best_score {
                best_score = score;
                best_variant = Some(block.id(slot));
                if score >= 1.0 {
                    break;
                }
            }
        }
        if best_score >= tau {
            if let Some(best_variant) = best_variant {
                stats.matches += 1;
                out.push(Match { entity: e, span, score: best_score, best_variant });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_index::ClusteredIndex;
    use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet};
    use aeetes_text::{Dictionary, Interner, TokenId, Tokenizer};

    struct Fix {
        int: Interner,
        tok: Tokenizer,
        dict: Dictionary,
        rules: RuleSet,
    }

    impl Fix {
        fn new() -> Self {
            Self {
                int: Interner::new(),
                tok: Tokenizer::default(),
                dict: Dictionary::new(),
                rules: RuleSet::new(),
            }
        }
        fn built(&self) -> (DerivedDictionary, ClusteredIndex) {
            let dd = DerivedDictionary::build(&self.dict, &self.rules, &DeriveConfig::default());
            let ix = ClusteredIndex::build(&dd, &self.int);
            (dd, ix)
        }
    }

    /// Owned-result wrapper over the buffer-reusing signature.
    #[allow(clippy::too_many_arguments)]
    fn run_verify(
        index: &ClusteredIndex,
        dd: &DerivedDictionary,
        doc: &Document,
        tau: f64,
        metric: Metric,
        mut pairs: Vec<(Span, EntityId)>,
        stats: &mut ExtractStats,
        weighted: bool,
        budget: &mut Budget,
    ) -> Vec<Match> {
        let (mut s_keys, mut keys, mut hits, mut out) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        verify_candidates(
            Segment::new(index, dd),
            doc,
            tau,
            metric,
            &mut pairs,
            stats,
            weighted,
            budget,
            &mut s_keys,
            &mut keys,
            &mut hits,
            &mut out,
        );
        out
    }

    // ---- the retired verifier: one sorted merge per admitted variant ----

    /// Intersection size of two sorted distinct key slices, aborting as
    /// soon as the remaining elements cannot reach `required` overlaps.
    /// Returns `None` on abort (the overlap is `< required`).
    fn intersect_keys_at_least(a: &[u32], b: &[u32], required: usize) -> Option<usize> {
        let mut i = 0;
        let mut j = 0;
        let mut n = 0;
        while i < a.len() && j < b.len() {
            if n + (a.len() - i).min(b.len() - j) < required {
                return None;
            }
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (n >= required).then_some(n)
    }

    /// Whether two short sorted slices share an element (prefix-filter check).
    fn prefixes_overlap(a: &[u32], b: &[u32]) -> bool {
        let mut i = 0;
        let mut j = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// What the per-variant verifier did with one candidate.
    struct PerVariant {
        matched: Option<Match>,
        /// Variant overlaps it computed.
        verifications: u64,
        /// Whether the origin bound settles the candidate: the keys of all
        /// the origin's variants together share too few with the window.
        pool_rejects: bool,
    }

    /// The verifier this module had until the sets became masks, kept as the
    /// oracle: every variant's own sorted key set — one sort and dedup of its
    /// tokens, nothing read from the index's blocks — a separate merge of the
    /// window against each variant the length and prefix filters admit.
    fn verify_per_variant(
        order: &aeetes_index::GlobalOrder,
        dd: &DerivedDictionary,
        doc: &Document,
        tau: f64,
        metric: Metric,
        pairs: &[(Span, EntityId)],
        weighted: bool,
    ) -> Vec<PerVariant> {
        let sets: Vec<Vec<u32>> = dd
            .iter()
            .map(|(_, d)| {
                let mut keys: Vec<u32> = d.tokens.iter().map(|&t| order.key(t)).collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            })
            .collect();
        // Per origin: its variants by ascending set length (stable), and the
        // union of their sets.
        let by_origin: Vec<(Vec<DerivedId>, Vec<u32>)> = (0..dd.origins() as u32)
            .map(|e| {
                let mut variants: Vec<DerivedId> = dd.variant_range(EntityId(e)).map(DerivedId).collect();
                variants.sort_by_key(|id| sets[id.idx()].len());
                let mut pool: Vec<u32> = variants.iter().flat_map(|id| sets[id.idx()].iter().copied()).collect();
                pool.sort_unstable();
                pool.dedup();
                (variants, pool)
            })
            .collect();
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable_by_key(|(sp, e)| (sp.start, sp.len, e.0));
        let mut out = Vec::new();
        for (span, e) in pairs {
            let mut s_keys: Vec<u32> = doc.slice(span).iter().map(|&t| order.key(t)).collect();
            s_keys.sort_unstable();
            s_keys.dedup();
            let s_prefix = metric.prefix_len(s_keys.len(), tau);
            let (lo, hi) = metric.length_bounds(s_keys.len(), tau, usize::MAX);
            let (variants, pool) = &by_origin[e.idx()];
            let pool_rejects = s_keys.iter().filter(|k| pool.binary_search(k).is_ok()).count() < metric.required_overlap(lo, s_keys.len(), tau);
            let mut verifications = 0;
            let mut best_score = 0.0f64;
            let mut best_variant: Option<DerivedId> = None;
            let start = variants.partition_point(|&id| sets[id.idx()].len() < lo);
            for &id in &variants[start..] {
                let set = &sets[id.idx()];
                if set.len() > hi {
                    break;
                }
                let v_prefix = metric.prefix_len(set.len(), tau);
                if !prefixes_overlap(&set[..v_prefix], &s_keys[..s_prefix]) {
                    continue;
                }
                verifications += 1;
                let required = metric.required_overlap(set.len(), s_keys.len(), tau);
                let Some(inter) = intersect_keys_at_least(set, &s_keys, required) else {
                    continue;
                };
                let mut score = metric.score(set.len(), s_keys.len(), inter);
                if weighted {
                    score *= dd.weight_of(id);
                }
                if score > best_score {
                    best_score = score;
                    best_variant = Some(id);
                    if score >= 1.0 {
                        break;
                    }
                }
            }
            let matched = best_variant
                .filter(|_| best_score >= tau)
                .map(|best_variant| Match { entity: e, span, score: best_score, best_variant });
            out.push(PerVariant { matched, verifications, pool_rejects });
        }
        out
    }

    /// The masked verifier against the per-variant one on every `(span,
    /// entity)` pair of `doc` up to `max_len` tokens: the same matches to the
    /// score bit and the best variant, and of the variant overlaps the old
    /// one computed exactly those of the candidates the origin bound does not
    /// settle.
    fn assert_masked_equals_per_variant(
        ix: &ClusteredIndex,
        dd: &DerivedDictionary,
        doc: &Document,
        max_len: usize,
        tau: f64,
        metric: Metric,
        weighted: bool,
    ) -> Result<(), String> {
        let pairs: Vec<(Span, EntityId)> = (0..doc.len())
            .flat_map(|p| (1..=max_len.min(doc.len() - p)).map(move |l| Span::new(p, l)))
            .flat_map(|span| (0..dd.origins() as u32).map(move |e| (span, EntityId(e))))
            .collect();
        let old = verify_per_variant(ix.order(), dd, doc, tau, metric, &pairs, weighted);
        let mut stats = ExtractStats::default();
        let new = run_verify(ix, dd, doc, tau, metric, pairs.clone(), &mut stats, weighted, &mut Budget::unlimited());
        let what = format!("{metric} tau={tau} weighted={weighted}");
        let old_matches: Vec<&Match> = old.iter().filter_map(|c| c.matched.as_ref()).collect();
        if new.len() != old_matches.len() {
            return Err(format!("{what}: {} matches, the per-variant verifier finds {}", new.len(), old_matches.len()));
        }
        for (n, o) in new.iter().zip(old_matches) {
            if (n.entity, n.span, n.score.to_bits(), n.best_variant) != (o.entity, o.span, o.score.to_bits(), o.best_variant) {
                return Err(format!("{what}: {n:?} vs per-variant {o:?}"));
            }
        }
        let old_total: u64 = old.iter().map(|c| c.verifications).sum();
        let unsettled: u64 = old.iter().filter(|c| !c.pool_rejects).map(|c| c.verifications).sum();
        if (stats.candidates, stats.matches) != (pairs.len() as u64, new.len() as u64) || stats.verifications != unsettled || unsettled > old_total {
            return Err(format!(
                "{what}: counted {stats:?}; {} pairs, per-variant overlaps {old_total}, {unsettled} of them past the origin bound",
                pairs.len()
            ));
        }
        if let Some(c) = old.iter().find(|c| c.pool_rejects && c.matched.is_some()) {
            return Err(format!("{what}: the origin bound rejects the match {:?}", c.matched));
        }
        Ok(())
    }

    /// Pools of exactly 31 … 65 keys — one bit either side of both word
    /// boundaries — and of 20 and 144 (usjob's widest), and an origin whose
    /// eight variants span five set lengths. A block stores its masks `P`
    /// bits each, run together: at any pool size but 32 and 64 some slots
    /// start inside a word and straddle two, so the masks verification reads
    /// are put together across word boundaries. The most frequent keys (the
    /// base tokens every variant keeps) take the pool's highest bits, the
    /// rewritten tails its lowest, so windows over the variants' own text
    /// touch both ends of every mask word.
    #[test]
    fn masks_agree_with_per_variant_merges_at_word_boundaries() {
        for pool in [20usize, 31, 32, 33, 63, 64, 65, 144] {
            let mut int = Interner::new();
            let ids: Vec<TokenId> = (0..pool).map(|i| int.intern(&format!("w{i:02}"))).collect();
            let mut dict = Dictionary::new();
            let e = dict.push_tokens("base".into(), ids[..10].to_vec());
            // Three rules on the first three base tokens share out the rest
            // of the pool as their right-hand sides.
            let tail = &ids[10..];
            let cuts = [0, tail.len() / 5, tail.len() / 2, tail.len()];
            let mut rules = RuleSet::new();
            for r in 0..3 {
                rules.push_tokens(&[ids[r]], &tail[cuts[r]..cuts[r + 1]], [1.0, 0.9, 0.5][r]).unwrap();
            }
            let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
            let ix = ClusteredIndex::build(&dd, &int);
            let block = ix.block(e);
            assert_eq!((block.pool.len(), block.ids.len()), (pool, 8));
            let mut lens: Vec<usize> = (0..8).map(|slot| block.set_len(slot)).collect();
            lens.dedup();
            assert!(lens.len() >= 4, "pool {pool}: set lengths {lens:?}");
            // The text of the fully rewritten variant and of the untouched
            // one, then the pool back to front.
            let text = [7, 0].into_iter().flat_map(|v| dd.derived(DerivedId(v)).tokens.iter().copied());
            let doc = Document::from_tokens(text.chain(ids.iter().rev().copied()).collect());
            for (metric, tau, weighted) in [
                (Metric::Jaccard, 0.5, false),
                (Metric::Jaccard, 0.9, true),
                (Metric::Dice, 0.7, false),
                (Metric::Cosine, 0.8, true),
                (Metric::Overlap, 0.6, true),
                (Metric::Overlap, 1.0, false),
            ] {
                assert_masked_equals_per_variant(&ix, &dd, &doc, 36, tau, metric, weighted).unwrap_or_else(|e| panic!("pool {pool}: {e}"));
            }
        }
    }

    proptest::proptest! {
        /// Rule-dense random dictionaries: two entities of 8–12 tokens over
        /// a shared alphabet, 6–9 rules on each with right-hand sides of 2–8
        /// (the first entity's: 4–16) mostly fresh tokens — pools from under
        /// 32 keys to past 64, so slots at every bit offset of a word, up to
        /// 256 variants of many lengths, weights of 1.0, 0.9 and 0.5 — and a
        /// document of variant texts with tokens dropped and noise put in.
        #[test]
        fn masked_verifier_equals_per_variant_verifier(
            entities in proptest::collection::vec(proptest::collection::vec(0u8..24, 8..=12), 2..=2),
            rules in proptest::collection::vec((0usize..12, 1usize..=2, proptest::collection::vec(0u8..200, 2..=8), 0usize..3), 12..=18),
            mentions in proptest::collection::vec((0usize..2, 0usize..256, 0u32..u32::MAX, proptest::collection::vec(0u8..200, 0..3)), 1..=3),
            metric in 0usize..4,
            tau in 0usize..6,
        ) {
            let mut int = Interner::new();
            let ids: Vec<TokenId> = (0..200).map(|i| int.intern(&format!("w{i:03}"))).collect();
            let tokens = |v: &[u8]| v.iter().map(|&i| ids[i as usize]).collect::<Vec<_>>();
            let mut dict = Dictionary::new();
            for e in &entities {
                dict.push_tokens(format!("{e:?}"), tokens(e));
            }
            let mut rs = RuleSet::new();
            // 6–9 rules per entity, each rewriting one or two of its tokens.
            // The first entity's right-hand sides are twice as long, so its
            // pool is the one that passes 64 keys.
            for (r, (at, len, rhs, weight)) in rules.iter().enumerate() {
                let e = &entities[r % 2];
                let lhs: Vec<u8> = e.iter().cycle().skip(at % e.len()).take(*len).copied().collect();
                let longer = rhs.iter().map(|&t| ((u16::from(t) + 100) % 200) as u8).filter(|_| r % 2 == 0);
                let rhs: Vec<u8> = rhs.iter().copied().chain(longer).collect();
                let _ = rs.push_tokens(&tokens(&lhs), &tokens(&rhs), [1.0, 0.9, 0.5][*weight]);
            }
            let dd = DerivedDictionary::build(&dict, &rs, &DeriveConfig::default());
            let ix = ClusteredIndex::build(&dd, &int);
            let mut text: Vec<TokenId> = Vec::new();
            for (e, variant, keep, noise) in &mentions {
                let range = dd.variant_range(EntityId(*e as u32));
                let of = dd.derived(DerivedId(range.start + (*variant as u32) % (range.end - range.start))).tokens;
                text.extend(of.iter().enumerate().filter(|(i, _)| keep >> (i % 32) & 7 != 0).map(|(_, &t)| t));
                text.extend(tokens(noise));
            }
            let doc = Document::from_tokens(text);
            let (metric, tau) = (Metric::ALL[metric], [0.5, 0.6, 0.7, 0.8, 0.9, 1.0][tau]);
            for weighted in [false, true] {
                if let Err(e) = assert_masked_equals_per_variant(&ix, &dd, &doc, 28, tau, metric, weighted) {
                    proptest::prop_assert!(false, "{}", e);
                }
            }
        }
    }

    #[test]
    fn mark_window_marks_pool_keys_and_gives_up_early() {
        let (mut keys, mut hits) = (Vec::new(), Vec::new());
        let pool: &[u32] = &[1, 3, 5];
        // Pool keys 3 and 5 (bits 1, 2) are in the window, 3 in its 2-key prefix.
        assert_eq!(mark_window(pool, &mut keys, &[2, 3, 5, 7], 2, 1, &mut hits), Some(2));
        assert_eq!(hits, [0b110, 0b010]);
        assert_eq!(mark_window(pool, &mut keys, &[2, 3, 5, 7], 2, 2, &mut hits), Some(2));
        assert_eq!(mark_window(pool, &mut keys, &[2, 3, 5, 7], 2, 3, &mut hits), None, "only 2 overlaps exist");
        assert_eq!(mark_window(&[][..], &mut keys, &[1], 1, 1, &mut hits), None);
        assert!(hits.is_empty(), "an empty pool takes no mask words");
        assert_eq!(mark_window(&[1, 9][..], &mut keys, &[2, 8], 2, 1, &mut hits), None, "aborts with zero overlap");
        // 40 keys: the window's 33rd key sets bit 0 of the second word.
        let pool: Vec<u32> = (0..40).collect();
        assert_eq!(mark_window(&pool[..], &mut keys, &[31, 32, 39], 1, 1, &mut hits), Some(3));
        assert_eq!(hits, [1 << 31, 1 | 1 << 7, 1 << 31, 0]);
    }

    /// A 16-bit index's pools, two ranks to a word, mark what the same pools
    /// of `VALID_BIT | rank` keys mark — and an invalid window key, below
    /// every valid one, meets no rank.
    #[test]
    fn packed_pools_mark_what_their_keys_mark() {
        let mut f = Fix::new();
        let words: Vec<String> = (0..37).map(|i| format!("w{i:02}")).collect();
        let e = f.dict.push(&words.join(" "), &f.tok, &mut f.int);
        let (_, ix) = f.built();
        let block = ix.block(e);
        let Pool::U16(packed) = block.pool else { panic!("a 16-bit index") };
        let keys: Vec<u32> = block.pool.iter().collect();
        let (mut narrow, mut wide) = (Vec::new(), Vec::new());
        let windows: [Vec<u32>; 3] = [
            vec![3, keys[0], keys[31], keys[32], keys[36]],
            keys.iter().step_by(3).copied().collect(),
            keys.clone(),
        ];
        for window in &windows {
            for (prefix, required) in [(1, 1), (2, 3), (window.len(), window.len() - 1)] {
                let got = mark_window(packed, &mut Vec::new(), window, prefix, required, &mut narrow);
                assert_eq!(got, mark_window(&keys[..], &mut Vec::new(), window, prefix, required, &mut wide));
                if got.is_some() {
                    assert_eq!(narrow, wide);
                }
            }
        }
    }

    #[test]
    fn required_overlap_matches_formula() {
        // τ=0.8, |a|=|b|=5 → o ≥ ⌈0.8·10/1.8⌉ = ⌈4.44⌉ = 5.
        assert_eq!(Metric::Jaccard.required_overlap(5, 5, 0.8), 5);
        // τ=0.7, 3+4 → ⌈0.7·7/1.7⌉ = ⌈2.88⌉ = 3.
        assert_eq!(Metric::Jaccard.required_overlap(3, 4, 0.7), 3);
        assert_eq!(Metric::Jaccard.required_overlap(1, 1, 1.0), 1);
    }

    /// The origin bound rests on this: a longer variant never needs fewer
    /// shared keys, whatever the metric.
    #[test]
    fn required_overlap_never_falls_as_the_variant_grows() {
        for metric in Metric::ALL {
            for tau in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
                for s in 1..=40 {
                    let required: Vec<usize> = (1..=80).map(|a| metric.required_overlap(a, s, tau)).collect();
                    assert!(required.windows(2).all(|w| w[0] <= w[1]), "{metric} tau={tau} |s|={s}: {required:?}");
                }
            }
        }
    }

    #[test]
    fn prefixes_share_a_key_ranks_the_lowest_shared_key() {
        // Variant keys at bits 1, 4, 31 and 33; the window's prefix holds 31 and 33.
        let v = [1 << 1 | 1 << 4 | 1 << 31, 1 << 1];
        let in_prefix = [1 << 31, 1 << 1];
        assert!(!prefixes_share_a_key(&v, &in_prefix, 2), "bit 31 is the variant's third key");
        assert!(prefixes_share_a_key(&v, &in_prefix, 3));
        assert!(!prefixes_share_a_key(&v, &[0, 1 << 1], 3), "bit 33 is its fourth");
        assert!(prefixes_share_a_key(&v, &[0, 1 << 1], 4));
        assert!(!prefixes_share_a_key(&v, &[1 << 2, 0], 4), "no shared key at all");
        assert!(!prefixes_share_a_key(&[], &[], 0));
    }

    #[test]
    fn verifies_true_match_and_rejects_false() {
        let mut f = Fix::new();
        let e = f.dict.push("uq au", &f.tok, &mut f.int);
        f.rules.push_str("uq", "university of queensland", &f.tok, &mut f.int).unwrap();
        let (dd, ix) = f.built();
        let doc = Document::parse("university of queensland au versus something else", &f.tok, &mut f.int);
        let good = (Span::new(0, 4), e);
        let bad = (Span::new(4, 3), e);
        let mut stats = ExtractStats::default();
        let out = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, vec![good, bad], &mut stats, false, &mut Budget::unlimited());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].span, Span::new(0, 4));
        assert_eq!(out[0].score, 1.0);
        assert_eq!(stats.candidates, 2);
        assert_eq!(stats.matches, 1);
    }

    #[test]
    fn weighted_verification_scales() {
        let mut f = Fix::new();
        let e = f.dict.push("nyc marathon", &f.tok, &mut f.int);
        f.rules.push_weighted_str("nyc", "new york city", 0.5, &f.tok, &mut f.int).unwrap();
        let (dd, ix) = f.built();
        let doc = Document::parse("new york city marathon", &f.tok, &mut f.int);
        let pair = vec![(Span::new(0, 4), e)];
        let mut stats = ExtractStats::default();
        let plain = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, pair.clone(), &mut stats, false, &mut Budget::unlimited());
        assert_eq!(plain.len(), 1);
        let weighted = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, pair.clone(), &mut stats, true, &mut Budget::unlimited());
        assert!(weighted.is_empty(), "0.5-weighted score falls below 0.9");
        let weighted_low = run_verify(&ix, &dd, &doc, 0.4, Metric::Jaccard, pair, &mut stats, true, &mut Budget::unlimited());
        assert_eq!(weighted_low.len(), 1);
        assert!((weighted_low[0].score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn results_sorted_by_span_then_entity() {
        let mut f = Fix::new();
        let a = f.dict.push("alpha beta", &f.tok, &mut f.int);
        let b = f.dict.push("beta gamma", &f.tok, &mut f.int);
        let (dd, ix) = f.built();
        let doc = Document::parse("alpha beta gamma", &f.tok, &mut f.int);
        let pairs = vec![(Span::new(1, 2), b), (Span::new(0, 2), a)];
        let mut stats = ExtractStats::default();
        let out = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, pairs, &mut stats, false, &mut Budget::unlimited());
        assert_eq!(out.len(), 2);
        assert!(out[0].sort_key() < out[1].sort_key());
    }

    #[test]
    fn length_filter_skips_impossible_variants() {
        let mut f = Fix::new();
        let e = f.dict.push("a b c d e f g h", &f.tok, &mut f.int);
        let (dd, ix) = f.built();
        let doc = Document::parse("a b", &f.tok, &mut f.int);
        let mut stats = ExtractStats::default();
        let out = run_verify(&ix, &dd, &doc, 0.9, Metric::Jaccard, vec![(Span::new(0, 2), e)], &mut stats, false, &mut Budget::unlimited());
        assert!(out.is_empty());
        assert_eq!(stats.verifications, 0, "variant skipped by length filter");
    }
}
