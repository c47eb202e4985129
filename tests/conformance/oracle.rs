//! The one brute-force oracle: Definition 2.2 over `D_cap(e)`. Every window
//! of every admissible length is scored against every variant of every
//! live origin that shares a token with it (an origin that shares none
//! scores 0 under every metric).

use aeetes::rules::{DerivedDictionary, DerivedId};
use aeetes::sim::sorted_set;
use aeetes::{Document, EntityId, Match, Metric, Span, TokenId};
use std::collections::HashMap;
use std::ops::RangeInclusive;

/// The window lengths an answer is defined over: the live variants' global
/// set-length range `[|e|⊥, |e|⊤]` under `metric`'s length bounds at `tau`,
/// with `⌈|e|⊤/τ⌉` capping the metrics that have no upper bound; `None` when
/// no live variant has a token. This is the window contract; it lives here
/// alone.
pub fn window_lengths(set_lens: impl Iterator<Item = usize>, tau: f64, metric: Metric) -> Option<RangeInclusive<usize>> {
    let (lo, hi) = set_lens.filter(|&l| l > 0).fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
    let cap = (hi as f64 / tau - 1e-9).ceil() as usize;
    (hi > 0).then(|| metric.length_bounds(lo, tau, cap).0..=metric.length_bounds(hi, tau, cap).1)
}

/// Every `(span, entity)` whose best variant scores at least `tau` — the
/// variant's weight times its score when `weighted` — sorted by
/// `(span, entity)`. `best_variant` is the first variant reaching the best
/// score.
pub fn answer(dd: &DerivedDictionary, doc: &Document, tau: f64, metric: Metric, weighted: bool) -> Vec<Match> {
    let sets: Vec<Vec<TokenId>> = dd.iter().map(|(_, v)| sorted_set(v.tokens)).collect();
    let mut holders: HashMap<TokenId, Vec<EntityId>> = HashMap::new();
    for (id, v) in dd.iter() {
        for t in &sets[id.idx()] {
            let list = holders.entry(*t).or_default();
            if list.last() != Some(&v.origin) {
                list.push(v.origin);
            }
        }
    }
    let Some(lengths) = window_lengths(sets.iter().map(Vec::len), tau, metric) else {
        return Vec::new();
    };
    let (tokens, mut out) = (doc.tokens(), Vec::new());
    for start in 0..tokens.len() {
        for len in lengths.clone() {
            let Some(window) = tokens.get(start..start + len) else { break };
            let s = sorted_set(window);
            let mut origins: Vec<EntityId> = s.iter().filter_map(|t| holders.get(t)).flatten().copied().collect();
            origins.sort_unstable();
            origins.dedup();
            for e in origins {
                let mut best = (0.0, None);
                for id in dd.variant_range(e).map(DerivedId) {
                    let v = &sets[id.idx()];
                    let shared = v.iter().filter(|t| s.binary_search(t).is_ok()).count();
                    let mut score = metric.score(v.len(), s.len(), shared);
                    if weighted {
                        score *= dd.derived(id).weight;
                    }
                    if score > best.0 {
                        best = (score, Some(id));
                    }
                }
                if let (score, Some(best_variant)) = best {
                    if score >= tau {
                        out.push(Match { entity: e, span: Span::new(start, len), score, best_variant });
                    }
                }
            }
        }
    }
    out
}
