//! The one build of an index from scratch (paper Algorithm 1 lines 3–4 /
//! Algorithm 2): derive → order → index, in parts side by side.

use aeetes_index::{ClusteredIndex, GlobalOrder, IndexDraft};
use aeetes_rules::{DeriveConfig, DeriveStats, MergePlan, RuleSet, VariantTable};
use aeetes_text::{Dictionary, EntityId, Interner};
use std::sync::Arc;

/// Upper bound on the parts of a build: each runs on a thread of its own, so
/// an absurd count must not be able to exhaust threads.
const MAX_PARTS: usize = 64;

/// Resolves a requested part count: `0` means the machine's available
/// parallelism; anything is clamped into `1..=MAX_PARTS`.
fn resolve_parts(requested: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    n.clamp(1, MAX_PARTS)
}

/// Runs `f` over `items` side by side — the first on the calling thread, each
/// other on a thread of its own — and returns the results in item order.
fn in_parallel<T: Send, R: Send>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut items = items.into_iter();
    let first = items.next();
    std::thread::scope(|s| {
        let handles: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let first = first.map(f);
        first
            .into_iter()
            .chain(handles.into_iter().map(|h| h.join().expect("build part panicked")))
            .collect()
    })
}

/// Per token id, the variants of all `drafts` that hold the token.
fn summed_frequencies(drafts: &[IndexDraft]) -> Vec<u32> {
    let tokens = drafts.iter().flat_map(IndexDraft::frequencies).map(|(t, _)| t.idx() + 1).max().unwrap_or(0);
    let mut total = vec![0u32; tokens];
    for (t, count) in drafts.iter().flat_map(IndexDraft::frequencies) {
        total[t.idx()] += count;
    }
    total
}

/// The variant table and the clustered index of `dict` expanded under
/// `rules`, built in `parts` parts side by side: each part's contiguous range
/// of origins derived straight into their index blocks
/// ([`IndexDraft::derive`]), one global order from the parts' summed token
/// frequencies, then each part keyed by it and clustered, and the parts
/// concatenated into one whole table and index ([`VariantTable::merge`],
/// [`ClusteredIndex::concat`]). No variant's token sequence is kept. The
/// result is what [`ClusteredIndex::build`] makes over
/// [`aeetes_rules::DerivedDictionary::build`], array for array, whatever the
/// number of parts; `parts == 0` uses the machine's available parallelism.
/// The interner must be the one `dict` and `rules` were tokenized with; it
/// supplies the strings for the order's frequency tie-break.
pub fn aeetes_index(dict: &Dictionary, rules: &RuleSet, interner: &Interner, config: &DeriveConfig, parts: usize) -> (VariantTable, ClusteredIndex) {
    let n = resolve_parts(parts);
    let ranges = (0..n).map(|i| dict.len() * i / n..dict.len() * (i + 1) / n);
    // One lookup of the rule sides made of the dictionary's tokens, shared
    // by the parts and dropped once they are derived.
    let lookup = rules.lookup(dict.arena_runs().flat_map(|(_, _, tokens, _)| tokens.iter().copied()));
    let drafts = in_parallel(ranges, |range| IndexDraft::derive(dict, &lookup, config, range.map(|e| EntityId(e as u32))));
    drop(lookup);
    let order = Arc::new(GlobalOrder::from_frequencies(summed_frequencies(&drafts), interner));
    let (mut tables, indexes): (Vec<VariantTable>, Vec<ClusteredIndex>) =
        in_parallel(drafts, |draft| draft.into_index(Arc::clone(&order))).into_iter().unzip();
    let plan = MergePlan::new(&indexes.iter().map(ClusteredIndex::slots).collect::<Vec<_>>(), |_, _| true, Some(dict.len()));
    let table = if tables.len() == 1 && plan.is_identity() && tables[0].origins() == plan.slots() {
        tables.pop().expect("one part")
    } else {
        merged(&tables, &plan)
    };
    (table, ClusteredIndex::concat(indexes, &plan))
}

/// The parts' tables laid out by `plan`, their statistics summed.
fn merged(tables: &[VariantTable], plan: &MergePlan) -> VariantTable {
    let mut stats = DeriveStats::default();
    for table in tables {
        stats += table.stats();
    }
    VariantTable::merge(&tables.iter().collect::<Vec<_>>(), plan, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_parts_resolves_to_available_parallelism() {
        assert!((1..=MAX_PARTS).contains(&resolve_parts(0)));
        assert_eq!(resolve_parts(1000), MAX_PARTS);
        assert_eq!(resolve_parts(3), 3);
    }
}
