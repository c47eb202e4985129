//! Property tests for rule application and derivation invariants.

use aeetes_rules::{find_applications, select_non_conflict, DeriveConfig, DeriveStats, DerivedDictionary, RuleId, RuleSet};
use aeetes_text::{Dictionary, TokenId};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
struct Instance {
    entities: Vec<Vec<u8>>,
    rules: Vec<(Vec<u8>, Vec<u8>)>,
}

fn instance() -> impl Strategy<Value = Instance> {
    let tok = 0u8..10;
    let seq = |lo: usize, hi: usize| proptest::collection::vec(tok.clone(), lo..=hi);
    (proptest::collection::vec(seq(1, 6), 1..5), proptest::collection::vec((seq(1, 3), seq(1, 3)), 0..6))
        .prop_map(|(entities, rules)| Instance { entities, rules })
}

fn distinct(tokens: &[TokenId]) -> usize {
    tokens.iter().collect::<HashSet<_>>().len()
}

/// A variant as `(tokens, rules applied)`.
type Variant = (Vec<TokenId>, Vec<RuleId>);

/// `D(e)` as the paper enumerates it, written out again from the public
/// rule API: the unmodified entity first, then every combination of one
/// rewrite (or none) per selected span in mixed-radix order, leftmost span
/// the least significant digit; repeated token sequences dropped, the
/// enumeration cut at `cap`. Returns the variants in that order, how many
/// repeats were dropped and whether the cap cut it.
fn enumerate(tokens: &[TokenId], rules: &RuleSet, cap: usize) -> (Vec<Variant>, usize, bool) {
    let groups = select_non_conflict(tokens, rules);
    let mut digits = vec![0usize; groups.len()];
    let (mut out, mut dropped): (Vec<Variant>, usize) = (Vec::new(), 0);
    loop {
        if out.len() >= cap {
            return (out, dropped, true);
        }
        let (mut rewritten, mut applied, mut at) = (Vec::new(), Vec::new(), 0usize);
        for app in digits.iter().zip(&groups).filter_map(|(&d, g)| d.checked_sub(1).map(|i| g[i])) {
            rewritten.extend_from_slice(&tokens[at..app.start as usize]);
            rewritten.extend_from_slice(rules.other_side_of(app.rule, app.side));
            applied.push(app.rule);
            at = app.end() as usize;
        }
        rewritten.extend_from_slice(&tokens[at..]);
        if out.iter().any(|(seen, _)| *seen == rewritten) {
            dropped += 1;
        } else {
            out.push((rewritten, applied));
        }
        let Some(g) = (0..groups.len()).find(|&g| digits[g] < groups[g].len()) else {
            return (out, dropped, false);
        };
        digits[..g].fill(0);
        digits[g] += 1;
    }
}

fn materialize(inst: &Instance) -> (Dictionary, RuleSet) {
    let ids: Vec<TokenId> = (0..10).map(TokenId).collect();
    let mut dict = Dictionary::new();
    for e in &inst.entities {
        dict.push_tokens(format!("{e:?}"), e.iter().map(|&i| ids[i as usize]).collect());
    }
    let mut rules = RuleSet::new();
    for (l, r) in &inst.rules {
        let lt: Vec<TokenId> = l.iter().map(|&i| ids[i as usize]).collect();
        let rt: Vec<TokenId> = r.iter().map(|&i| ids[i as usize]).collect();
        let _ = rules.push_tokens(lt, rt, 1.0);
    }
    (dict, rules)
}

proptest! {
    /// Every application reported by `find_applications` really matches the
    /// claimed side at the claimed span.
    #[test]
    fn applications_are_genuine(inst in instance()) {
        let (dict, rules) = materialize(&inst);
        for (_, e) in dict.iter() {
            for app in find_applications(e.tokens, &rules) {
                let side = rules.side_of(app.rule, app.side);
                let span = &e.tokens[app.start as usize..app.end() as usize];
                prop_assert_eq!(span, side);
            }
        }
    }

    /// The selected non-conflict groups have pairwise-disjoint spans across
    /// groups, identical spans within a group, and every application comes
    /// from the complete applicable set.
    #[test]
    fn non_conflict_selection_invariants(inst in instance()) {
        let (dict, rules) = materialize(&inst);
        for (_, e) in dict.iter() {
            let all = find_applications(e.tokens, &rules);
            let groups = select_non_conflict(e.tokens, &rules);
            for (gi, g) in groups.iter().enumerate() {
                prop_assert!(!g.is_empty());
                let span = (g[0].start, g[0].end());
                for app in g {
                    prop_assert_eq!((app.start, app.end()), span, "same span within a group");
                    prop_assert!(all.contains(app), "selected app not in Ac(e)");
                }
                for h in groups.iter().skip(gi + 1) {
                    prop_assert!(
                        g[0].end() <= h[0].start || h[0].end() <= g[0].start,
                        "groups overlap: {:?} vs {:?}", g[0], h[0]
                    );
                }
            }
        }
    }

    /// Derivation invariants: an origin's variants ascend by distinct-token
    /// count (the slot order of its index block); the unmodified origin is
    /// among them, with weight 1 and no rules; variants are distinct token
    /// sequences; every origin respects the per-entity cap; `variant_range`
    /// and `variants` agree.
    #[test]
    fn derivation_invariants(inst in instance()) {
        let (dict, rules) = materialize(&inst);
        let config = DeriveConfig { max_derived: 32, ..DeriveConfig::default() };
        let dd = DerivedDictionary::build(&dict, &rules, &config);
        for (eid, ent) in dict.iter() {
            let variants = dd.variants(eid);
            prop_assert!(variants.len() <= config.max_derived);
            if !ent.tokens.is_empty() {
                let unmodified = variants.iter().find(|v| v.tokens == ent.tokens);
                prop_assert!(unmodified.is_some(), "the unmodified origin is a variant");
                let unmodified = unmodified.unwrap();
                prop_assert!(unmodified.rules.is_empty());
                prop_assert_eq!(unmodified.weight, 1.0);
            }
            let lens: Vec<usize> = variants.iter().map(|v| distinct(v.tokens)).collect();
            prop_assert!(lens.windows(2).all(|w| w[0] <= w[1]), "distinct-token counts fall along {:?}'s ids: {:?}", eid, lens);
            let mut seen: HashSet<&[TokenId]> = HashSet::new();
            for v in variants {
                prop_assert_eq!(v.origin, eid);
                prop_assert!(seen.insert(v.tokens), "duplicate variant {:?}", v.tokens);
                prop_assert!(!v.tokens.is_empty());
            }
            let range = dd.variant_range(eid);
            prop_assert_eq!(range.len(), variants.len());
        }
        prop_assert_eq!(dd.origins(), dict.len());
        prop_assert_eq!(dd.len(), dd.iter().count());
    }

    /// The id order is the enumeration stably sorted by distinct-token count
    /// — ties keep enumeration order — over the same variant set, cap and
    /// statistics as the enumeration itself, tight cap or none.
    #[test]
    fn ids_are_the_enumeration_sorted_by_distinct_token_count(inst in instance(), tight in 0usize..2) {
        let (dict, rules) = materialize(&inst);
        let cap = [256, 3][tight];
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig { max_derived: cap, ..DeriveConfig::default() });
        let mut stats = DeriveStats { origins: dict.len(), ..DeriveStats::default() };
        for (eid, ent) in dict.iter() {
            let (mut expected, dropped, cut) = enumerate(ent.tokens, &rules, cap);
            stats.applicable_total += find_applications(ent.tokens, &rules).len();
            stats.selected_total += select_non_conflict(ent.tokens, &rules).iter().map(Vec::len).sum::<usize>();
            stats.derived += expected.len();
            stats.duplicates_dropped += dropped;
            stats.truncated_entities += usize::from(cut);
            expected.sort_by_key(|(tokens, _)| distinct(tokens));
            let got: Vec<Variant> = dd.variants(eid).iter().map(|d| (d.tokens.to_vec(), d.rules.to_vec())).collect();
            prop_assert_eq!(got, expected, "origin {:?}", eid);
        }
        prop_assert_eq!(dd.stats(), &stats);
    }

    /// Applying a weighted rule chain keeps weights in (0, 1].
    #[test]
    fn weights_stay_in_unit_interval(inst in instance(), w in 0.05f64..1.0) {
        let ids: Vec<TokenId> = (0..10).map(TokenId).collect();
        let mut dict = Dictionary::new();
        for e in &inst.entities {
            dict.push_tokens(format!("{e:?}"), e.iter().map(|&i| ids[i as usize]).collect());
        }
        let mut rules = RuleSet::new();
        for (l, r) in &inst.rules {
            let lt: Vec<TokenId> = l.iter().map(|&i| ids[i as usize]).collect();
            let rt: Vec<TokenId> = r.iter().map(|&i| ids[i as usize]).collect();
            let _ = rules.push_tokens(lt, rt, w);
        }
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
        for (_, d) in dd.iter() {
            prop_assert!(d.weight > 0.0 && d.weight <= 1.0);
            let expected = w.powi(d.rules.len() as i32);
            prop_assert!((d.weight - expected).abs() < 1e-9);
        }
    }
}
