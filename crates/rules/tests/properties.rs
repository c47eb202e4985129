//! Property tests for rule application and derivation invariants.

use aeetes_rules::{
    derive_into, find_applications, select_non_conflict, Application, DeriveConfig, DeriveStats, DerivedDictionary, DerivedId, RuleId, RuleSet, Side,
};
use aeetes_text::{Dictionary, EntityId, TokenId};
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
    let groups = select_non_conflict(tokens, &rules.lookup(tokens.iter().copied()));
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
        let _ = rules.push_tokens(&lt, &rt, 1.0);
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
            for app in find_applications(e.tokens, &rules.lookup(e.tokens.iter().copied())) {
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
            let lookup = rules.lookup(e.tokens.iter().copied());
            let all = find_applications(e.tokens, &lookup);
            let groups = select_non_conflict(e.tokens, &lookup);
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
            let lookup = rules.lookup(ent.tokens.iter().copied());
            stats.applicable_total += find_applications(ent.tokens, &lookup).len();
            stats.selected_total += select_non_conflict(ent.tokens, &lookup).iter().map(Vec::len).sum::<usize>();
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
            let _ = rules.push_tokens(&lt, &rt, w);
        }
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
        for (_, d) in dd.iter() {
            prop_assert!(d.weight > 0.0 && d.weight <= 1.0);
            let expected = w.powi(d.rules.len() as i32);
            prop_assert!((d.weight - expected).abs() < 1e-9);
        }
    }
}

/// Everything a derived dictionary answers: per variant its id, origin,
/// tokens, rules, weight and `weight_of`; per origin its variants as
/// `variants` lists them; its length and statistics.
type Answers = (
    Vec<(DerivedId, u32, Vec<TokenId>, Vec<RuleId>, f64, f64)>,
    Vec<Vec<(u32, Vec<TokenId>, Vec<RuleId>, f64)>>,
    usize,
    DeriveStats,
);

fn answers(dd: &DerivedDictionary) -> Answers {
    let per_variant = dd
        .iter()
        .map(|(id, d)| (id, d.origin.0, d.tokens.to_vec(), d.rules.to_vec(), d.weight, dd.weight_of(id)))
        .collect();
    let per_origin = (0..dd.origins() as u32)
        .map(|e| {
            dd.variants(aeetes_text::EntityId(e))
                .iter()
                .map(|d| (d.origin.0, d.tokens.to_vec(), d.rules.to_vec(), d.weight))
                .collect()
        })
        .collect();
    (per_variant, per_origin, dd.len(), dd.stats().clone())
}

/// Entities over tokens `0..10`, some with no token at all.
fn entities() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..10, 0..=6), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A dictionary made of a variant table alone — what an index build
    /// leaves behind — and what re-derives it answers every read as the
    /// dictionary that derived its sequences at once: weighted rules or
    /// not, cut at the cap or not, entities with no tokens among them; and
    /// so do its clones, whether taken before its sequences were derived or
    /// after, and read first or last.
    #[test]
    fn a_table_only_dictionary_answers_as_an_eager_one(
        entities in entities(),
        rules in proptest::collection::vec((proptest::collection::vec(0u8..10, 1..=3), proptest::collection::vec(0u8..10, 1..=3), 0usize..3), 0..6),
        tight in 0usize..2,
        clone_read_first in 0u8..2,
    ) {
        let mut dict = Dictionary::new();
        for e in &entities {
            dict.push_tokens(format!("{e:?}"), e.iter().map(|&t| TokenId(u32::from(t))).collect());
        }
        let mut rule_table = RuleSet::new();
        for (l, r, w) in &rules {
            let side = |s: &[u8]| s.iter().map(|&t| TokenId(u32::from(t))).collect::<Vec<_>>();
            let _ = rule_table.push_tokens(&side(l), &side(r), [1.0, 0.5, 0.8][*w]);
        }
        let config = DeriveConfig { max_derived: [256, 3][tight], ..DeriveConfig::default() };
        let eager = answers(&DerivedDictionary::build(&dict, &rule_table, &config));

        let lookup = rule_table.lookup(dict.iter().flat_map(|(_, e)| e.tokens.iter().copied()));
        let variants = derive_into(&dict, &lookup, &config, (0..dict.len() as u32).map(EntityId), |_| {});
        let lazy = DerivedDictionary::lazy(variants, dict.clone(), rule_table.clone(), config.clone());
        let before = lazy.clone();
        prop_assert_eq!((lazy.len(), lazy.stats()), (eager.2, &eager.3));
        for (id, .., weight) in &eager.0 {
            prop_assert_eq!(lazy.weight_of(*id), *weight);
        }
        let (first, second) = if clone_read_first == 1 { (&before, &lazy) } else { (&lazy, &before) };
        prop_assert_eq!(&answers(first), &eager);
        prop_assert_eq!(&answers(second), &eager);
        let after = lazy.clone();
        drop((lazy, before));
        prop_assert_eq!(&answers(&after), &eager);
    }
}

/// A rule as `(lhs, rhs, weight)`: the flat list a rule table must answer as.
type FlatRule = (Vec<TokenId>, Vec<TokenId>, f64);

/// A rule over tokens `0..6`: short sides over few tokens, so rules share
/// head tokens, some sides run past two tokens and some rules are trivial.
fn rule() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, u8)> {
    let side = proptest::collection::vec(0u8..6, 1..=3);
    (side.clone(), side, 0u8..4)
}

fn flat_rule((lhs, rhs, w): &(Vec<u8>, Vec<u8>, u8)) -> FlatRule {
    let ids = |s: &[u8]| s.iter().map(|&t| TokenId(t as u32)).collect();
    (ids(lhs), ids(rhs), [1.0, 1.0, 0.5, 0.25][*w as usize])
}

#[derive(Debug, Clone)]
enum Step {
    /// A rule pushed onto table `at`.
    Push(usize, (Vec<u8>, Vec<u8>, u8)),
    /// Rules pushed onto a table of their own, appended to table `at`, as an
    /// update adds them.
    Delta(usize, Vec<(Vec<u8>, Vec<u8>, u8)>),
    Clone(usize),
    Drop(usize),
    /// Table `at` written in its flat form and read back, at 2 bytes when
    /// `narrow`.
    Reopen(usize, bool),
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..10, 0usize..8, rule(), proptest::collection::vec(rule(), 0..6)).prop_map(|(kind, at, r, delta)| match kind {
        0..=2 => Step::Push(at, r),
        3..=5 => Step::Delta(at, delta),
        6 | 7 => Step::Clone(at),
        8 => Step::Drop(at),
        _ => Step::Reopen(at, r.2 % 2 == 0),
    })
}

/// Pushes `r` as the table does, and onto the model when the table keeps it.
fn push(rules: &mut RuleSet, model: &mut Vec<FlatRule>, r: FlatRule) -> Result<(), TestCaseError> {
    let kept = r.0 != r.1;
    prop_assert_eq!(rules.push_tokens(&r.0, &r.1, r.2).is_ok(), kept);
    if kept {
        model.push(r);
    }
    Ok(())
}

/// The table's flat form — what an artifact stores — read back at 2 or 4
/// bytes, over an interner of 8 tokens.
fn reopened(rules: &RuleSet, narrow: bool) -> RuleSet {
    let (mut sides, mut side_off) = (Vec::new(), vec![0u32]);
    for (tokens, offsets) in rules.part_sides() {
        let base = sides.len() as u32;
        sides.extend(tokens.iter().map(|t| t.0));
        side_off.extend(offsets[1..].iter().map(|o| base + o));
    }
    let weight = rules.weights();
    if narrow {
        let narrowed = |ids: &[u32]| ids.iter().map(|&id| u16::try_from(id).unwrap()).collect::<Vec<u16>>();
        RuleSet::from_flat(&narrowed(&sides), &narrowed(&side_off), &weight, 8).expect("the flat form reads back")
    } else {
        RuleSet::from_flat(&sides, &side_off, &weight, 8).expect("the flat form reads back")
    }
}

/// Every occurrence of every rule side in `entity`, scanning every rule:
/// position by position, in rule order, lhs before rhs.
fn brute_force_applications(entity: &[TokenId], model: &[FlatRule]) -> Vec<Application> {
    let mut out = Vec::new();
    for start in 0..entity.len() {
        for (id, (lhs, rhs, _)) in model.iter().enumerate() {
            for (side, tokens) in [(Side::Lhs, lhs), (Side::Rhs, rhs)] {
                if entity[start..].starts_with(tokens) {
                    out.push(Application { rule: RuleId(id as u32), side, start: start as u32, len: tokens.len() as u32 });
                }
            }
        }
    }
    out
}

/// `rules` answers as `model` does, in `O(log len)` parts.
fn agrees(rules: &RuleSet, model: &[FlatRule], entities: &[Vec<u8>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(rules.len(), model.len());
    let listed: Vec<FlatRule> = rules.iter().map(|(_, r)| (r.lhs.to_vec(), r.rhs.to_vec(), r.weight)).collect();
    prop_assert_eq!(&listed, model);
    for (id, (lhs, rhs, weight)) in model.iter().enumerate() {
        let r = rules.rule(RuleId(id as u32));
        prop_assert_eq!((r.lhs, r.rhs, r.weight), (&lhs[..], &rhs[..], *weight));
        prop_assert_eq!(rules.other_side_of(RuleId(id as u32), Side::Rhs), &lhs[..]);
    }
    let unit = model.iter().all(|r| r.2 == 1.0);
    prop_assert_eq!(rules.weights(), if unit { Vec::new() } else { model.iter().map(|r| r.2).collect() });
    let parts = rules.part_sides().count();
    prop_assert!(parts <= 2 + model.len().max(1).ilog2() as usize, "{} parts for {} rules", parts, model.len());
    for e in entities {
        let tokens: Vec<TokenId> = e.iter().map(|&t| TokenId(t as u32)).collect();
        prop_assert_eq!(find_applications(&tokens, &rules.lookup(tokens.iter().copied())), brute_force_applications(&tokens, model));
    }
    Ok(())
}

proptest! {
    /// Over random pushes, appended deltas, clones, drops and reads of the
    /// flat form at both widths — which merge parts as they go — every live
    /// rule table answers as a flat list of rules does, and finds the rule
    /// sides in an entity that a scan over every rule finds, in its order.
    #[test]
    fn rule_tables_answer_as_a_flat_list(
        initial in proptest::collection::vec(rule(), 0..30),
        flat_first in 0u8..2,
        steps in proptest::collection::vec(step(), 0..40),
        entities in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..8), 4),
    ) {
        let (mut first, mut model) = (RuleSet::new(), Vec::new());
        for r in &initial {
            push(&mut first, &mut model, flat_rule(r))?;
        }
        if flat_first == 1 {
            first = reopened(&first, true);
        }
        let mut live = vec![(first, model)];
        for step in steps {
            let n = live.len();
            match step {
                Step::Push(at, r) => {
                    let (rules, model) = &mut live[at % n];
                    push(rules, model, flat_rule(&r))?;
                }
                Step::Delta(at, rs) => {
                    let (rules, model) = &mut live[at % n];
                    let (mut fresh, mut added) = (RuleSet::new(), Vec::new());
                    for r in &rs {
                        push(&mut fresh, &mut added, flat_rule(r))?;
                    }
                    rules.append(fresh);
                    model.extend(added);
                }
                Step::Clone(at) => {
                    let copy = live[at % n].clone();
                    live.push(copy);
                }
                Step::Drop(at) => {
                    if n > 1 {
                        live.swap_remove(at % n);
                    }
                }
                Step::Reopen(at, narrow) => {
                    let (rules, _) = &mut live[at % n];
                    *rules = reopened(rules, narrow);
                }
            }
        }
        for (rules, model) in &live {
            agrees(rules, model, &entities)?;
            agrees(&reopened(rules, false), model, &entities)?;
        }
    }
}

/// A thousand deltas of four rules onto a table read from its flat form,
/// each appended to a clone of the one before as an update does: the parts
/// stay `O(log n)`, and the tokens copied into fresh parts — the merges —
/// stay within `O(log n)` copies of each rule, never one copy of the table
/// per delta.
#[test]
fn a_thousand_rule_deltas_copy_each_rule_a_logarithmic_number_of_times() {
    const DELTAS: usize = 1_000;
    const DELTA: usize = 4;
    let side = |k: usize| vec![TokenId((k % 6) as u32), TokenId((k / 6 % 6) as u32)];
    let mut base = RuleSet::new();
    for k in 0..5_000 {
        base.push_tokens(&side(k), &[TokenId(6)], 1.0).unwrap();
    }
    let mut current = reopened(&base, false);
    let tokens = |rules: &RuleSet| -> Vec<(*const TokenId, usize)> { rules.part_sides().map(|(t, _)| (t.as_ptr(), t.len())).collect() };
    let (mut appended, mut copied) = (0usize, 0usize);
    for delta in 0..DELTAS {
        let mut next = current.clone();
        let mut fresh = RuleSet::new();
        for i in 0..DELTA {
            let k = delta * DELTA + i;
            fresh.push_tokens(&side(k), &[TokenId(7)], 1.0).unwrap();
            appended += 3;
        }
        let fresh_part = tokens(&fresh)[0].0;
        next.append(fresh);
        // A part of the new table is a copy unless the old one holds it or
        // it is the delta's own.
        let shared = tokens(&current);
        copied += tokens(&next)
            .iter()
            .filter(|(p, _)| !shared.iter().any(|s| s.0 == *p) && *p != fresh_part)
            .map(|(_, n)| n)
            .sum::<usize>();
        let parts = next.part_sides().count();
        assert!(parts <= 2 + next.len().ilog2() as usize, "delta {delta}: {parts} parts for {} rules", next.len());
        current = next;
    }
    assert_eq!(current.len(), 5_000 + DELTAS * DELTA);
    let total = 3 * current.len();
    let log = current.len().ilog2() as usize;
    assert!(copied <= 2 * log * total, "{copied} tokens copied into fresh parts for {appended} appended to {total}");
}

/// A rule whose sides run 1 to 4 tokens over tokens `0..5`, so that many
/// sides share a first token and some run past two.
fn long_rule() -> impl Strategy<Value = (Vec<u8>, Vec<u8>, u8)> {
    let side = proptest::collection::vec(0u8..5, 1..=4);
    (side.clone(), side, 0u8..4)
}

proptest! {
    /// A lookup built for an entity's tokens alone finds in it exactly what
    /// a scan of every side of every rule finds, in the same order — as does
    /// the lookup of every side — over tables of several parts (a base and
    /// appended rule deltas) and of more sides than one 64-side pass takes,
    /// sides of one, two and more tokens, and entities that start a longer
    /// side without holding all of it. Tokens the lookup was not built for
    /// head nothing in it. Token ids are spread `wide` or not: 512 apart, every id
    /// falls on one bit of the lookup's filter, so every side passes it and
    /// only the exact places decide.
    #[test]
    fn a_lookup_for_an_entitys_tokens_finds_what_a_scan_finds(
        base in proptest::collection::vec(long_rule(), 0..40),
        deltas in proptest::collection::vec(proptest::collection::vec(long_rule(), 1..5), 0..4),
        entities in proptest::collection::vec(proptest::collection::vec(0u8..6, 1..8), 1..6),
        cut in 0usize..8,
        wide in 0u8..2,
    ) {
        let stride = if wide == 1 { 512 } else { 1 };
        let token = |t: u8| TokenId(u32::from(t) * stride);
        let spread = |r: &(Vec<u8>, Vec<u8>, u8)| {
            let (lhs, rhs, w) = flat_rule(r);
            let ids = |s: Vec<TokenId>| s.iter().map(|t| TokenId(t.0 * stride)).collect();
            (ids(lhs), ids(rhs), w)
        };
        let (mut rules, mut model) = (RuleSet::new(), Vec::new());
        for r in &base {
            push(&mut rules, &mut model, spread(r))?;
        }
        for delta in &deltas {
            let (mut fresh, mut added) = (RuleSet::new(), Vec::new());
            for r in delta {
                push(&mut fresh, &mut added, spread(r))?;
            }
            rules.append(fresh);
            model.extend(added);
        }
        // The given entities, and per side of three or more tokens one that
        // holds it but its last token, then a token no side holds.
        let mut entities: Vec<Vec<TokenId>> = entities.iter().map(|e| e.iter().map(|&t| token(t)).collect()).collect();
        for (lhs, rhs, _) in &model {
            for side in [lhs, rhs].into_iter().filter(|s| s.len() >= 3) {
                let mut near = side[..side.len() - 1 - cut % (side.len() - 2)].to_vec();
                near.push(token(9));
                entities.push(near);
            }
        }
        let every = rules.lookup_all();
        for entity in &entities {
            let lookup = rules.lookup(entity.iter().copied());
            let scan = brute_force_applications(entity, &model);
            prop_assert_eq!(&find_applications(entity, &lookup), &scan, "entity {:?}", entity);
            prop_assert_eq!(&find_applications(entity, &every), &scan, "entity {:?} through the lookup of every side", entity);
            let outside: Vec<TokenId> = (0..6).map(token).filter(|t| !entity.contains(t)).collect();
            prop_assert!(find_applications(&outside, &lookup).is_empty(), "tokens {:?} head nothing in a lookup built without them", outside);
        }
    }
}
