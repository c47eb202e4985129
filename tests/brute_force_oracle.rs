//! Definition 2.2 against the `conformance` harness's one brute-force
//! oracle: the generated matrix of worlds, deltas, builds, paths and
//! requests, then what a small generator cannot reach — ids past 16 bits
//! and a rule-dense corpus.
//!
//! Run the release case count with `cargo test --release --test brute_force_oracle`.

mod conformance;

use aeetes::datagen::{generate, DatasetProfile};
use aeetes::index::IdWidth;
use aeetes::{Dictionary, EntityId, Strategy, TokenId};
use conformance::case::{Case, Limit, World, BUILDS};
use conformance::paths::{check, Built, PATHS};
use conformance::{against_the_oracle, oracle, CASES};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The generated matrix. Each path, build and state must run on at least 20
/// cases and find something on at least 5, so a generator that drifts to
/// empty documents or inexpressible requests fails here.
#[test]
fn engine_matches_brute_force() {
    let mut tally: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for seed in 0..CASES {
        let case = Case::generate(seed, 0);
        let ran = against_the_oracle(&case);
        let found = ran.iter().any(|&(_, found)| found);
        let axes = [format!("build {:?}", case.build), format!("state {:?}", case.state)];
        for (what, found) in ran
            .into_iter()
            .map(|(name, found)| (format!("path {name}"), found))
            .chain(axes.map(|axis| (axis, found)))
        {
            let (runs, finds) = tally.entry(what).or_default();
            *runs += 1;
            *finds += usize::from(found);
        }
    }
    assert_eq!(tally.len(), PATHS.len() + BUILDS.len() + 3, "every path, build and state ran: {tally:?}");
    for (what, (runs, finds)) in &tally {
        assert!(*runs >= 20 && *finds >= 5, "{what}: {runs} cases, {finds} with matches");
    }
}

/// 2¹⁶ one-token fillers before a generated world make more than 2¹⁶
/// origins and ranks, so every index stores them at 32 bits. Each world is
/// built once, under its drawn strategy, and answered with no budget under
/// every strategy: the direct path and the reference take it from the
/// request.
#[test]
fn engine_matches_brute_force_past_16_bit_ids() {
    for seed in 0..4 {
        let case = Case { limit: Limit::None, ..Case::generate(seed, 1 << 16) };
        let built = Built::new(&case);
        assert_eq!(built.reference.index().width(), IdWidth::U32, "{}", case.label);
        let oracle = oracle::answer(built.reference.derived(), &built.doc, case.tau, case.metric, case.weighted);
        for strategy in Strategy::ALL {
            check(&Case { label: format!("case {seed} under {strategy}"), strategy, ..case.clone() }, &built, Some(&oracle));
        }
    }
}

/// A usjob-profile corpus, ~23 applicable rules per entity: an origin's
/// hundreds of variants are two-word masks over a pool of dozens of keys,
/// and most candidates are settled by the pool alone. Its forty longest
/// entities (what applies to an entity does not depend on its neighbours,
/// forty are what a brute force can score, and the longest have the widest
/// pools) are mentioned in corpus text, every other mention short of its
/// first token.
#[test]
fn engine_matches_brute_force_on_a_rule_dense_corpus() {
    let data = generate(&DatasetProfile::usjob_like().scaled(0.02).with_docs(2), 12);
    let mut longest: Vec<&[TokenId]> = data.dictionary.iter().map(|(_, entity)| entity.tokens).collect();
    longest.sort_by_key(|tokens| std::cmp::Reverse(tokens.len()));
    let mut dict = Dictionary::new();
    for tokens in &longest[..40] {
        dict.push_tokens(data.interner.render(tokens), tokens.to_vec());
    }
    let world = Arc::new(World::new("usjob's 40 longest entities".into(), dict, data.rules.clone(), data.interner.clone()));
    let (origins, dd) = (40, world.derive());
    let mut found = 0;
    for (i, (background, tau)) in data.documents.iter().zip([0.7, 0.85]).enumerate() {
        let mut text: Vec<TokenId> = Vec::new();
        for (j, chunk) in background.tokens().chunks(12).take(4).enumerate() {
            let variants = dd.variants(EntityId((9 * j + (tau * 20.0) as usize) as u32 % origins));
            let mention = variants.get((7 * j + 3) % variants.len()).expect("variant in range").tokens;
            text.extend_from_slice(chunk);
            text.extend_from_slice(&mention[j % 2..]);
        }
        let doc = data.interner.render(&text);
        let mut oracle = Vec::new();
        for (k, strategy) in Strategy::ALL.into_iter().enumerate() {
            let case =
                Case::over(format!("usjob document {i}, {strategy}"), Arc::clone(&world), doc.clone(), tau, strategy, BUILDS[(3 * i + k) % 10]);
            let built = Built::new(&case);
            assert_eq!(built.doc.tokens(), text, "the document re-tokenizes to itself");
            if k == 0 {
                let pools = (0..origins).filter(|&e| built.reference.index().block(EntityId(e)).pool.len() > 32).count();
                assert!(
                    dd.len() >= 50 * origins as usize && pools >= origins as usize / 2,
                    "{} variants, {pools} wide pools: not rule-dense",
                    dd.len()
                );
                oracle = oracle::answer(built.reference.derived(), &built.doc, tau, case.metric, false);
                found += oracle.len();
            }
            check(&case, &built, Some(&oracle));
        }
    }
    assert!(found > 0, "the corpus exercises nothing");
}
