//! Property-based oracle test: on small random instances, the engine's
//! output must coincide with a brute-force evaluation of Definition 2.2 —
//! every substring of every admissible token length scored against every
//! entity with the exact JaccAR of Definition 2.1.

use aeetes::datagen::{generate, DatasetProfile};
use aeetes::rules::{DeriveConfig, DerivedDictionary, RuleSet};
use aeetes::sim::{sorted_set, JaccArVerifier};
use aeetes::text::{Dictionary, Document, Interner, TokenId};
use aeetes::{Aeetes, AeetesConfig, EntityId, Strategy as ExtractStrategy};
use proptest::prelude::*;
use std::collections::HashSet;

/// A compact instance description drawn by proptest.
#[derive(Debug, Clone)]
struct Instance {
    entities: Vec<Vec<u8>>,
    rules: Vec<(Vec<u8>, Vec<u8>)>,
    doc: Vec<u8>,
    tau_percent: u8,
}

fn instance() -> impl Strategy<Value = Instance> {
    // Token alphabet of 12 symbols keeps collisions (and thus interesting
    // matches) frequent.
    let tok = 0u8..12;
    let seq = |lo: usize, hi: usize| proptest::collection::vec(tok.clone(), lo..=hi);
    (
        proptest::collection::vec(seq(1, 4), 1..6),
        proptest::collection::vec((seq(1, 2), seq(1, 3)), 0..4),
        seq(0, 24),
        70u8..=95,
    )
        .prop_map(|(entities, rules, doc, tau_percent)| Instance { entities, rules, doc, tau_percent })
}

fn materialize(inst: &Instance) -> (Dictionary, RuleSet, Document, f64, Interner) {
    let mut interner = Interner::new();
    let ids: Vec<TokenId> = (0..12).map(|i| interner.intern(&format!("tok{i}"))).collect();
    let mut dict = Dictionary::new();
    for e in &inst.entities {
        let tokens: Vec<TokenId> = e.iter().map(|&i| ids[i as usize]).collect();
        dict.push_tokens(format!("{e:?}"), tokens);
    }
    let mut rules = RuleSet::new();
    for (l, r) in &inst.rules {
        let lt: Vec<TokenId> = l.iter().map(|&i| ids[i as usize]).collect();
        let rt: Vec<TokenId> = r.iter().map(|&i| ids[i as usize]).collect();
        let _ = rules.push_tokens(lt, rt, 1.0); // trivial rules rejected, fine
    }
    let doc = Document::from_tokens(inst.doc.iter().map(|&i| ids[i as usize]).collect());
    (dict, rules, doc, inst.tau_percent as f64 / 100.0, interner)
}

/// Brute force: enumerate every substring whose token length lies in the
/// engine's window bounds and score it against every entity.
fn brute_force(dict: &Dictionary, dd: &DerivedDictionary, doc: &Document, tau: f64) -> Vec<(u32, u32, u32, f64)> {
    brute_force_over(dict, dd, doc, tau, |_, _| true)
}

/// [`brute_force`] over the `(entity, sorted substring set)` pairs `worth`
/// does not wave through as scoring zero.
fn brute_force_over(
    dict: &Dictionary,
    dd: &DerivedDictionary,
    doc: &Document,
    tau: f64,
    worth: impl Fn(EntityId, &[TokenId]) -> bool,
) -> Vec<(u32, u32, u32, f64)> {
    let verifier = JaccArVerifier::new(dd);
    // Same substring length range as the framework (token count, from the
    // *distinct* set sizes of derived entities).
    let min_len = dd.iter().map(|(_, d)| sorted_set(d.tokens).len()).filter(|&l| l > 0).min();
    let max_len = dd.iter().map(|(_, d)| sorted_set(d.tokens).len()).max();
    let (Some(lo), Some(hi)) = (min_len, max_len) else { return Vec::new() };
    let w_lo = ((lo as f64 * tau + 1e-9).floor() as usize).max(1);
    let w_hi = (hi as f64 / tau - 1e-9).ceil() as usize;
    let n = doc.len();
    let mut out = Vec::new();
    for p in 0..n {
        for l in w_lo..=w_hi.min(n - p) {
            let s = sorted_set(&doc.tokens()[p..p + l]);
            for (e, _) in dict.iter().filter(|&(e, _)| worth(e, &s)) {
                let score = verifier.verify(e, &s, 0.0).value;
                if score >= tau {
                    out.push((p as u32, l as u32, e.0, score));
                }
            }
        }
    }
    out.sort_by_key(|r| (r.0, r.1, r.2));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_brute_force(inst in instance()) {
        let (dict, rules, doc, tau, _int) = materialize(&inst);
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
        let engine = Aeetes::build(dict.clone(), &rules, &_int, AeetesConfig::default());
        let expected = brute_force(&dict, &dd, &doc, tau);
        for strategy in ExtractStrategy::ALL {
            let got: Vec<(u32, u32, u32, f64)> = engine
                .extract_with(&doc, tau, strategy)
                .0
                .into_iter()
                .map(|m| (m.span.start, m.span.len, m.entity.0, m.score))
                .collect();
            prop_assert_eq!(
                got.len(),
                expected.len(),
                "strategy {} tau {}: {:?} vs {:?}",
                strategy,
                tau,
                got,
                expected
            );
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!((g.0, g.1, g.2), (e.0, e.1, e.2), "strategy {}", strategy);
                prop_assert!((g.3 - e.3).abs() < 1e-12, "score {} vs {}", g.3, e.3);
            }
        }
    }
}

/// One-token fillers past the 16-bit id space: 2¹⁶ of them, each its own
/// token, beside any instance make more than 2¹⁶ origins and ranks.
const FILLERS: u32 = 1 << 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The oracle over an index past 16-bit ids: a random instance after
    /// 2¹⁶ one-token fillers, so origins and ranks both pass 65 535 and the
    /// index stores them at 32 bits. A document of the instance's tokens
    /// and a few fillers is answered as Definition 2.2 answers it. The brute
    /// force skips only pairs that share no token — those score 0.
    #[test]
    fn engine_matches_brute_force_past_16_bit_ids(inst in instance(), fillers in proptest::collection::vec(0..FILLERS, 0..4)) {
        let mut interner = Interner::new();
        let mut dict = Dictionary::new();
        for f in 0..FILLERS {
            dict.push_tokens(format!("f{f}"), vec![interner.intern(&format!("f{f}"))]);
        }
        let ids: Vec<TokenId> = (0..12).map(|i| interner.intern(&format!("tok{i}"))).collect();
        for e in &inst.entities {
            dict.push_tokens(format!("{e:?}"), e.iter().map(|&i| ids[i as usize]).collect());
        }
        let mut rules = RuleSet::new();
        for (l, r) in &inst.rules {
            let _ = rules.push_tokens(l.iter().map(|&i| ids[i as usize]).collect(), r.iter().map(|&i| ids[i as usize]).collect(), 1.0);
        }
        let mut text: Vec<TokenId> = inst.doc.iter().map(|&i| ids[i as usize]).collect();
        for (at, f) in fillers.iter().enumerate() {
            text.insert((at * 5).min(text.len()), TokenId(*f));
        }
        let doc = Document::from_tokens(text);
        let tau = inst.tau_percent as f64 / 100.0;
        let engine = Aeetes::build(dict.clone(), &rules, &interner, AeetesConfig::default());
        prop_assert_eq!(engine.index().width(), aeetes::index::IdWidth::U32);
        let dd = engine.derived();
        let in_doc: HashSet<TokenId> = doc.tokens().iter().copied().collect();
        let shares: Vec<bool> = (0..dict.len() as u32)
            .map(|e| dd.variants(EntityId(e)).iter().any(|d| d.tokens.iter().any(|t| in_doc.contains(t))))
            .collect();
        let expected = brute_force_over(&dict, dd, &doc, tau, |e, _| shares[e.idx()]);
        for strategy in ExtractStrategy::ALL {
            let got: Vec<(u32, u32, u32, f64)> =
                engine.extract_with(&doc, tau, strategy).0.into_iter().map(|m| (m.span.start, m.span.len, m.entity.0, m.score)).collect();
            prop_assert_eq!(got.len(), expected.len(), "strategy {} tau {}: {:?} vs {:?}", strategy, tau, got, expected);
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!((g.0, g.1, g.2), (e.0, e.1, e.2), "strategy {}", strategy);
                prop_assert!((g.3 - e.3).abs() < 1e-12, "score {} vs {}", g.3, e.3);
            }
        }
    }
}

/// The same oracle at the other end of the scale: a usjob-profile corpus,
/// ~23 applicable rules per entity, where an origin's hundreds of variants
/// are two-word masks over a pool of dozens of keys and most candidates are
/// settled by the pool alone. The engine must still report
/// exactly the pairs Definition 2.2 names, with Definition 2.1's scores. The
/// brute force skips only pairs that share no token at all — those score 0.
#[test]
fn engine_matches_brute_force_on_a_rule_dense_corpus() {
    // The rules of a 600-entity corpus over its forty longest entities: what
    // applies to an entity does not depend on its neighbours, forty are what
    // a brute force can score, and the longest have the widest pools.
    let data = generate(&DatasetProfile::usjob_like().scaled(0.02).with_docs(2), 12);
    let mut longest: Vec<&[TokenId]> = data.dictionary.iter().map(|(_, entity)| entity.tokens).collect();
    longest.sort_by_key(|tokens| std::cmp::Reverse(tokens.len()));
    let mut dictionary = Dictionary::new();
    for tokens in &longest[..40] {
        dictionary.push_tokens(data.interner.render(tokens), tokens.to_vec());
    }
    let engine = Aeetes::build(dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default());
    let dd = engine.derived();
    let origins = dictionary.len();
    let pools: Vec<usize> = (0..origins as u32).map(|e| engine.index().block(EntityId(e)).pool.len()).collect();
    assert!(dd.len() >= 50 * origins, "{} variants of {origins} entities: not rule-dense", dd.len());
    assert!(pools.iter().filter(|&&p| p > 32).count() >= origins / 2, "pools {pools:?}: mostly one-word masks");
    let vocabulary: Vec<HashSet<TokenId>> = (0..origins as u32)
        .map(|e| dd.variants(EntityId(e)).iter().flat_map(|d| d.tokens.iter().copied()).collect())
        .collect();
    let (mut found, mut verifications) = (0, 0);
    for (background, tau) in data.documents.iter().zip([0.7, 0.85]) {
        // Four mentions in corpus text: some variant of an entity, every
        // other one short of its first token.
        let mut text: Vec<TokenId> = Vec::new();
        for (j, chunk) in background.tokens().chunks(12).take(4).enumerate() {
            let variants = dd.variants(EntityId((9 * j + (tau * 20.0) as usize) as u32 % origins as u32));
            let mention = variants.get((7 * j + 3) % variants.len()).expect("variant in range").tokens;
            text.extend_from_slice(chunk);
            text.extend_from_slice(&mention[j % 2..]);
        }
        let doc = Document::from_tokens(text);
        let expected = brute_force_over(&dictionary, dd, &doc, tau, |e, s| s.iter().any(|t| vocabulary[e.idx()].contains(t)));
        found += expected.len();
        for strategy in ExtractStrategy::ALL {
            let (got, stats) = engine.extract_with(&doc, tau, strategy);
            verifications += stats.verifications;
            assert_eq!(
                got.iter().map(|m| (m.span.start, m.span.len, m.entity.0)).collect::<Vec<_>>(),
                expected.iter().map(|r| (r.0, r.1, r.2)).collect::<Vec<_>>(),
                "{strategy} at tau {tau}"
            );
            for (m, e) in got.iter().zip(&expected) {
                assert!((m.score - e.3).abs() < 1e-12, "{strategy}: score {} vs {}", m.score, e.3);
            }
        }
    }
    assert!(found > 0 && verifications > 0, "{found} matches, {verifications} variant overlaps: the corpus exercises nothing");
}
