//! Cross-validation: FaerieR (a completely independent algorithm — heap
//! grouping + lazy count + windowed counting over the same derived
//! dictionary) must produce exactly the same result pairs and scores as the
//! Aeetes engine on every corpus and threshold.

mod conformance;

use aeetes::baselines::Faerie;
use aeetes::datagen::{generate, DatasetProfile};
use aeetes::{Aeetes, AeetesConfig};

/// FaerieR and every strategy of the engine on the three generated corpora
/// (seed 11), through the harness.
#[test]
fn faerier_and_aeetes_return_identical_pairs() {
    conformance::datagen_corpora(11);
}

#[test]
fn plain_faerie_is_a_subset_of_aeetes() {
    // Without rules applied, Faerie over the origin dictionary must find a
    // subset of what the synonym-aware engine finds (same syntactic pairs).
    let data = generate(&DatasetProfile::pubmed_like().scaled(0.01).with_docs(3), 3);
    let plain = Faerie::build_plain(&data.dictionary);
    let engine = Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default());
    for doc in &data.documents {
        let (fr, _) = plain.extract(doc, 0.8);
        let am = engine.extract(doc, 0.8);
        for f in &fr {
            assert!(
                am.iter().any(|m| m.entity == f.entity && m.span == f.span && m.score >= f.score - 1e-12),
                "syntactic pair {f:?} missing from synonym-aware output"
            );
        }
    }
}

#[test]
fn exact_matcher_agrees_with_tau_one_scores() {
    use aeetes::baselines::ExactMatcher;
    let data = generate(&DatasetProfile::dbworld_like().scaled(0.01).with_docs(3), 5);
    let exact = ExactMatcher::build(&data.dictionary);
    let plain = Faerie::build_plain(&data.dictionary);
    for doc in &data.documents {
        let e_pairs: Vec<_> = exact.extract(doc);
        let (f_pairs, _) = plain.extract(doc, 1.0);
        // Every exact token-sequence match scores Jaccard 1.0 …
        for (entity, span) in &e_pairs {
            assert!(
                f_pairs.iter().any(|m| m.entity == *entity && m.span == *span),
                "exact match {entity:?}@{span:?} missing from Faerie at tau=1.0"
            );
        }
        // … and every Jaccard-1.0 span has the same token set as its entity.
        for m in &f_pairs {
            let mut a = doc.slice(m.span).to_vec();
            let mut b = data.dictionary.entity(m.entity).to_vec();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            assert_eq!(a, b);
        }
    }
}
