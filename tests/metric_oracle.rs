//! Property-based oracle for the generalized-metric extension (§2.2):
//! extraction under Dice / Cosine / Overlap must coincide with brute-force
//! enumeration of the rule-based metric
//! `max over variants of metric(variant set, substring set)`.

use aeetes::rules::{DeriveConfig, DerivedDictionary, RuleSet};
use aeetes::sim::{sorted_set, Metric};
use aeetes::text::{Dictionary, Document, Interner, TokenId};
use aeetes::{Aeetes, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Instance {
    entities: Vec<Vec<u8>>,
    rules: Vec<(Vec<u8>, Vec<u8>)>,
    doc: Vec<u8>,
    tau_percent: u8,
}

fn instance() -> impl Strategy<Value = Instance> {
    let tok = 0u8..10;
    let seq = |lo: usize, hi: usize| proptest::collection::vec(tok.clone(), lo..=hi);
    (
        proptest::collection::vec(seq(1, 4), 1..5),
        proptest::collection::vec((seq(1, 2), seq(1, 2)), 0..3),
        seq(0, 20),
        70u8..=95,
    )
        .prop_map(|(entities, rules, doc, tau_percent)| Instance { entities, rules, doc, tau_percent })
}

fn materialize(inst: &Instance) -> (Dictionary, RuleSet, Document, f64, Interner) {
    let mut interner = Interner::new();
    let ids: Vec<TokenId> = (0..10).map(|i| interner.intern(&format!("tok{i}"))).collect();
    let mut dict = Dictionary::new();
    for e in &inst.entities {
        let tokens: Vec<TokenId> = e.iter().map(|&i| ids[i as usize]).collect();
        dict.push_tokens(format!("{e:?}"), tokens);
    }
    let mut rules = RuleSet::new();
    for (l, r) in &inst.rules {
        let lt: Vec<TokenId> = l.iter().map(|&i| ids[i as usize]).collect();
        let rt: Vec<TokenId> = r.iter().map(|&i| ids[i as usize]).collect();
        let _ = rules.push_tokens(lt, rt, 1.0);
    }
    let doc = Document::from_tokens(inst.doc.iter().map(|&i| ids[i as usize]).collect());
    (dict, rules, doc, inst.tau_percent as f64 / 100.0, interner)
}

/// Brute-force rule-based metric over the engine's own window-length range.
fn brute_force(dict: &Dictionary, dd: &DerivedDictionary, doc: &Document, tau: f64, metric: Metric) -> Vec<(u32, u32, u32, f64)> {
    let variant_sets: Vec<Vec<TokenId>> = dd.iter().map(|(_, d)| sorted_set(d.tokens)).collect();
    let lens: Vec<usize> = variant_sets.iter().map(Vec::len).filter(|&l| l > 0).collect();
    let (Some(&min_le), Some(&max_le)) = (lens.iter().min(), lens.iter().max()) else {
        return Vec::new();
    };
    // Mirror aeetes_index::metric_window_bounds.
    let cap = (max_le as f64 / tau - 1e-9).ceil() as usize;
    let w_lo = metric.length_bounds(min_le, tau, cap).0;
    let w_hi = metric.length_bounds(max_le, tau, cap).1;
    let n = doc.len();
    let mut out = Vec::new();
    for p in 0..n {
        for l in w_lo..=w_hi.min(n - p) {
            let s = sorted_set(&doc.tokens()[p..p + l]);
            for (e, _) in dict.iter() {
                let mut best = 0.0f64;
                for id in dd.variant_range(e) {
                    let v = &variant_sets[id as usize];
                    let inter = v.iter().filter(|t| s.binary_search(t).is_ok()).count();
                    let score = metric.score(v.len(), s.len(), inter);
                    if score > best {
                        best = score;
                    }
                }
                if best >= tau {
                    out.push((p as u32, l as u32, e.0, best));
                }
            }
        }
    }
    out.sort_by_key(|r| (r.0, r.1, r.2));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_metrics_match_brute_force(inst in instance()) {
        let (dict, rules, doc, tau, _int) = materialize(&inst);
        let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
        let engine = Aeetes::build(dict.clone(), &rules, &_int, AeetesConfig::default());
        for metric in Metric::ALL {
            let expected = brute_force(&dict, &dd, &doc, tau, metric);
            let request = ExtractRequest { metric: Some(metric), ..ExtractRequest::new(tau) };
            let got: Vec<(u32, u32, u32, f64)> = engine
                .extract_request(&doc, &request, &mut ExtractScratch::new())
                .matches
                .iter()
                .map(|m| (m.span.start, m.span.len, m.entity.0, m.score))
                .collect();
            prop_assert_eq!(got.len(), expected.len(), "{} tau {}: {:?} vs {:?}", metric, tau, got, expected);
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!((g.0, g.1, g.2), (e.0, e.1, e.2), "{}", metric);
                prop_assert!((g.3 - e.3).abs() < 1e-12, "{}: score {} vs {}", metric, g.3, e.3);
            }
        }
    }
}
