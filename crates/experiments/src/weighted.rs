//! Weighted-rule extension evaluation (§8 future work): when the rule table
//! contains low-confidence (noisy) rules, weighted JaccAR suppresses the
//! false positives they create while plain JaccAR swallows them.
//!
//! Protocol: take a calibrated corpus, then inject bogus rules — each maps
//! a frequent dictionary token to a random *other* entity's token sequence,
//! manufacturing spurious derived variants — at a low confidence weight.
//! Plain extraction treats every rule as fully trusted; weighted extraction
//! scales scores by the rule-weight product, pushing bogus-variant matches
//! below τ.

use crate::common::{Config, PrfCounts};
use aeetes_core::{suppress_overlaps, Aeetes, AeetesConfig, ExtractBackend, ExtractRequest, ExtractScratch};
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_rules::RuleSet;
use aeetes_text::EntityId;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    bogus_rules: usize,
    mode: &'static str,
    precision: f64,
    recall: f64,
    f1: f64,
}

pub fn run(config: &Config) {
    println!("{:<10} {:>7} | {:>26} | {:>26}", "dataset", "bogus", "plain JaccAR (P/R/F)", "weighted JaccAR (P/R/F)");
    let tau = 0.8;
    for profile in [DatasetProfile::pubmed_like(), DatasetProfile::usjob_like()] {
        let data = generate(&profile.scaled(config.scale), config.seed);
        let docs = config.measured_docs(&data);
        for bogus in [0usize, 200, 1000] {
            // Rebuild the rule set: all genuine rules at weight 1.0 plus
            // `bogus` low-confidence noise rules.
            let mut rules = RuleSet::new();
            for (_, r) in data.rules.iter() {
                let _ = rules.push_tokens(r.lhs, r.rhs, 1.0);
            }
            let mut injected = 0usize;
            let mut cursor = 0usize;
            while injected < bogus && cursor < data.dictionary.len() * 4 {
                // Deterministic "noise": map entity i's first token to
                // entity (i + stride)'s token sequence.
                let src = EntityId((cursor % data.dictionary.len()) as u32);
                let dst = EntityId(((cursor * 7 + 13) % data.dictionary.len()) as u32);
                cursor += 1;
                let (Some(&head), target) = (data.dictionary.entity(src).first(), data.dictionary.entity(dst)) else {
                    continue;
                };
                if target.is_empty() || target.contains(&head) {
                    continue;
                }
                if rules.push_tokens(&[head], target, 0.5).is_ok() {
                    injected += 1;
                }
            }
            let engine = Aeetes::build(data.dictionary.clone(), &rules, &data.interner, AeetesConfig::default());
            let mut plain = PrfCounts::default();
            let mut weighted = PrfCounts::default();
            let weighted_request = ExtractRequest { weighted: true, ..ExtractRequest::new(tau) };
            let mut scratch = ExtractScratch::new();
            for (doc_id, doc) in docs.iter().enumerate() {
                let gold: Vec<_> = data.gold_for(doc_id).map(|g| (g.entity, g.span)).collect();
                plain.tally(&suppress_overlaps(engine.extract(doc, tau)), &gold);
                let found = engine.extract_request(doc, &weighted_request, &mut scratch).matches.to_vec();
                weighted.tally(&suppress_overlaps(found), &gold);
            }
            let fmt = |c: &PrfCounts| format!("{:6.3} {:6.3} {:6.3}", c.precision(), c.recall(), c.f1());
            println!("{:<10} {:>7} | {:>26} | {:>26}", data.name, injected, fmt(&plain), fmt(&weighted));
            for (mode, c) in [("plain", &plain), ("weighted", &weighted)] {
                config.record(
                    "weighted",
                    &Row {
                        dataset: data.name.clone(),
                        bogus_rules: injected,
                        mode,
                        precision: c.precision(),
                        recall: c.recall(),
                        f1: c.f1(),
                    },
                );
            }
        }
    }
    println!("\n(weighted extraction should hold precision as noisy rules are injected; plain JaccAR degrades)");
}
