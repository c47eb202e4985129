//! Biomedical-style extraction on a synthetic PubMed-like corpus: measures
//! how much recall the synonym rules buy over purely syntactic matching —
//! the paper's §1 motivation ("Mitochondrial Disease" vs "Oxidative
//! Phosphorylation Deficiency") at corpus scale.
//!
//! Run with: `cargo run --example biomedical --release`

use aeetes::datagen::{generate, DatasetProfile, MentionForm};
use aeetes::{suppress_overlaps, Aeetes, AeetesConfig, Dictionary, RuleSet};

fn main() {
    // A small PubMed-like corpus (see aeetes-datagen for the calibration).
    let data = generate(&DatasetProfile::pubmed_like().scaled(0.05), 2024);
    println!(
        "corpus: {} documents, {} entities, {} synonym rules, {} gold mentions",
        data.documents.len(),
        data.dictionary.len(),
        data.rules.len(),
        data.gold.len()
    );

    let tau = 0.8;
    // Synonym-aware engine vs a rule-less engine (pure syntactic Jaccard).
    let with_rules = Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default());
    let without_rules = Aeetes::build(data.dictionary.clone(), &RuleSet::new(), &data.interner, AeetesConfig::default());

    let mut recall_with = Recall::default();
    let mut recall_without = Recall::default();

    for (doc_id, doc) in data.documents.iter().enumerate() {
        let found_with = suppress_overlaps(with_rules.extract(doc, tau));
        let found_without = suppress_overlaps(without_rules.extract(doc, tau));
        for g in data.gold_for(doc_id) {
            recall_with.tally(g.form, found_with.iter().any(|m| m.entity == g.entity && m.span == g.span));
            recall_without.tally(g.form, found_without.iter().any(|m| m.entity == g.entity && m.span == g.span));
        }
    }

    println!("\nrecall of gold mentions at τ = {tau}:");
    println!("  form      with rules   without rules");
    for form in [MentionForm::Exact, MentionForm::Synonym, MentionForm::Noisy] {
        println!("  {:8} {:>10.3} {:>14.3}", format!("{form:?}"), recall_with.rate(form), recall_without.rate(form));
    }

    // The headline claim: synonym rules rescue the synonym-form mentions.
    assert!(recall_with.rate(MentionForm::Exact) > 0.95);
    assert!(recall_with.rate(MentionForm::Synonym) > 0.9);
    assert!(
        recall_without.rate(MentionForm::Synonym) < 0.3,
        "syntactic matching should miss most synonym mentions, got {}",
        recall_without.rate(MentionForm::Synonym)
    );
}

/// Per-form recall bookkeeping.
#[derive(Default)]
struct Recall {
    hits: std::collections::HashMap<MentionForm, (usize, usize)>,
}

impl Recall {
    fn tally(&mut self, form: MentionForm, hit: bool) {
        let e = self.hits.entry(form).or_insert((0, 0));
        e.1 += 1;
        if hit {
            e.0 += 1;
        }
    }
    fn rate(&self, form: MentionForm) -> f64 {
        let (h, n) = self.hits.get(&form).copied().unwrap_or((0, 0));
        if n == 0 {
            0.0
        } else {
            h as f64 / n as f64
        }
    }
}

// `Dictionary` needs Clone for the two engines above; assert it here so a
// regression fails loudly at compile time.
fn _assert_clone(d: &Dictionary) -> Dictionary {
    d.clone()
}
