//! The introduction's motivating workload: a product analysis system that
//! scans consumer reviews for mentions of catalog products, where reviewers
//! abbreviate and paraphrase product names.
//!
//! Demonstrates batch extraction over many documents, overlap suppression,
//! top-k ranking and per-review reporting.
//!
//! Run with: `cargo run --example product_reviews`

use aeetes::{
    suppress_overlaps, Aeetes, AeetesConfig, Dictionary, Document, ExtractBackend, ExtractRequest, ExtractScratch, Interner, RuleSet, Tokenizer,
};

fn main() {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();

    // Product catalog.
    let mut catalog = Dictionary::new();
    for product in [
        "ThinkPad X1 Carbon Gen 11",
        "MacBook Pro 14 inch",
        "Galaxy S24 Ultra",
        "Pixel 8 Pro",
        "Surface Laptop Studio 2",
    ] {
        catalog.push(product, &tokenizer, &mut interner);
    }

    // Synonyms reviewers actually use.
    let mut rules = RuleSet::new();
    for (lhs, rhs) in [
        ("ThinkPad X1 Carbon", "X1C"),
        ("MacBook Pro", "MBP"),
        ("Galaxy S24 Ultra", "S24U"),
        ("14 inch", "14in"),
        ("Gen 11", "11th Gen"),
        ("Pixel 8 Pro", "P8P"),
    ] {
        rules.push_str(lhs, rhs, &tokenizer, &mut interner).expect("valid rule");
    }

    let engine = Aeetes::build(catalog, &rules, &interner, AeetesConfig::default());

    let reviews = [
        "Upgraded from my old laptop to the X1C Gen 11 and the keyboard is unreal.",
        "The MBP 14in throttles less than my desktop; battery life is absurd.",
        "Camera shootout: the S24U wins at night, but the P8P has better skin tones.",
        "Returned the Surface Laptop Studio 2, the hinge wobbled out of the box.",
        "No product mentioned here, just a rant about shipping delays.",
    ];

    let tau = 0.75;
    let mut total = 0;
    for (i, review) in reviews.iter().enumerate() {
        let doc = Document::parse(review, &tokenizer, &mut interner);
        let mentions = suppress_overlaps(engine.extract(&doc, tau));
        println!("review #{i}: {}", review);
        if mentions.is_empty() {
            println!("    (no product mentions)");
        }
        for m in &mentions {
            println!("    {:5.3}  \"{}\"  →  {}", m.score, doc.text_of(m.span).unwrap_or("<span>"), engine.dictionary().record(m.entity).raw,);
        }
        total += mentions.len();
        println!();
    }
    assert!(total >= 5, "expected at least five product mentions, got {total}");

    // Top-k: the single most confident mention in a noisy review.
    let doc = Document::parse("torn between the galaxy s24 ultra the pixel 8 pro and honestly the macbook pro 14 inch", &tokenizer, &mut interner);
    let top_3 = ExtractRequest { top_k: Some(3), ..ExtractRequest::new(0.6) };
    let mut scratch = ExtractScratch::new();
    let top = engine.extract_request(&doc, &top_3, &mut scratch).matches;
    println!("top-3 mentions in the comparison review:");
    for m in top {
        println!("    {:5.3}  \"{}\"  →  {}", m.score, doc.text_of(m.span).unwrap_or("<span>"), engine.dictionary().record(m.entity).raw,);
    }
    assert_eq!(top.len(), 3);
}
