//! Corpus-level mention analytics on a synthetic job-postings corpus — the
//! paper's §1 motivating pipeline: extract referenced entities from a large
//! document stream and aggregate them as analysis signals.
//!
//! Demonstrates `mention_report` (per-entity counts, top-k ranking) and
//! parallel batch extraction.
//!
//! Run with: `cargo run --release --example mention_analytics`

use aeetes::core::mention_report;
use aeetes::datagen::{generate, DatasetProfile};
use aeetes::{extract_batch_with, Aeetes, AeetesConfig, BatchOptions, Document, Match};
use std::time::Instant;

/// The matches of every document, extracted on `threads` pool workers.
fn batch(engine: &Aeetes, docs: &[Document], tau: f64, threads: usize) -> Vec<Vec<Match>> {
    let opts = BatchOptions { threads, ..BatchOptions::default() };
    extract_batch_with(engine, docs, tau, &opts)
        .into_iter()
        .map(|doc| doc.expect("no document panics or is cancelled").matches)
        .collect()
}

fn main() {
    let data = generate(&DatasetProfile::usjob_like().scaled(0.05), 7);
    let engine = Aeetes::build(data.dictionary.clone(), &data.rules, &data.interner, AeetesConfig::default());
    println!("corpus: {} documents, {} entities, {} synonym rules", data.documents.len(), data.dictionary.len(), data.rules.len());

    let tau = 0.85;

    // --- Aggregated report (suppressed: one mention per document region). ---
    let t = Instant::now();
    let report = mention_report(&engine, data.documents.iter(), tau, true);
    println!(
        "\nreport over {} docs in {:.1} ms: {} mentions of {} distinct entities \
         ({} docs with ≥1 mention)",
        report.documents,
        t.elapsed().as_secs_f64() * 1e3,
        report.total_mentions,
        report.distinct_entities(),
        report.documents_with_mentions,
    );
    println!("\ntop mentioned entities:");
    for (e, count) in report.top(5) {
        println!("  {count:>4} × {}", engine.dictionary().record(e).raw);
    }

    // --- The same extraction fanned out over worker threads. ---
    let t = Instant::now();
    let serial = batch(&engine, &data.documents, tau, 1);
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let parallel = batch(&engine, &data.documents, tau, 4);
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(serial, parallel, "parallel batch must match serial results");
    println!(
        "\nbatch extraction: {serial_ms:.1} ms on one thread, {parallel_ms:.1} ms on four \
         ({:.2}x)",
        serial_ms / parallel_ms.max(1e-9)
    );

    // Sanity: the report counts agree with the planted gold mention volume.
    assert!(report.total_mentions > 0);
    assert!(report.documents_with_mentions > data.documents.len() / 2);
}
