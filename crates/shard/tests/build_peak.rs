//! A build's transient memory is a fraction of what it builds: across
//! `ShardedEngine::build` the peak of live heap bytes stays under one and a
//! half times what the engine retains.
//!
//! A part is derived straight into its index blocks, so beside the arrays it
//! keeps the build holds only the per-origin scratch of the enumeration, one
//! frequency count per token and, while the blocks are clustered, a `u32`
//! group key per index entry; the merge of the parts into one index then
//! holds beside them at most the merged cluster arrays or one part's blocks.
//! Until the clusters were filed straight into their tokens' ranges, an
//! eight-byte sort record per entry, grown by a quarter at a time, stood
//! there, and the cluster array was allocated beside the records: the build
//! peaked at 1.57–1.72 times what it kept. The pipeline this replaced materialised every
//! variant's token sequence, rule ids and offsets first — 20 MB beside an
//! 11 MB artifact on the benchmark's usjob dictionary — and peaked at three
//! times what it kept.
//!
//! The proof is the counting allocator of `live_bytes`; this file holds
//! exactly one test so no concurrent test can perturb its counters.

mod live_bytes;

use aeetes_core::AeetesConfig;
use aeetes_datagen::{generate, DatasetProfile};
use aeetes_shard::ShardedEngine;

#[test]
fn a_build_peaks_under_one_and_a_half_times_what_it_retains() {
    // The shape of the benchmark's `usjob_batch`: ~23 rules per entity, two
    // build parts. At 0.09 the engine retains 2 066 616 bytes, under the
    // floor, since it shares the caller's interner rather than copying it.
    let data = generate(&DatasetProfile::usjob_like().scaled(0.1).with_docs(1), 12);
    let dict = data.dictionary.clone();
    let (_engine, retained, transient) = live_bytes::measured(|| ShardedEngine::build(dict, &data.rules, &data.interner, AeetesConfig::default(), 2));

    assert!(retained > 2 << 20, "corpus too small to price a build: the engine retains {retained} bytes");
    assert!(
        transient as f64 <= retained as f64 * 1.5,
        "the build peaked {transient} bytes above where it started but retains {retained}: {:.2} times",
        transient as f64 / retained as f64
    );
    println!(
        "build_peak: {transient} bytes at the peak for {retained} retained: {:.2} times, of 1.50",
        transient as f64 / retained as f64
    );
}
