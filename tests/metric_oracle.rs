//! The generalized-metric extension (§2.2) against the `conformance`
//! harness's one brute-force oracle: extraction under Jaccard, Dice, Cosine
//! and Overlap must coincide with `max over variants of metric(variant set,
//! substring set)` on every path.
//!
//! Run the release case count with `cargo test --release --test metric_oracle`.

mod conformance;

use aeetes::Metric;
use conformance::case::Case;
use conformance::{against_the_oracle, CASES};

/// A quarter as many generated worlds as the matrix (seeds past its own),
/// each answered under every metric of `Metric::ALL` where the matrix draws
/// one. Each metric must find something on at least 5 of them.
#[test]
fn all_metrics_match_brute_force() {
    for metric in Metric::ALL {
        let mut finds = 0;
        for seed in CASES..CASES + CASES / 4 {
            let case = Case { label: format!("case {seed} under {metric}"), metric, ..Case::generate(seed, 0) };
            finds += usize::from(against_the_oracle(&case).iter().any(|&(_, found)| found));
        }
        assert!(finds >= 5, "{metric}: {finds} of {} cases with matches", CASES / 4);
    }
}
