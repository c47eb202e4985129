//! The conformance harness: one case generator, one brute-force oracle, and
//! one registration per execution path, each answer compared with the
//! oracle and with the reference path.
//!
//! The paper's contract is exact: Definition 2.2 names every `(e, s)` with
//! `JaccAR(e, s) ≥ τ`, and Simple, Skip, Dynamic and Lazy return that same
//! answer. A case ([`case::Case`]) draws one value per axis:
//!
//! - **world**: a dictionary, weighted rules, and a delta sequence;
//! - **strategy**: the four of `Strategy::ALL`, set through `AeetesConfig`
//!   so that the pooled and streamed paths honour it too;
//! - **build**: the `Aeetes` monolith, or `ShardedEngine::build` in 1, 2 or
//!   7 parts, heap-built, opened with `open_frozen_bytes`, or mapped with
//!   `open_frozen`;
//! - **state**: fresh, tailed, or compacted after the deltas, applied with
//!   `apply_update`;
//! - **request**: τ in [0.3, 1.0], metric, weighted, `top_k`, and a budget
//!   (`max_candidates`, `max_matches` or a fired `CancelToken`).
//!
//! [`paths::Built`] builds the case's engines once. Every registered path
//! ([`paths::PATHS`]: direct `extract_request`, `extract_batch_into` at 1
//! and 2 threads, a `StreamExtractor` fed random byte cuts, one `extract`
//! request line through an `aeetes serve` `Session` whose job runs on the
//! calling thread, FaerieR on its domain) answers the case, or says it
//! cannot express it. Each answer is
//! compared with [`oracle::answer`] on `(span, entity)`, scores within
//! 1e-12 and, on paths that report one, the best variant; and bit for bit
//! with the reference path: the heap `Aeetes` over the live dictionary,
//! direct call, same request unlimited. A truncated answer must be a subset
//! of both full answers.
//!
//! The fixed cases add what a small generator cannot reach: ids past 16
//! bits, a rule-dense corpus, and the three datagen corpora, where FaerieR
//! and the reference are the checks because a brute force is too slow.
//!
//! The harness is a module the answer suites share; each drives part of
//! it:
//!
//! - `tests/brute_force_oracle.rs`: the generated matrix
//!   (`engine_matches_brute_force`), ids past 16 bits and the rule-dense
//!   corpus, against the oracle;
//! - `tests/metric_oracle.rs`: generated worlds under every metric of
//!   `Metric::ALL`, against the oracle;
//! - `tests/end_to_end.rs` (`all_strategies_agree_on_every_corpus`, seed
//!   7) and `tests/baseline_agreement.rs`
//!   (`faerier_and_aeetes_return_identical_pairs`, seed 11): the datagen
//!   corpora through [`datagen_corpora`].
//!
//! The suites this harness replaced, and what checks their behaviours now:
//!
//! | replaced | now checked by |
//! |---|---|
//! | `tests/brute_force_oracle.rs`'s and `tests/metric_oracle.rs`'s own generators and oracles; `core` `extractor.rs`: `all_strategies_agree_end_to_end` | the generated cases: every strategy and metric against the oracle |
//! | `tests/end_to_end.rs`: `all_strategies_agree_on_every_corpus`'s pairwise loop; `tests/baseline_agreement.rs`: `faerier_and_aeetes_return_identical_pairs`'s loop | [`datagen_corpora`]: the same corpora, every strategy over a frozen build of its own, against the reference, the FaerieR path and one another |
//! | `core` `topk.rs`: `pruned_equals_naive`, `pruned_equals_naive_on_fixture` | the `top_k` axis (k ∈ 0..=4): the pruned scan against `select_top_k` of the oracle, every strategy, τ down to 0.3 |
//! | `core/tests/properties.rs`: `persistence_round_trip`; `shard/tests/frozen_suite.rs`: `frozen_equals_monolithic_across_strategies_and_metrics`; `shard/tests/properties.rs`: `sharded_persistence_round_trip` | the build axis: opened from bytes and mapped, × strategy × metric, the config read back from the artifact (the streamed path uses it) |
//! | `shard` `engine.rs`: `every_part_count_matches_monolithic`; `shard/tests/properties.rs`: `sharded_equals_monolithic` | the build × request axes: 1, 2 and 7 parts against the monolith and the oracle |
//! | `shard/tests/properties.rs`: `delta_equals_fresh_rebuild`, `spliced_generation_answers_every_request_shape_as_rebuilt`, the answers of `replay_against_rebuild` | the state × request axes: tailed and compacted generations (removing the longest set's origin, then every live origin, then a tail on the new base), heap-built, opened and mapped bases |
//! | `stream/tests/chunk_boundary.rs`: `streamed_equals_whole_document` | the streamed path: no cut, every byte cut, random and mid-UTF-8 cuts, interning as the whole document does |
//! | `pool/tests/batch.rs`: `parallel_matches_serial`, `extract_batch_with_matches_plain_extract`, `pooled_batch_matches_sequential_oracle`, `batch_carries_metric_and_top_k` | the pooled paths at 1 and 2 threads, every strategy, metric and `top_k` |
//! | `crates/cli/tests/serve_chaos.rs`: the only check that a served answer is the engine's (one fixed document) | the served path: every case a generation can serve and the wire can say (not weighted, not cancelled), parsed back off the wire |
//!
//! Run the release case count with
//! `cargo test --release --test brute_force_oracle --test metric_oracle`.

pub mod case;
pub mod oracle;
pub mod paths;

use aeetes::datagen::{generate, DatasetProfile};
use aeetes::{ExtractScratch, Strategy};
use case::{Case, World, BUILDS};
use paths::{check, Built};
use std::sync::Arc;

/// Generated cases per run.
#[allow(dead_code)]
pub const CASES: u64 = if cfg!(debug_assertions) { 400 } else { 20_000 };

/// Builds `case` and holds every path to the brute-force oracle and to the
/// reference. Returns, for each path that could express the case, whether
/// it found anything.
#[allow(dead_code)]
pub fn against_the_oracle(case: &Case) -> Vec<(&'static str, bool)> {
    let built = Built::new(case);
    let oracle = oracle::answer(built.reference.derived(), &built.doc, case.tau, case.metric, case.weighted);
    check(case, &built, Some(&oracle))
}

/// The three generated corpora at scale 0.01, each document at
/// τ ∈ {0.7, 0.8, 0.9, 1.0}, each strategy over a frozen build of its own.
/// Each (document, τ) runs every path under one strategy, in turn, against
/// the reference and FaerieR (a brute force is too slow at this size), and
/// the direct path under every strategy, which must answer as that one bit
/// for bit.
#[allow(dead_code)]
pub fn datagen_corpora(seed: u64) {
    for profile in DatasetProfile::all() {
        let data = generate(&profile.scaled(0.01).with_docs(4), seed);
        let world = Arc::new(World::new(data.name.clone(), data.dictionary.clone(), data.rules.clone(), data.interner.clone()));
        let over =
            |k: usize, label: String, text: String, tau: f64| Case::over(label, Arc::clone(&world), text, tau, Strategy::ALL[k], BUILDS[3 + 2 * k]);
        let mut engines: Vec<Built> = (0..4).map(|k| Built::new(&over(k, String::new(), String::new(), 1.0))).collect();
        let (mut runs, mut finds, mut scratch) = (0, 0, ExtractScratch::new());
        for (i, doc) in data.documents.iter().enumerate() {
            let text = data.interner.render(doc.tokens());
            for built in &mut engines {
                built.doc = built.parse(&text);
                assert_eq!(built.doc.tokens(), doc.tokens(), "the document re-tokenizes to itself");
            }
            for (j, tau) in [0.7, 0.8, 0.9, 1.0].into_iter().enumerate() {
                let cases: Vec<Case> = (0..4)
                    .map(|k| over(k, format!("{} document {i}, {}, tau {tau}", data.name, Strategy::ALL[k]), text.clone(), tau))
                    .collect();
                let r = (i + j) % 4;
                for (_, found) in check(&cases[r], &engines[r], None) {
                    runs += 1;
                    finds += usize::from(found);
                }
                let mut direct =
                    |built: &Built, case: &Case| built.engine().extract_request(&built.doc, &built.request(case), &mut scratch).matches.to_vec();
                let want = direct(&engines[r], &cases[r]);
                for (built, case) in engines.iter().zip(&cases) {
                    let got = direct(built, case);
                    assert!(got == want, "{}: {got:?}\n  {} answers {want:?}", case.label, Strategy::ALL[r]);
                }
            }
        }
        assert!(finds * 4 > runs, "{}: {finds} of {runs} answers found anything", data.name);
    }
}
