//! Per-layer probes: the harness calls each crate's public functions on the
//! workload's own documents and times them from outside. Nothing here adds
//! a probe to the program; the only figures not timed from outside are
//! `core.stage.*`, which read the sampled `StageSlots` estimates the engine
//! already returns with every extraction.

use crate::inputs::{DeltaGen, Path as ReqPath, TAU, THREADS};
use crate::paths::{parse_extract_reply, Ctx};
use crate::procfs::{self, Who};
use crate::schema::Metrics;
use crate::servectl::{spawn_listener, spawn_stdio, Client, TcpClient};
use crate::stats::{median, percentile_sorted, sort};
use crate::trace::{Span, Trace};
use aeetes_cli::protocol::{delta_value, ok_line, parse_request, Ceilings, Request};
use aeetes_core::{
    extract_top_k_with, generate_candidates, open_frozen, Aeetes, AeetesConfig, BatchOptions, ExtractBackend, ExtractLimits, ExtractScratch,
    ExtractStats, Match, Stage, StageSlots, Strategy, Wal,
};
use aeetes_index::ClusteredIndex;
use aeetes_pool::{extract_batch_into, BatchBuf, Pool};
use aeetes_rules::DerivedDictionary;
use aeetes_shard::{Generation, ShardedEngine};
use aeetes_sim::{JaccArVerifier, Metric};
use aeetes_stream::StreamExtractor;
use aeetes_text::{Document, Interner, TokenId, Tokenizer};
use serde_json::{json, Value};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Documents a probe runs over (the first ones of the pass).
const SAMPLE_DOCS: usize = 40;
/// Documents of the four-strategy and top-k rows (Simple costs 2–6× Lazy).
const STRATEGY_DOCS: usize = 16;
/// Timed repetitions of a per-document probe; the median is reported.
const REPS: usize = 5;
/// Requests sent to each spawned server (`serve` TCP, `serve` stdin, fleet).
const WIRE_REQUESTS: usize = 25;
/// Repetitions of a replayed call; the fastest is the span (the first also
/// warms the scratch).
pub const REPLAY_REPS: usize = 4;
/// Deltas of the `shard.apply_update_*` probe.
const PROBE_UPDATES: usize = 10;

const SEQUENTIAL: ExtractLimits = ExtractLimits { fanout_threshold: Some(u64::MAX), ..ExtractLimits::UNLIMITED };
const FANOUT: ExtractLimits = ExtractLimits { fanout_threshold: Some(0), ..ExtractLimits::UNLIMITED };

/// What the probes add to the run's operation counts and remarks.
#[derive(Debug, Default)]
pub struct ProbeOutcome {
    /// Operations attempted against a spawned server.
    pub attempted: u64,
    /// Of those, refused or wrong.
    pub failed: u64,
    /// Remarks for the human-readable output.
    pub notes: Vec<String>,
}

/// Shared state of the probes: a monolithic engine, a heap-built
/// `THREADS`-shard engine over the same dictionary, and that engine's frozen
/// artifact.
pub struct Kit<'a> {
    ctx: &'a Ctx<'a>,
    mono: Aeetes,
    sharded: ShardedEngine,
    artifact: PathBuf,
    tokenizer: Tokenizer,
    sample: usize,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Runs `f(j)` for every `j < n`, [`REPS`] times after one warm-up pass,
/// and returns the median over passes of the mean nanoseconds per call.
fn per_doc_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut passes = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t = Instant::now();
        for j in 0..n {
            f(j);
        }
        if rep > 0 {
            passes.push(ns_since(t) / n as f64);
        }
    }
    median(&mut passes)
}

/// Median wall time of `f` in nanoseconds over `reps` runs.
fn median_run_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut runs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        runs.push(ns_since(t));
        last = Some(out);
    }
    (median(&mut runs), last.expect("reps >= 1"))
}

/// Times `f` into `slot` (nanoseconds) and, when tracing, records it as a
/// span named `name` under the trace's parent.
fn stage<R>(trace: &mut Option<(&mut Trace, Option<usize>, u64)>, name: &'static str, slot: &mut f64, f: impl FnOnce() -> R) -> (R, Option<usize>) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    *slot = end.duration_since(start).as_nanos() as f64;
    let id = trace.as_mut().and_then(|(tr, parent, request)| {
        let (start_ns, end_ns) = (tr.ns_at(start), tr.ns_at(end));
        tr.push(Span { name, start_ns, end_ns, parent: *parent, request: *request, lanes: 1 })
    });
    (out, id)
}

fn render_matches(matches: &[Match], generation: &Generation, doc: &Document) -> Value {
    // The same fields, in the same order, as `serve`'s reply.
    Value::Array(
        matches
            .iter()
            .map(|m| {
                json!({
                    "start": m.span.start,
                    "len": m.span.len,
                    "score": m.score,
                    "entity": m.entity.0,
                    "entity_text": generation.dictionary().record(m.entity).raw,
                    "matched_text": doc.text_of(m.span).unwrap_or_default(),
                })
            })
            .collect(),
    )
}

/// Nanoseconds of one request's in-process stages.
#[derive(Debug, Default, Clone, Copy)]
struct Inproc {
    parse: f64,
    tokenize: f64,
    extract: f64,
    serialize: f64,
    response_bytes: usize,
}

impl Inproc {
    fn total(&self) -> f64 {
        self.parse + self.tokenize + self.extract + self.serialize
    }
}

impl<'a> Kit<'a> {
    /// Builds the probe engines and writes the probe artifact.
    pub fn new(ctx: &'a Ctx<'a>) -> Result<Self, String> {
        let d = &ctx.inputs.data;
        let mono = crate::check::reference_engine(ctx.inputs);
        let sharded = ShardedEngine::build(d.dictionary.clone(), &d.rules, &d.interner, AeetesConfig::default(), THREADS);
        let artifact = ctx.out_dir.join(format!("{}.probe.aeet", ctx.spec.name));
        std::fs::write(&artifact, sharded.freeze()).map_err(|e| format!("{}: {e}", artifact.display()))?;
        let sample = ctx.inputs.docs.len().min(SAMPLE_DOCS);
        Ok(Kit { ctx, mono, sharded, artifact, tokenizer: Tokenizer::default(), sample })
    }

    fn docs(&self) -> &'a [Document] {
        &self.ctx.inputs.docs[..self.sample]
    }

    fn interner(&self) -> Interner {
        self.ctx.inputs.data.interner.clone()
    }

    /// What `serve` does with one request line, stage by stage, in this
    /// process; records a span per stage under the given parent when tracing.
    fn inproc_request(
        &self,
        line: &str,
        generation: &Generation,
        interner: &mut Interner,
        scratch: &mut ExtractScratch,
        mut trace: Option<(&mut Trace, Option<usize>, u64)>,
    ) -> Inproc {
        let mut times = Inproc::default();
        let (parsed, _) = stage(&mut trace, "protocol.parse", &mut times.parse, || parse_request(line, &Ceilings::default()));
        let Ok(Request::Extract(req)) = parsed else {
            panic!("the harness serialised a request `serve` would reject")
        };
        let (doc, _) = stage(&mut trace, "text.tokenize", &mut times.tokenize, || Document::parse(&req.doc, &self.tokenizer, interner));
        let (matches, shard_span) = stage(&mut trace, "shard.extract", &mut times.extract, || {
            generation.extract_scratched(&doc, req.tau, &req.limits, None, scratch).matches.to_vec()
        });
        if let Some((tr, _, request)) = trace.as_mut() {
            self.replay_core(&doc, tr, shard_span, *request, &mut ExtractScratch::new());
        }
        let (reply, _) = stage(&mut trace, "protocol.serialize", &mut times.serialize, || {
            ok_line(&req.id, render_matches(&matches, generation, &doc), false)
        });
        times.response_bytes = reply.len() + 1;
        times
    }

    /// The monolithic engine on `doc`, as a `core.extract` span under `parent`.
    fn replay_core(&self, doc: &Document, trace: &mut Trace, parent: Option<usize>, request: u64, scratch: &mut ExtractScratch) -> Option<usize> {
        trace.time_fastest("core.extract", parent, request, REPLAY_REPS, || {
            std::hint::black_box(self.mono.extract_scratched(doc, TAU, &ExtractLimits::UNLIMITED, None, scratch).matches.len());
        })
    }

    /// The 2-shard engine on `doc` as a `shard.extract` span under `parent`,
    /// and beneath it the engine the shards wrap.
    fn replay_shard(&self, doc: &Document, trace: &mut Trace, parent: Option<usize>, request: u64, scratch: &mut ExtractScratch) {
        let generation = self.sharded.snapshot();
        let shard = trace.time_fastest("shard.extract", parent, request, REPLAY_REPS, || {
            std::hint::black_box(generation.extract_scratched(doc, TAU, &SEQUENTIAL, None, scratch).matches.len());
        });
        self.replay_core(doc, trace, shard, request, scratch);
    }

    /// Replays request `i` of the workload layer by layer, each layer's span
    /// linked to the span of the layer that wraps it (`op` at the top).
    pub fn replay(&self, i: usize, trace: &mut Trace, op: usize) {
        let request = trace.spans()[op].request;
        let op = Some(op);
        let mut scratch = ExtractScratch::new();
        match self.ctx.spec.path {
            ReqPath::Serve => {
                let line = std::str::from_utf8(&self.ctx.serve_requests[i]).expect("requests are UTF-8").trim_end();
                let generation = self.sharded.snapshot();
                let mut interner = generation.interner().clone();
                self.inproc_request(line, &generation, &mut interner, &mut scratch, None); // warm
                self.inproc_request(line, &generation, &mut interner, &mut scratch, Some((trace, op, request)));
            }
            ReqPath::Engine => {
                self.replay_core(&self.ctx.inputs.docs[i], trace, op, request, &mut scratch);
            }
            ReqPath::Batch => {
                let n = self.ctx.spec.batch;
                for doc in &self.ctx.inputs.docs[i * n..(i + 1) * n] {
                    self.replay_shard(doc, trace, op, request, &mut scratch);
                }
            }
            ReqPath::UpdateMix => self.replay_shard(&self.ctx.inputs.docs[i], trace, op, request, &mut scratch),
        }
    }

    /// Runs every probe and records every per-layer metric except `bench.*`.
    pub fn probe_all(&self, m: &mut Metrics) -> Result<ProbeOutcome, String> {
        let mut outcome = ProbeOutcome::default();
        self.probe_text(m);
        self.probe_build(m);
        let core_ns = self.probe_core(m);
        self.probe_strategies(m);
        self.probe_wal(m)?;
        self.probe_sim(m);
        self.probe_frozen(m)?;
        self.probe_shard(m, core_ns);
        self.probe_pool(m)?;
        self.probe_stream(m);
        let inproc_us = self.probe_protocol(m);
        let direct_us = self.probe_serve(m, inproc_us, &mut outcome)?;
        self.probe_cluster(m, direct_us, &mut outcome)?;
        let _ = std::fs::remove_file(&self.artifact);
        Ok(outcome)
    }

    fn probe_text(&self, m: &mut Metrics) {
        let texts = &self.ctx.inputs.texts[..self.sample];
        let mut interner = self.interner();
        let tokens: usize = self.docs().iter().map(Document::len).sum();
        let ns = per_doc_ns(texts.len(), |j| {
            std::hint::black_box(Document::parse(&texts[j], &self.tokenizer, &mut interner).len());
        });
        m.set("text.tokenize_ns_per_doc", ns);
        m.set("text.tokens_per_doc", tokens as f64 / texts.len() as f64);
    }

    fn probe_build(&self, m: &mut Metrics) {
        let d = &self.ctx.inputs.data;
        let config = AeetesConfig::default();
        let (derive_ns, dd) = median_run_ns(3, || DerivedDictionary::build(&d.dictionary, &d.rules, &config.derive));
        let (index_ns, index) = median_run_ns(3, || ClusteredIndex::build(&dd, &d.interner));
        m.set("rules.derive_ms", derive_ns / 1e6);
        m.set("rules.derived_variants", dd.len() as f64);
        m.set("index.build_ms", index_ns / 1e6);
        m.set("index.entries", index.total_entries() as f64);
        m.set("index.size_bytes", index.size_bytes() as f64);
    }

    fn probe_core(&self, m: &mut Metrics) -> f64 {
        let docs = self.docs();
        let mut scratch = ExtractScratch::new();
        let mut stages = StageSlots::default();
        let mut stats = ExtractStats::default();
        let ns = per_doc_ns(docs.len(), |j| {
            let out = self.mono.extract_scratched(&docs[j], TAU, &ExtractLimits::UNLIMITED, None, &mut scratch);
            stages.merge(&out.stages);
            stats += out.stats;
        });
        // Slots and counters accumulated over warm-up + REPS identical passes.
        let per = ((REPS + 1) * docs.len()) as f64;
        let stage = |s: Stage| stages.estimated_nanos(s) as f64 / per;
        m.set("core.extract_ns_per_doc", ns);
        m.set("core.stage.remap_ns_per_doc", stage(Stage::Remap));
        m.set("core.stage.prefix_update_ns_per_doc", stage(Stage::PrefixUpdate));
        m.set("core.stage.window_slide_ns_per_doc", stage(Stage::WindowSlide));
        m.set("core.stage.candidate_gen_ns_per_doc", stage(Stage::CandidateGen));
        m.set("core.stage.verify_ns_per_doc", stage(Stage::Verify));
        // Shares of the engine call's wall time over the same passes. Window
        // slide is inclusive of prefix maintenance and candidate generation;
        // what the three stages leave (result ordering, scratch resets) is
        // in neither share.
        m.set("core.window_share", stage(Stage::WindowSlide) / ns);
        m.set("core.verify_share", stage(Stage::Verify) / ns);
        m.set("core.accessed_entries_per_doc", stats.accessed_entries as f64 / per);
        m.set("core.candidates_per_doc", stats.candidates as f64 / per);
        m.set("core.verifications_per_doc", stats.verifications as f64 / per);
        m.set("core.matches_per_doc", stats.matches as f64 / per);
        m.set("core.windows_per_doc", stats.windows as f64 / per);
        m.set("core.candidate_precision", stats.matches as f64 / stats.candidates.max(1) as f64);
        m.set("sim.variants_per_verify", stats.verifications as f64 / stats.candidates.max(1) as f64);
        ns
    }

    /// Paper Fig. 10/11 as rows: wall time and accessed entries of the four
    /// strategies, plus bound-pruned top-5.
    fn probe_strategies(&self, m: &mut Metrics) {
        let docs = &self.docs()[..self.sample.min(STRATEGY_DOCS)];
        let names: [(&'static str, &'static str); 4] = [
            ("core.strategy.simple.ns_per_doc", "core.strategy.simple.accessed_entries_per_doc"),
            ("core.strategy.skip.ns_per_doc", "core.strategy.skip.accessed_entries_per_doc"),
            ("core.strategy.dynamic.ns_per_doc", "core.strategy.dynamic.accessed_entries_per_doc"),
            ("core.strategy.lazy.ns_per_doc", "core.strategy.lazy.accessed_entries_per_doc"),
        ];
        let mut full_candidates = 0u64;
        for (strategy, (ns_name, accessed_name)) in Strategy::ALL.into_iter().zip(names) {
            let mut accessed = 0u64;
            let mut candidates = 0u64;
            let ns = per_doc_ns(docs.len(), |j| {
                let (matches, stats) = self.mono.extract_with(&docs[j], TAU, strategy);
                std::hint::black_box(matches.len());
                accessed += stats.accessed_entries;
                candidates += stats.candidates;
            });
            let per = ((REPS + 1) * docs.len()) as f64;
            m.set(ns_name, ns);
            m.set(accessed_name, accessed as f64 / per);
            full_candidates = candidates;
        }
        let mut pruned_candidates = 0u64;
        let ns = per_doc_ns(docs.len(), |j| {
            let (matches, stats) = extract_top_k_with(&self.mono, &docs[j], 5, TAU, Metric::Jaccard);
            std::hint::black_box(matches.len());
            pruned_candidates += stats.candidates;
        });
        m.set("core.topk5_ns_per_doc", ns);
        m.set("core.topk5_candidate_share", pruned_candidates as f64 / full_candidates.max(1) as f64);
    }

    fn probe_wal(&self, m: &mut Metrics) -> Result<(), String> {
        let path = self.ctx.out_dir.join(format!("{}.probe.wal", self.ctx.spec.name));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::create(&path, 1).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut gen = DeltaGen::new(self.ctx.inputs.data.dictionary.len());
        let mut samples = Vec::new();
        for i in 0..20u64 {
            let payload = delta_value(&gen.next(&self.ctx.inputs.update_sets)).to_string();
            let t = Instant::now();
            wal.append(2 + i, payload.as_bytes())
                .and_then(|()| wal.sync())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            samples.push(ns_since(t) / 1e3);
        }
        drop(wal);
        let _ = std::fs::remove_file(&path);
        m.set("core.wal_append_sync_us_p50", median(&mut samples));
        Ok(())
    }

    /// JaccAR verification replayed on the candidates the engine generates
    /// for the sample documents.
    fn probe_sim(&self, m: &mut Metrics) {
        let mut scratch = ExtractScratch::new();
        let mut calls: Vec<(aeetes_text::EntityId, Vec<TokenId>)> = Vec::new();
        for doc in self.docs() {
            let (pairs, _) = generate_candidates(self.mono.index(), doc, TAU, Metric::Jaccard, Strategy::Lazy, &mut scratch);
            for &(span, entity) in pairs {
                let mut set = doc.slice(span).to_vec();
                set.sort_unstable();
                set.dedup();
                calls.push((entity, set));
            }
        }
        let verifier = JaccArVerifier::new(self.mono.derived());
        let ns = if calls.is_empty() {
            0.0
        } else {
            per_doc_ns(1, |_| {
                for (entity, set) in &calls {
                    std::hint::black_box(verifier.verify(*entity, set, TAU));
                }
            }) / calls.len() as f64
        };
        m.set("sim.verify_ns_per_call", ns);
    }

    fn probe_frozen(&self, m: &mut Metrics) -> Result<(), String> {
        let docs = self.docs();
        let (freeze_ns, _) = median_run_ns(3, || self.sharded.freeze().len());
        let mut open_us = Vec::new();
        let mut first_us = Vec::new();
        let mut adopted = None;
        for _ in 0..5 {
            drop(adopted.take());
            let t = Instant::now();
            let parts = open_frozen(&self.artifact).map_err(|e| format!("{}: {e}", self.artifact.display()))?;
            let engine = ShardedEngine::from_frozen(parts, None)?;
            open_us.push(ns_since(t) / 1e3);
            let t = Instant::now();
            std::hint::black_box(
                engine
                    .snapshot()
                    .extract_scratched(&docs[0], TAU, &SEQUENTIAL, None, &mut ExtractScratch::new())
                    .matches
                    .len(),
            );
            first_us.push(ns_since(t) / 1e3);
            adopted = Some(engine);
        }
        let adopted = adopted.expect("opened five times");
        let mut scratch = ExtractScratch::new();
        let frozen_gen = adopted.snapshot();
        let frozen_ns = per_doc_ns(docs.len(), |j| {
            std::hint::black_box(frozen_gen.extract_scratched(&docs[j], TAU, &SEQUENTIAL, None, &mut scratch).matches.len());
        });
        let heap_gen = self.sharded.snapshot();
        let heap_ns = per_doc_ns(docs.len(), |j| {
            std::hint::black_box(heap_gen.extract_scratched(&docs[j], TAU, &SEQUENTIAL, None, &mut scratch).matches.len());
        });
        m.set("frozen.freeze_ms", freeze_ns / 1e6);
        m.set("frozen.open_us", median(&mut open_us));
        m.set("frozen.first_extract_us", median(&mut first_us));
        m.set("frozen.extract_ratio", frozen_ns / heap_ns);
        Ok(())
    }

    fn probe_shard(&self, m: &mut Metrics, core_ns: f64) {
        let docs = self.docs();
        let mut scratch = ExtractScratch::new();
        let generation = self.sharded.snapshot();
        let seq_ns = per_doc_ns(docs.len(), |j| {
            std::hint::black_box(generation.extract_scratched(&docs[j], TAU, &SEQUENTIAL, None, &mut scratch).matches.len());
        });
        let fan_ns = per_doc_ns(docs.len(), |j| {
            std::hint::black_box(generation.extract_scratched(&docs[j], TAU, &FANOUT, None, &mut scratch).matches.len());
        });
        // How the engine's own cost model routes these documents.
        let before = generation.routing_stats();
        for doc in docs {
            generation.extract_scratched(doc, TAU, &ExtractLimits::UNLIMITED, None, &mut scratch);
        }
        let after = generation.routing_stats();
        let (seq, fan) = (after.0 - before.0, after.1 - before.1);
        m.set("shard.extract_ns_per_doc", seq_ns);
        m.set("shard.overhead_ratio", seq_ns / core_ns);
        m.set("shard.fanout_ns_per_doc", fan_ns);
        m.set("shard.route_fanout_share", fan as f64 / (seq + fan).max(1) as f64);
        drop(generation);

        // Copy-on-write updates on a private copy of the engine, so the
        // other probes keep measuring generation 1.
        let d = &self.ctx.inputs.data;
        let engine = ShardedEngine::build(d.dictionary.clone(), &d.rules, &d.interner, AeetesConfig::default(), THREADS);
        let mut gen = DeltaGen::new(d.dictionary.len());
        engine
            .apply_update(&gen.next(&self.ctx.inputs.update_sets), &self.tokenizer)
            .expect("priming delta applies");
        let mut update_ms = Vec::new();
        let mut first_us = Vec::new();
        for _ in 0..PROBE_UPDATES {
            let delta = gen.next(&self.ctx.inputs.update_sets);
            let t = Instant::now();
            let next = engine.apply_update(&delta, &self.tokenizer).expect("seeded delta applies");
            update_ms.push(ns_since(t) / 1e6);
            let t = Instant::now();
            std::hint::black_box(next.extract_scratched(&docs[0], TAU, &SEQUENTIAL, None, &mut scratch).matches.len());
            first_us.push(ns_since(t) / 1e3);
        }
        sort(&mut update_ms);
        m.set("shard.apply_update_ms_p50", percentile_sorted(&update_ms, 0.5));
        m.set("shard.apply_update_ms_p90", percentile_sorted(&update_ms, 0.9));
        m.set("shard.post_swap_first_extract_us", median(&mut first_us));

        // The concurrent view: one reader thread beside one writer thread
        // (two busy threads, the machine's budget) for about a second.
        let stop = AtomicBool::new(false);
        let mut read = 0u64;
        let started = Instant::now();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    engine
                        .apply_update(&gen.next(&self.ctx.inputs.update_sets), &self.tokenizer)
                        .expect("seeded delta applies");
                }
            });
            while started.elapsed() < Duration::from_secs(1) {
                for doc in docs {
                    std::hint::black_box(engine.snapshot().extract_scratched(doc, TAU, &SEQUENTIAL, None, &mut scratch).matches.len());
                    read += 1;
                }
            }
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("writer thread panicked");
        });
        m.set("shard.reader_docs_per_s_beside_writer", read as f64 / started.elapsed().as_secs_f64());
    }

    fn probe_pool(&self, m: &mut Metrics) -> Result<(), String> {
        let docs = self.docs();
        let batch = 8.min(docs.len());
        let batches: Vec<&[Document]> = docs.chunks_exact(batch).collect();
        let generation = self.sharded.snapshot();
        let pool = Pool::global();
        let mut buf = BatchBuf::new();
        let mut scratch = ExtractScratch::new();
        // Inline batch against a plain loop, paired batch by batch and
        // alternating which goes first, so drift between two separate
        // measurements cannot pass for (or hide) dispatch cost.
        let inline_opts = BatchOptions { threads: 1, limits: SEQUENTIAL, ..BatchOptions::default() };
        let two_opts = BatchOptions { threads: THREADS, limits: SEQUENTIAL, ..BatchOptions::default() };
        let mut dispatch = Vec::new();
        let mut scaling = Vec::new();
        for rep in 0..=REPS {
            for b in &batches {
                let mut plain = || {
                    let t = Instant::now();
                    for doc in b.iter() {
                        std::hint::black_box(generation.extract_scratched(doc, TAU, &SEQUENTIAL, None, &mut scratch).matches.len());
                    }
                    ns_since(t)
                };
                let (plain_ns, inline_ns);
                if rep % 2 == 0 {
                    plain_ns = plain();
                    let t = Instant::now();
                    extract_batch_into(pool, &*generation, b, TAU, &inline_opts, &mut buf);
                    inline_ns = ns_since(t);
                } else {
                    let t = Instant::now();
                    extract_batch_into(pool, &*generation, b, TAU, &inline_opts, &mut buf);
                    inline_ns = ns_since(t);
                    plain_ns = plain();
                }
                let t = Instant::now();
                extract_batch_into(pool, &*generation, b, TAU, &two_opts, &mut buf);
                let two_ns = ns_since(t);
                if rep > 0 {
                    dispatch.push((inline_ns - plain_ns) / batch as f64);
                    scaling.push(inline_ns / two_ns);
                }
            }
        }
        m.set("pool.dispatch_ns_per_doc", median(&mut dispatch));
        m.set("pool.scaling_w2", median(&mut scaling));

        // A second of two-worker batches for the scheduler's own counters
        // and the process's CPU time.
        let before = pool.stats();
        let cpu_before = procfs::cpu_seconds(Who::Me)?;
        let started = Instant::now();
        let mut ran = 0usize;
        while started.elapsed() < Duration::from_secs(1) {
            for b in &batches {
                extract_batch_into(pool, &*generation, b, TAU, &two_opts, &mut buf);
            }
            ran += batches.len();
        }
        let wall = started.elapsed().as_secs_f64();
        let cpu = procfs::cpu_seconds(Who::Me)? - cpu_before;
        let after = pool.stats();
        let busy: u64 = after.busy_nanos.iter().zip(&before.busy_nanos).map(|(a, b)| a - b).sum();
        m.set("pool.tasks_per_batch", (after.executed - before.executed) as f64 / ran as f64);
        m.set("pool.steals_per_batch", (after.steals - before.steals) as f64 / ran as f64);
        m.set("pool.worker_busy_share", busy as f64 / 1e9 / (wall * pool.workers() as f64));
        m.set("pool.cpu_ms_per_doc", cpu * 1e3 / (ran * batch) as f64);
        Ok(())
    }

    fn probe_stream(&self, m: &mut Metrics) {
        let texts = &self.ctx.inputs.texts[..self.sample];
        let mut interner = self.interner();
        let backend: &dyn ExtractBackend = &self.mono;
        let mut stream = StreamExtractor::new(backend, TAU);
        let feed_ns = per_doc_ns(texts.len(), |j| {
            let mut emitted = 0;
            for chunk in texts[j].as_bytes().chunks(4096) {
                emitted += stream.feed(backend, &self.tokenizer, &mut interner, chunk).len();
            }
            emitted += stream.finish(backend, &self.tokenizer, &mut interner).len();
            std::hint::black_box(emitted);
        });
        let mut scratch = ExtractScratch::new();
        let whole_ns = per_doc_ns(texts.len(), |j| {
            let doc = Document::parse(&texts[j], &self.tokenizer, &mut interner);
            std::hint::black_box(self.mono.extract_scratched(&doc, TAU, &ExtractLimits::UNLIMITED, None, &mut scratch).matches.len());
        });
        m.set("stream.feed_ns_per_doc", feed_ns);
        m.set("stream.overhead_ratio", feed_ns / whole_ns);
    }

    /// Returns the in-process microseconds of one request (parse + tokenise
    /// + extract + serialise), the figure `serve.wire_us_p50` subtracts.
    fn probe_protocol(&self, m: &mut Metrics) -> f64 {
        let lines: Vec<&str> = self.ctx.serve_requests[..self.sample]
            .iter()
            .map(|l| std::str::from_utf8(l).expect("UTF-8").trim_end())
            .collect();
        let generation = self.sharded.snapshot();
        let mut interner = generation.interner().clone();
        let mut scratch = ExtractScratch::new();
        let mut sums = [Vec::new(), Vec::new(), Vec::new()];
        let mut response_bytes = 0usize;
        for rep in 0..=REPS {
            let mut acc = Inproc::default();
            for line in &lines {
                let t = self.inproc_request(line, &generation, &mut interner, &mut scratch, None);
                acc.parse += t.parse;
                acc.serialize += t.serialize;
                acc.tokenize += t.tokenize;
                acc.extract += t.extract;
                acc.response_bytes += t.response_bytes;
            }
            if rep > 0 {
                let n = lines.len() as f64;
                sums[0].push(acc.parse / n);
                sums[1].push(acc.serialize / n);
                sums[2].push(acc.total() / n);
            }
            response_bytes = acc.response_bytes;
        }
        let request_bytes: usize = self.ctx.serve_requests[..self.sample].iter().map(Vec::len).sum();
        m.set("protocol.parse_ns_per_req", median(&mut sums[0]));
        m.set("protocol.serialize_ns_per_resp", median(&mut sums[1]));
        m.set("protocol.request_bytes", request_bytes as f64 / lines.len() as f64);
        m.set("protocol.response_bytes", response_bytes as f64 / lines.len() as f64);
        let inproc_us = median(&mut sums[2]) / 1e3;
        m.set("serve.inproc_us_per_req", inproc_us);
        inproc_us
    }

    /// Sends the sample requests one at a time and returns the round-trip
    /// times in microseconds; every reply is checked against the reference.
    fn wire_round_trips<W: Write, R: Read>(&self, client: &mut Client<W, R>, outcome: &mut ProbeOutcome) -> Result<Vec<f64>, String> {
        let mut reply = Vec::new();
        let mut us = Vec::with_capacity(WIRE_REQUESTS);
        for k in 0..=WIRE_REQUESTS {
            let j = k % self.sample;
            let t = Instant::now();
            client.round_trip(&self.ctx.serve_requests[j], &mut reply)?;
            let took = ns_since(t) / 1e3;
            if k > 0 {
                us.push(took); // the first request warms the worker's interner
            }
            let ok =
                parse_extract_reply(&reply).is_some_and(|g| crate::check::answers_match(g.into_iter(), self.ctx.reference.expected(j, None), None));
            outcome.attempted += 1;
            outcome.failed += u64::from(!ok);
        }
        Ok(us)
    }

    /// Returns the direct TCP p50 in microseconds (the fleet probe's base).
    fn probe_serve(&self, m: &mut Metrics, inproc_us: f64, outcome: &mut ProbeOutcome) -> Result<f64, String> {
        let artifact = self.artifact.to_str().expect("utf-8 path");
        let workers = THREADS.to_string();
        let log = self.ctx.out_dir.join(format!("{}.probe.log", self.ctx.spec.name));

        let (mut child, addr) =
            spawn_listener(self.ctx.aeetes, &["serve", "--engine", artifact, "--frozen", "--workers", &workers, "--listen", "127.0.0.1:0"], &log)?;
        let mut client = TcpClient::connect(&addr)?;
        let cpu_before = procfs::cpu_seconds(Who::Pid(child.pid()))?;
        let mut tcp_us = self.wire_round_trips(&mut client, outcome)?;
        let cpu = procfs::cpu_seconds(Who::Pid(child.pid()))? - cpu_before;
        let mut scrape_us = Vec::new();
        let mut families = 0usize;
        for _ in 0..5 {
            let t = Instant::now();
            let reply = client.control(&json!({"type": "metrics"}))?;
            scrape_us.push(ns_since(t) / 1e3);
            let names: std::collections::BTreeSet<&str> = reply
                .get("metrics")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(|f| f.get("name").and_then(Value::as_str)).collect())
                .unwrap_or_default();
            families = names.len();
        }
        let stats = client.control(&json!({"type": "stats"}))?;
        let count = |k: &str| stats.get("stats").and_then(|s| s.get(k)).and_then(Value::as_u64).unwrap_or(0) as f64;
        let answered = count("served") + count("shed") + count("failed");
        client.control(&json!({"type": "shutdown"}))?;
        drop(client);
        child.wait_or_kill()?;

        // The same requests over the stdin/stdout pipe: what is left of the
        // wire time once TCP is out of the picture.
        let (mut child, mut pipe) = spawn_stdio(self.ctx.aeetes, &["serve", "--engine", artifact, "--frozen", "--workers", &workers], &log)?;
        let mut stdin_us = self.wire_round_trips(&mut pipe, outcome)?;
        drop(pipe); // EOF on stdin is the shutdown signal of this mode
        child.wait_or_kill()?;

        let tcp_p50 = median(&mut tcp_us);
        m.set("serve.wire_us_p50", tcp_p50 - inproc_us);
        m.set("serve.stdin_us_per_req", median(&mut stdin_us));
        m.set("serve.cpu_us_per_req", cpu * 1e6 / (WIRE_REQUESTS + 1) as f64);
        m.set("serve.shed_share", if answered > 0.0 { count("shed") / answered } else { 0.0 });
        m.set("obs.metrics_scrape_us", median(&mut scrape_us));
        m.set("obs.metric_families", families as f64);
        if tcp_p50 > 10.0 * inproc_us.max(1.0) {
            outcome.notes.push(format!(
                "FINDING: a request takes {tcp_p50:.0} us over loopback TCP against {inproc_us:.0} us of in-process work (serve.wire_us_p50)"
            ));
        }
        Ok(tcp_p50)
    }

    fn probe_cluster(&self, m: &mut Metrics, direct_us: f64, outcome: &mut ProbeOutcome) -> Result<(), String> {
        let artifact = self.artifact.to_str().expect("utf-8 path");
        let workers = THREADS.to_string();
        let log = self.ctx.out_dir.join(format!("{}.fleet.log", self.ctx.spec.name));
        let args = [
            "fleet",
            "--replicas",
            "1",
            "--engine",
            artifact,
            "--frozen",
            "--workers",
            &workers,
            "--listen",
            "127.0.0.1:0",
        ];
        let (mut child, addr) = spawn_listener(self.ctx.aeetes, &args, &log)?;
        let mut client = TcpClient::connect(&addr)?;
        let mut us = self.wire_round_trips(&mut client, outcome)?;
        let stats = client.control(&json!({"type": "stats"}))?;
        let retried = stats.get("stats").and_then(|s| s.get("retried")).and_then(Value::as_u64).unwrap_or(0);
        client.control(&json!({"type": "shutdown"}))?;
        drop(client);
        child.wait_or_kill()?;
        m.set("cluster.hop_us_p50", median(&mut us) - direct_us);
        m.set("cluster.retries", retried as f64);
        Ok(())
    }
}
