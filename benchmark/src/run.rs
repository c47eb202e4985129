//! The run protocol — inputs, reference, set-up, warm-up, rounds — and the
//! two kinds of run built from it: end-to-end with tracing off (`--trace 0`)
//! and per-layer with tracing on (`--trace 1`).
//!
//! A *round* is one pass over the workload's fixed request list followed by
//! the workload's deltas, each delta timed on its own with nothing else
//! running and re-checked against the reference. Rounds repeat until
//! `--seconds` have elapsed.

use crate::check::{compute_reference, rebuilt_reference_mismatches, reference_engine};
use crate::inputs::{generate_inputs, DeltaGen, Inputs, Live, Path as ReqPath, Spec, THREADS, UPDATE_SETS};
use crate::layers;
use crate::paths::{serve_requests, setup, Ctx, Driver};
use crate::procfs;
use crate::schema::Metrics;
use crate::stats::{median, sort, tail_sorted};
use crate::trace::{Span, Trace};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Rounds every end-to-end run completes even when `--seconds` is shorter.
const MIN_PASSES: usize = 15;
/// `peak_rss_mb` is read at the end of this round (the resident set has
/// reached its plateau by the fourth).
const RSS_ROUNDS: usize = 5;
/// The floor of each of the two pass classes (untraced, traced) of a
/// per-layer run.
const MIN_TRACE_PASSES: usize = 3;
/// Set-ups per end-to-end run; `setup_s` is the fastest. A set-up is the
/// same work every time, and what varies is the machine: a neighbour on the
/// core's other hardware thread makes one take up to 1.5x as long for
/// seconds at a time, so the median of seven sits on either level depending
/// on how many of them a neighbour caught: over three series of six to
/// eight `dbworld_engine` runs within two hours the median read 0.097,
/// 0.099 and 0.137 s, the fastest 0.087, 0.093 and 0.105 s.
const SETUPS: usize = 7;
/// Share of `--seconds` a per-layer run spends on rounds; the replay and the
/// layer probes take the rest.
const TRACE_ROUNDS_SHARE: f64 = 0.5;
/// Documents replayed layer by layer.
const REPLAYED_DOCS: usize = 24;
/// The load generator's own work per request may be at most this share of
/// the request's latency, or the run fails: past it the numbers describe
/// the harness, not the engine.
const MAX_CLIENT_SHARE: f64 = 0.02;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub spec: &'static Spec,
    /// Input seed.
    pub seed: u64,
    /// How long the rounds go on.
    pub seconds: f64,
    /// The released `aeetes` binary.
    pub aeetes: PathBuf,
    /// Scratch directory inside the checkout.
    pub out_dir: PathBuf,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values.
    pub metrics: Metrics,
    /// Operations attempted (requests, updates, re-checks, gold mentions).
    pub attempted: u64,
    /// Operations refused, errored or answered wrongly.
    pub failed: u64,
    /// Human-readable remarks printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Samples of a sequence of rounds.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of every pass, seconds.
    pass_s: Vec<f64>,
    /// Wall time of every request, nanoseconds.
    latency_ns: Vec<f64>,
    /// Time between one reply and the next request of the same pass — the
    /// generator's own work (checking, bookkeeping) — nanoseconds.
    gap_ns: Vec<f64>,
    /// Wall time of every delta, milliseconds.
    update_ms: Vec<f64>,
    /// Operations attempted.
    attempted: u64,
    /// Operations failed.
    failed: u64,
}

impl Window {
    /// Passes completed.
    pub fn passes(&self) -> usize {
        self.pass_s.len()
    }

    /// Median pass wall time, seconds. A pass always holds the same
    /// requests, so a burst from a neighbour spoils passes, not the median.
    pub fn pass_p50_s(&self) -> f64 {
        median(&mut self.pass_s.clone())
    }

    /// Documents of one pass ÷ the median pass wall time.
    pub fn docs_per_s(&self, spec: &Spec) -> f64 {
        spec.docs as f64 / self.pass_p50_s()
    }

    /// Median wall time of one request, microseconds.
    pub fn latency_p50_us(&self) -> f64 {
        median(&mut self.latency_ns.clone()) / 1e3
    }

    /// Median wall time of one delta, milliseconds.
    pub fn update_p50_ms(&self) -> f64 {
        median(&mut self.update_ms.clone())
    }

    /// Median generator overhead per request, microseconds.
    pub fn client_overhead_us_p50(&self) -> f64 {
        median(&mut self.gap_ns.clone()) / 1e3
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Requests re-checked after an update: half of them documents that carry a
/// planted mention of the set the update made live, half documents that do
/// not.
fn update_sample(spec: &Spec, live: Live) -> Vec<usize> {
    let requests = spec.requests_per_pass();
    let n = spec.update_sample.div_ceil(spec.batch).min(requests);
    (0..n).map(|t| (live.set + (t % 2) + UPDATE_SETS * (t / 2)) % requests).collect()
}

/// Applies the next delta and re-checks the sample against the reference
/// for the new generation. Returns the update's wall time and the
/// `(attempted, failed)` operation counts.
fn apply_and_check(driver: &mut dyn Driver, spec: &Spec, gen: &mut DeltaGen, inputs: &Inputs) -> Result<(Duration, u64, u64), String> {
    let delta = gen.next(&inputs.update_sets);
    let took = driver.apply(&delta)?;
    let live = gen.live().expect("a delta was just issued");
    let (mut attempted, mut failed) = (1, 0);
    for i in update_sample(spec, live) {
        attempted += 1;
        failed += u64::from(!driver.request(i, Some(live))?.ok);
    }
    Ok((took, attempted, failed))
}

/// One round, closed loop, one request in flight: a whole pass over the
/// fixed request list, then the workload's deltas. On `pubmed_update_mix`
/// the delta opens the pass and is part of its wall time. `on_request` runs
/// after every reply, inside the pass — a traced round records its spans
/// there, so their cost shows in the pass time.
fn run_round(
    driver: &mut dyn Driver,
    spec: &Spec,
    gen: &mut DeltaGen,
    inputs: &Inputs,
    w: &mut Window,
    mut on_request: impl FnMut(usize, Instant, Instant),
) -> Result<(), String> {
    let blended = spec.path == ReqPath::UpdateMix;
    let pass_start = Instant::now();
    if blended {
        let delta = gen.next(&inputs.update_sets);
        w.update_ms.push(driver.apply(&delta)?.as_secs_f64() * 1e3);
        w.attempted += 1;
    }
    let live = if spec.path.reads_follow_updates() { gen.live() } else { None };
    let mut prev_end: Option<Instant> = None;
    for i in 0..spec.requests_per_pass() {
        let a = driver.request(i, live)?;
        if let Some(p) = prev_end {
            w.gap_ns.push(ns(a.start.duration_since(p)));
        }
        w.latency_ns.push(ns(a.end.duration_since(a.start)));
        w.attempted += 1;
        w.failed += u64::from(!a.ok);
        on_request(i, a.start, a.end);
        prev_end = Some(a.end);
    }
    w.pass_s.push(pass_start.elapsed().as_secs_f64());
    if !blended {
        for _ in 0..spec.updates_per_round {
            let (took, attempted, failed) = apply_and_check(driver, spec, gen, inputs)?;
            w.update_ms.push(took.as_secs_f64() * 1e3);
            w.attempted += attempted;
            w.failed += failed;
        }
    }
    Ok(())
}

/// A set-up engine that has taken the priming delta and answered one
/// checked pass.
struct Started<'a> {
    driver: Box<dyn Driver + 'a>,
    gen: DeltaGen,
    setup_s: f64,
    artifact_bytes: u64,
}

/// One whole set-up on the clock, then — off it — the priming delta (adds
/// only, so every later delta has one shape) and one checked warm-up pass
/// on the generation the reads will see.
fn start<'a>(ctx: &'a Ctx<'a>, report: &mut Report) -> Result<Started<'a>, String> {
    let t = Instant::now();
    let ready = setup(ctx)?;
    let setup_s = t.elapsed().as_secs_f64();
    report.count(1, u64::from(!ready.first_ok));
    let mut driver = ready.driver;
    let mut gen = DeltaGen::new(ctx.inputs.data.dictionary.len());
    let (_, attempted, failed) = apply_and_check(driver.as_mut(), ctx.spec, &mut gen, ctx.inputs)?;
    report.count(attempted, failed);
    let live = if ctx.spec.path.reads_follow_updates() { gen.live() } else { None };
    for i in 0..ctx.spec.requests_per_pass() {
        let ok = driver.request(i, live)?.ok;
        report.count(1, u64::from(!ok));
    }
    Ok(Started { driver, gen, setup_s, artifact_bytes: ready.artifact_bytes })
}

fn check_client_overhead(window: &Window, report: &mut Report) -> Result<(), String> {
    let (overhead, latency) = (window.client_overhead_us_p50(), window.latency_p50_us());
    if overhead > MAX_CLIENT_SHARE * latency {
        return Err(format!(
            "load generator overhead {overhead:.3} us is over {:.0} % of the {latency:.3} us request latency",
            MAX_CLIENT_SHARE * 100.0
        ));
    }
    report
        .notes
        .push(format!("client overhead p50 {overhead:.3} us = {:.3} % of latency p50", 100.0 * overhead / latency));
    Ok(())
}

/// One run of one workload. Both kinds share the prologue: check the
/// machine, size the pool, generate the inputs, compute the reference.
pub fn run(settings: &Settings, trace: bool) -> Result<Report, String> {
    let spec = settings.spec;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if THREADS > cores {
        return Err(format!("refusing to run: the workloads keep {THREADS} threads busy and this machine has {cores} core(s)"));
    }
    std::fs::create_dir_all(&settings.out_dir).map_err(|e| format!("{}: {e}", settings.out_dir.display()))?;
    // One pool for the whole process, sized before anything can create it
    // with the machine's core count.
    if aeetes_pool::Pool::configure_global(THREADS).workers() != THREADS {
        return Err("the global pool was already sized differently (AEETES_POOL_THREADS set?)".into());
    }
    let inputs = generate_inputs(spec, settings.seed);
    let requests = serve_requests(&inputs);
    let mut report = Report::default();

    // Reference first, then forget the engine that computed it: the peak
    // RSS reported below is the engine under test, not the oracle.
    let reference = compute_reference(&inputs, &reference_engine(&inputs));
    report.count(reference.exact_gold, reference.exact_gold_missed);
    if reference.exact_gold_missed > 0 {
        report
            .notes
            .push(format!("reference misses {} of {} exact gold mentions", reference.exact_gold_missed, reference.exact_gold));
    }
    let ctx = Ctx {
        spec,
        inputs: &inputs,
        reference: &reference,
        out_dir: &settings.out_dir,
        aeetes: &settings.aeetes,
        serve_requests: &requests,
    };
    if trace {
        per_layer(&ctx, settings, &mut report)?;
    } else {
        end_to_end(&ctx, settings, &mut report)?;
    }
    let _ = std::fs::remove_file(ctx.artifact_path()); // tens of MB, and nothing reads it again
    Ok(report)
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn end_to_end(ctx: &Ctx<'_>, settings: &Settings, report: &mut Report) -> Result<(), String> {
    let spec = ctx.spec;
    if !procfs::reset_peak_rss() {
        report.notes.push("VmHWM could not be reset: peak_rss_mb includes the reference engine".into());
    }
    // The engine measured is the first thing this process builds after the
    // reference is gone, and its peak is read after RSS_ROUNDS rounds —
    // the same operations in every run, whatever pace the machine ran at.
    let Started { mut driver, mut gen, setup_s, artifact_bytes } = start(ctx, report)?;
    let mut setup_s = vec![setup_s];

    // The other set-ups are spread over the rest of the run, one whenever
    // the next SETUPS-th of `--seconds` has passed, so that some of them
    // meet an undisturbed machine. They build beside the idle measured
    // engine, in a directory of their own: its artifact stays mapped.
    let spare_dir = ctx.out_dir.join("setup");
    std::fs::create_dir_all(&spare_dir).map_err(|e| format!("{}: {e}", spare_dir.display()))?;
    let spare = Ctx { out_dir: &spare_dir, ..*ctx };
    let timed_setup = |setup_s: &mut Vec<f64>, report: &mut Report| -> Result<(), String> {
        let t = Instant::now();
        let ready = setup(&spare)?;
        setup_s.push(t.elapsed().as_secs_f64());
        report.count(1, u64::from(!ready.first_ok));
        ready.driver.finish()
    };

    let mut window = Window::default();
    let mut peak_rss_kb = 0;
    let started = Instant::now();
    while window.passes() < MIN_PASSES || started.elapsed().as_secs_f64() < settings.seconds {
        run_round(driver.as_mut(), spec, &mut gen, ctx.inputs, &mut window, |_, _, _| {})?;
        if window.passes() == RSS_ROUNDS {
            peak_rss_kb = driver.peak_rss_kb()?;
        }
        let due = settings.seconds * setup_s.len() as f64 / SETUPS as f64;
        if window.passes() >= RSS_ROUNDS && setup_s.len() < SETUPS && started.elapsed().as_secs_f64() >= due {
            timed_setup(&mut setup_s, report)?;
        }
    }
    let rounds_s = started.elapsed().as_secs_f64();
    report.count(window.attempted, window.failed);
    driver.finish()?;
    check_client_overhead(&window, report)?;
    while setup_s.len() < SETUPS {
        timed_setup(&mut setup_s, report)?;
    }
    let _ = std::fs::remove_file(spare.artifact_path());

    // The decomposed reference against a from-scratch rebuild, once per run.
    let live = gen.live().expect("updates ran");
    let sample = ctx.inputs.docs.len().min(20);
    report.count(sample as u64, rebuilt_reference_mismatches(ctx.inputs, ctx.reference, live, sample));

    let mut latency = window.latency_ns.clone();
    sort(&mut latency);
    let tail = tail_sorted(&latency, 0.99);
    report.notes.push(format!("set-up x{}: {:.4?} s", setup_s.len(), setup_s));
    report.notes.push(format!(
        "{} passes in {:.1} s: {:.1} docs/s by the median pass; {} requests, p50 {:.1} us, p99 {:.1} us ({} beyond); {} updates, p50 {:.2} ms",
        window.passes(),
        rounds_s,
        window.docs_per_s(spec),
        latency.len(),
        window.latency_p50_us(),
        tail.value / 1e3,
        tail.beyond,
        window.update_ms.len(),
        window.update_p50_ms(),
    ));
    let m = &mut report.metrics;
    m.set("setup_s", setup_s.iter().copied().fold(f64::INFINITY, f64::min));
    m.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    m.set("artifact_bytes", artifact_bytes as f64);
    Ok(())
}

/// `--trace 1`: the per-layer metrics. One set-up, then rounds in which an
/// untraced pass alternates with one that records a span per request (so
/// both classes see the same stretch of machine time and their difference
/// is the tracing, not the neighbours), a layer-by-layer replay of the
/// first requests, then the probes of `layers`.
fn per_layer(ctx: &Ctx<'_>, settings: &Settings, report: &mut Report) -> Result<(), String> {
    let spec = ctx.spec;
    let Started { mut driver, mut gen, .. } = start(ctx, report)?;

    let requests_per_pass = spec.requests_per_pass();
    let lanes = if spec.path == ReqPath::Batch { THREADS as u32 } else { 1 };
    let mut trace = Trace::new();
    let (mut untraced, mut traced) = (Window::default(), Window::default());
    let seconds = settings.seconds * TRACE_ROUNDS_SHARE;
    let started = Instant::now();
    while traced.passes() < MIN_TRACE_PASSES || started.elapsed().as_secs_f64() < seconds {
        run_round(driver.as_mut(), spec, &mut gen, ctx.inputs, &mut untraced, |_, _, _| {})?;
        let first = (traced.passes() * requests_per_pass) as u64;
        run_round(driver.as_mut(), spec, &mut gen, ctx.inputs, &mut traced, |i, start, end| {
            let (start_ns, end_ns) = (trace.ns_at(start), trace.ns_at(end));
            trace.push(Span {
                name: "bench.request",
                start_ns,
                end_ns,
                parent: None,
                request: first + i as u64,
                lanes,
            });
        })?;
    }
    report.count(untraced.attempted + traced.attempted, untraced.failed + traced.failed);
    check_client_overhead(&untraced, report)?;

    // The replay: the first requests of the pass once more, each followed at
    // once by the same work layer by layer, every span the fastest of a few
    // tries — so a request and its layers ran at the same machine pace and
    // both estimate the undisturbed cost.
    let kit = layers::Kit::new(ctx)?;
    let live = if spec.path.reads_follow_updates() { gen.live() } else { None };
    let mut replayed = Vec::new();
    for i in 0..(REPLAYED_DOCS / spec.batch).min(requests_per_pass) {
        let mut fastest: Option<(Instant, Instant)> = None;
        for _ in 0..layers::REPLAY_REPS {
            let a = driver.request(i, live)?;
            report.count(1, u64::from(!a.ok));
            if fastest.is_none_or(|(s, e)| a.end - a.start < e - s) {
                fastest = Some((a.start, a.end));
            }
        }
        let (start, end) = fastest.expect("at least one repetition");
        let (start_ns, end_ns) = (trace.ns_at(start), trace.ns_at(end));
        let request = (traced.passes() * requests_per_pass + i) as u64;
        if let Some(op) = trace.push(Span { name: "bench.request", start_ns, end_ns, parent: None, request, lanes }) {
            kit.replay(i, &mut trace, op);
            replayed.push(op);
        }
    }
    driver.finish()?;
    // What no layer explains: the self time of a replayed request's span as
    // a share of the span.
    let self_ns = trace.self_times_ns();
    let mut unattributed: Vec<f64> = replayed.iter().map(|&op| self_ns[op] / trace.spans()[op].duration_ns()).collect();

    let mut latency = untraced.latency_ns.clone();
    sort(&mut latency);
    let tail = tail_sorted(&latency, 0.99);
    let m = &mut report.metrics;
    m.set("bench.docs_per_s", untraced.docs_per_s(spec));
    m.set("bench.latency_p50_us", untraced.latency_p50_us());
    m.set("bench.latency_p99_us", tail.value / 1e3);
    m.set("bench.latency_p99_beyond", tail.beyond as f64);
    m.set("bench.update_p50_ms", untraced.update_p50_ms());
    m.set("bench.passes", untraced.passes() as f64);
    m.set("bench.client_overhead_us_p50", untraced.client_overhead_us_p50());
    // Paired round by round: neighbouring passes ran at the same machine pace.
    let mut ratios: Vec<f64> = untraced.pass_s.iter().zip(&traced.pass_s).map(|(u, t)| u / t).collect();
    m.set("bench.trace_overhead_share", 1.0 - median(&mut ratios));
    let unattributed_share = median(&mut unattributed);
    m.set("bench.unattributed_share", unattributed_share);
    m.set("bench.gold_recall", ctx.reference.gold_recall);
    if unattributed_share > 0.15 {
        report.notes.push(format!(
            "FINDING: {:.1} % of a request's latency is not explained by any layer's self time (bench.unattributed_share)",
            100.0 * unattributed_share
        ));
    }
    // Self times of the replayed requests and their layers; the request
    // spans of the traced passes have no children and would read as all
    // self time.
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = std::collections::BTreeMap::new();
    for (idx, span) in trace.spans().iter().enumerate() {
        if span.parent.is_some() || replayed.contains(&idx) {
            by_name.entry(span.name).or_default().push(self_ns[idx]);
        }
    }
    let by_span: Vec<String> = by_name.iter_mut().map(|(name, samples)| format!("{name} {:.1}", median(samples) / 1e3)).collect();
    report
        .notes
        .push(format!("self time p50 by span over {} replayed requests, us: {}", replayed.len(), by_span.join(", ")));

    let probes = kit.probe_all(&mut report.metrics)?;
    report.count(probes.attempted, probes.failed);
    report.notes.extend(probes.notes);

    let path = settings.out_dir.join(format!("trace_{}.json", spec.name));
    trace.write_json(&path, spec.name, settings.seed).map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.push(format!("trace: {} spans in {}", trace.spans().len(), path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    #[test]
    fn docs_per_s_is_docs_over_the_median_pass_and_ignores_a_burst() {
        // Fifteen passes of 100 ms, three of them hit by a neighbour: the
        // median pass — and so docs_per_s — does not move; the mean would.
        let spec = Spec { docs: 60, batch: 1, ..WORKLOADS[1].clone() };
        let mut pass_s = vec![0.100; 12];
        pass_s.extend([0.180, 0.250, 0.140]);
        let mean = pass_s.iter().sum::<f64>() / pass_s.len() as f64;
        let window = Window {
            pass_s,
            latency_ns: vec![3e6, 1e6, 2e6, 9e6],
            update_ms: vec![40.0, 44.0, 52.0],
            ..Window::default()
        };
        assert_eq!(window.passes(), 15);
        assert_eq!(window.docs_per_s(&spec), 600.0);
        assert!(60.0 / mean < 530.0);
        assert_eq!(window.latency_p50_us(), 2500.0);
        assert_eq!(window.update_p50_ms(), 44.0);
    }

    #[test]
    fn the_sample_after_an_update_is_half_planted_half_not() {
        let spec = &WORKLOADS[1]; // 200 single-document requests, sample of 20
        for set in 0..UPDATE_SETS {
            let sample = update_sample(spec, Live { set, first_id: 0 });
            assert_eq!(sample.len(), 20);
            let planted = sample.iter().filter(|&&i| i % UPDATE_SETS == set).count();
            assert_eq!(planted, 10, "documents j with j % 4 == set carry the live set's plant");
        }
        // A 44 ms-per-request workload checks one of each.
        let sample = update_sample(&WORKLOADS[0], Live { set: 3, first_id: 0 });
        assert_eq!(sample, vec![3, 4]);
    }
}
