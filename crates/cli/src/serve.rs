//! `aeetes serve` — a long-lived extraction server built for graceful
//! degradation.
//!
//! The engine is loaded once; requests arrive as newline-delimited JSON
//! (see [`crate::protocol`]) either on stdin (responses on stdout) or over
//! TCP (`--listen addr:port`, one protocol stream per connection).
//!
//! Robustness structure:
//!
//! * **Admission control** — extraction requests pass through a *bounded*
//!   queue (`--queue`). When it is full the request is answered immediately
//!   with `{"status":"shedding"}` instead of queueing unboundedly: memory
//!   stays flat under overload and clients learn to back off.
//! * **Per-request budgets** — every request runs under
//!   [`aeetes_core::ExtractLimits`]; client-requested values are clamped by
//!   server ceilings. Queue wait counts against the deadline, and a request
//!   that expires before a worker picks it up fails fast with `timeout`.
//! * **Panic isolation** — each extraction runs under `catch_unwind` (the
//!   same pattern as batch extraction), so a poisoned request answers
//!   `internal` while the server keeps serving.
//! * **Graceful drain** — `{"type":"shutdown"}` (or stdin EOF) stops
//!   admission, lets workers finish the queued backlog within the drain
//!   deadline, then fires a [`CancelToken`] that stops still-running
//!   extractions mid-document. Unprocessed leftovers are answered
//!   (`shedding`) rather than dropped, so counters always reconcile:
//!   every admitted extract line is answered exactly once as
//!   `served`, `shed`, or `failed`.
//! * **Hot reload** — `{"type":"reload"}` applies a dictionary delta
//!   through [`ShardedEngine::apply_update`]: only the changed origins are
//!   re-derived, into the generation's tail, and the new generation is
//!   swapped in atomically. In-flight
//!   extractions keep their generation snapshot, so a reload drops zero
//!   requests; workers pick up the new generation on their next job.
//! * **Observability** — every request flushes its scratch-resident stage
//!   timings and work counters into a striped [`MetricRegistry`]; the
//!   registry is scraped via `{"type":"metrics"}` on the protocol stream or
//!   over plain HTTP from the `--metrics-listen` endpoint (`/metrics` in
//!   Prometheus text format, `/metrics.json` as JSON). Recording touches
//!   only per-thread-striped atomics, so telemetry adds no contention to
//!   the hot path.

use crate::protocol::{
    delta_value, error_line, ok_line, parse_delta, parse_request, Ceilings, ErrorCode, ExtractRequest, Reject, ReloadRequest, Request, StreamRequest,
    StreamVerb,
};
use aeetes_cluster::{LineRead, LineReader};
use aeetes_core::{select_top_k, suppress_overlaps, CancelToken, ExtractBackend, ExtractLimits, ExtractScratch, Match, Stage, Wal};
use aeetes_obs::{Counter, ExtractCounts, ExtractMetrics, Gauge, Histogram, MetricRegistry, StreamMetrics, WalMetrics};
use aeetes_pool::Pool;
use aeetes_shard::{DictDelta, Generation, RuleDelta, ShardedEngine};
use aeetes_stream::{StreamExtractor, StreamMatch};
use aeetes_text::{Document, EntityId, Interner, Tokenizer};
use serde_json::{json, Number, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of one `serve` run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `None`: stdin/stdout mode. `Some(addr)`: TCP listener mode.
    pub listen: Option<String>,
    /// `Some(addr)`: serve `/metrics` (Prometheus text) and `/metrics.json`
    /// over HTTP on this address, in either transport mode.
    pub metrics_listen: Option<String>,
    /// Extraction worker threads — the size of the process-wide
    /// [`Pool`], shared with batch extraction (first configuration wins for
    /// the whole process).
    pub workers: usize,
    /// Bounded admission capacity; beyond it requests are shed.
    pub queue: usize,
    /// Request ceilings (doc size, deadline, match/candidate caps).
    pub ceilings: Ceilings,
    /// How long a drain may take before in-flight work is cancelled.
    pub drain: Duration,
    /// Per-connection idle read timeout (TCP mode): a connection that
    /// completes no request line for this long is closed, so a silent peer
    /// cannot pin a handler thread forever. `Duration::ZERO` disables.
    /// Slow-trickle (slowloris) peers idle out too: only *complete* lines
    /// reset the clock.
    pub idle_timeout: Duration,
    /// Cap on concurrently open protocol connections (TCP mode). A
    /// connection over the cap is answered with one `shedding` error line
    /// and closed — bounded handler threads, flat memory under a connection
    /// flood. `0` means 1.
    pub max_conns: usize,
    /// `Some(path)`: write-ahead log for dictionary deltas. Every activated
    /// delta is appended and fsynced *before* its `ok` ack, and on startup
    /// the log's committed suffix is replayed over the loaded artifact, so
    /// a crash (even SIGKILL mid-reload) never loses an acknowledged
    /// generation. `None`: reloads are memory-only, as before.
    pub wal: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: None,
            metrics_listen: None,
            workers: 4,
            queue: 64,
            ceilings: Ceilings::default(),
            drain: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            max_conns: 1024,
            wal: None,
        }
    }
}

/// Every metric handle the server records into, pre-registered in one
/// [`MetricRegistry`] so the request path never touches the registry lock.
/// The served/shed/failed/control counters partition request outcomes the
/// same way the old atomic counters did: every admitted extract line lands
/// in exactly one of `served` / `shed` / `failed`.
struct ServeMetrics {
    registry: Arc<MetricRegistry>,
    /// Per-stage duration histograms + extraction work counters.
    extract: ExtractMetrics,
    /// `aeetes_request_duration_seconds`: end-to-end served-extract latency
    /// (replaces the old `LatencyRing`; the stats reply quantiles come from
    /// its merged buckets).
    request_duration: Arc<Histogram>,
    served: Arc<Counter>,
    shed: Arc<Counter>,
    failed: Arc<Counter>,
    control: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    generation: Arc<Gauge>,
    generation_swaps: Arc<Counter>,
    uptime: Arc<Gauge>,
    conns: Arc<Gauge>,
    conns_rejected: Arc<Counter>,
    idle_closed: Arc<Counter>,
    /// The `aeetes_wal_*` family (registered even without `--wal`, so the
    /// scrape shape is stable; all zeros when no log is attached).
    wal: WalMetrics,
    /// The `aeetes_stream*` family: open-stream gauge, chunk/emission
    /// counters, carried-byte gauge, flush latency.
    stream: StreamMetrics,
}

impl ServeMetrics {
    fn register() -> Self {
        let registry = Arc::new(MetricRegistry::new());
        let outcome = |o| registry.counter_with("aeetes_requests_total", "Protocol requests by outcome", &[("outcome", o)]);
        ServeMetrics {
            extract: ExtractMetrics::register(&registry),
            request_duration: registry.histogram("aeetes_request_duration_seconds", "End-to-end latency of served extract requests"),
            served: outcome("served"),
            shed: outcome("shed"),
            failed: outcome("failed"),
            control: outcome("control"),
            queue_depth: registry.gauge("aeetes_queue_depth", "Extract requests waiting in the admission queue"),
            in_flight: registry.gauge("aeetes_in_flight", "Extractions currently running"),
            generation: registry.gauge("aeetes_generation_id", "Engine generation currently serving"),
            generation_swaps: registry.counter("aeetes_generation_swaps_total", "Successful hot-reload generation swaps"),
            uptime: registry.gauge("aeetes_uptime_seconds", "Seconds since the server started"),
            conns: registry.gauge("aeetes_connections", "Protocol connections currently open"),
            conns_rejected: registry.counter("aeetes_conns_rejected_total", "Connections refused by the --max-conns cap"),
            idle_closed: registry.counter("aeetes_idle_closed_total", "Connections closed by the per-connection idle read timeout"),
            wal: WalMetrics::register(&registry),
            stream: StreamMetrics::register(&registry),
            registry,
        }
    }
}

/// State shared by acceptor, connection readers, and workers.
struct Shared {
    /// The engine. Extraction snapshots a generation per job;
    /// reload swaps a new generation in behind the epoch pointer without
    /// touching requests already running against the old one.
    engine: ShardedEngine,
    tokenizer: Tokenizer,
    ceilings: Ceilings,
    /// See [`ServeOptions::idle_timeout`]; `ZERO` disables.
    idle_timeout: Duration,
    /// See [`ServeOptions::max_conns`].
    max_conns: usize,
    metrics: ServeMetrics,
    start: Instant,
    /// Extract jobs admitted (queued or running) but not yet answered.
    /// Drain completes when this returns to zero — every admitted line is
    /// answered exactly once.
    queued: AtomicI64,
    /// Admission cap on `queued`: `--queue` waiting slots plus one running
    /// slot per pool worker (matching the old bounded-channel capacity,
    /// where workers held jobs outside the queue while running them).
    queue_cap: i64,
    /// Process-unique sequence number of this `serve` run, keying the pool
    /// workers' thread-local interner caches.
    serve_seq: u64,
    /// Set once drain begins: admission refuses new extract work.
    draining: AtomicBool,
    /// Fired when the drain deadline passes: stops in-flight extractions
    /// mid-document (threaded into the engine's budget sentinel).
    cancel: CancelToken,
    /// The delta write-ahead log (`--wal`). The mutex serializes appends;
    /// ordering against the engine's generation counter is provided by
    /// `reload_serial`, which every reload-family request holds end to end.
    wal: Option<Mutex<Wal>>,
    /// Latched on the first failed append/sync: further reload-family
    /// requests are rejected with a structured error (durability can no
    /// longer be promised) while extraction continues unaffected.
    wal_failed: AtomicBool,
    /// The delta body of the most recent successful `prepare`, keyed by its
    /// prepared generation id, stashed so `activate` can log it — the WAL
    /// records *activated* deltas, and activation is when the two-phase
    /// path commits.
    prepared_delta: Mutex<Option<(u64, Vec<u8>)>>,
    /// Serializes reload/prepare/activate across connections so WAL record
    /// generations are appended in the same order the engine assigns them.
    /// Control-plane only; the extract path never touches it.
    reload_serial: Mutex<()>,
}

impl Shared {
    fn stats_value(&self) -> Value {
        let m = &self.metrics;
        let samples = m.request_duration.count();
        // Fewer than two samples is not a distribution: report `null`, not
        // a misleading 0 (a client averaging quantiles must skip it).
        let quantile = |q| {
            if samples < 2 {
                Value::Null
            } else {
                m.request_duration.quantile_nanos(q).map_or(Value::Null, |n| Value::Number(Number::U64(n / 1_000)))
            }
        };
        json!({
            "uptime_ms": self.start.elapsed().as_millis() as u64,
            "generation": self.engine.generation_id(),
            "pending_generation": self.engine.pending_generation(),
            "connections": self.metrics.conns.value(),
            "served": m.served.value(),
            "shed": m.shed.value(),
            "failed": m.failed.value(),
            "control": m.control.value(),
            "queue_depth": m.queue_depth.value(),
            "in_flight": m.in_flight.value(),
            "streams_open": m.stream.open.value(),
            "stream_carried_bytes": m.stream.carried_bytes.value(),
            "latency_p50_us": quantile(0.50),
            "latency_p99_us": quantile(0.99),
            "latency_samples": samples,
            "draining": self.draining.load(Ordering::Relaxed),
        })
    }

    /// Refreshes scrape-time metrics: uptime and generation id. Runs on the
    /// scrape path only — the request hot path never calls this.
    fn refresh_scrape_metrics(&self) {
        let m = &self.metrics;
        m.uptime.set(self.start.elapsed().as_secs().min(i64::MAX as u64) as i64);
        m.generation.set(self.engine.generation_id().min(i64::MAX as u64) as i64);
    }

    /// Commits one activated delta to the WAL: append, then fsync, then —
    /// and only then — may the caller ack. A failure latches `wal_failed`
    /// (the delta stays applied in memory but is reported as *not*
    /// acknowledged, so a restart legitimately comes back without it).
    /// No-op without `--wal`.
    fn wal_commit(&self, generation: u64, payload: &[u8]) -> Result<(), String> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let m = &self.metrics.wal;
        let mut wal = wal.lock().unwrap_or_else(|p| p.into_inner());
        let result = (|| {
            wal.append(generation, payload)?;
            let sync_started = Instant::now();
            wal.sync()?;
            m.fsync_nanos.observe_nanos(u64::try_from(sync_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            Ok::<(), aeetes_core::WalError>(())
        })();
        match result {
            Ok(()) => {
                m.appends.inc(1);
                m.append_bytes.inc(payload.len() as u64);
                m.records.set(wal.record_count().min(i64::MAX as u64) as i64);
                m.bytes.set(wal.len_bytes().min(i64::MAX as u64) as i64);
                Ok(())
            }
            Err(e) => {
                m.append_failures.inc(1);
                self.wal_failed.store(true, Ordering::Relaxed);
                Err(format!("wal append for generation {generation} failed: {e}"))
            }
        }
    }

    /// The structured rejection for reload-family requests once the WAL has
    /// failed: durability can no longer be promised, so no further delta is
    /// accepted, while extraction continues on the current generation.
    fn wal_poisoned(&self) -> bool {
        self.wal.is_some() && self.wal_failed.load(Ordering::Relaxed)
    }

    /// Renders the full registry (after a scrape refresh) as Prometheus
    /// text or the JSON export.
    fn metrics_body(&self, as_json: bool) -> String {
        self.refresh_scrape_metrics();
        let snapshot = self.metrics.registry.snapshot();
        if as_json {
            aeetes_obs::json(&snapshot)
        } else {
            aeetes_obs::prometheus_text(&snapshot)
        }
    }
}

/// Where a response line goes: the requesting connection's write half (or
/// stdout), serialized by a mutex so concurrent workers never interleave
/// partial lines.
type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one response line. Write errors are swallowed: the client may
/// have hung up, which must never take the server down.
fn respond(sink: &Sink, line: &str) {
    let mut w = match sink.lock() {
        Ok(w) => w,
        Err(poisoned) => poisoned.into_inner(), // a panicked writer still has a usable fd
    };
    let _ = aeetes_cluster::write_line(&mut **w, line);
}

/// A queued unit of extraction work.
struct Job {
    req: ExtractRequest,
    /// Absolute expiry (admission time + effective deadline). Checked again
    /// at dequeue so queue wait counts against the request's budget.
    expires: Instant,
    sink: Sink,
}

/// Per-worker parsing state that persists across jobs. The pool's workers
/// are process-wide and outlive any one `serve` run, so this lives in a
/// thread-local rather than a worker loop's stack frame.
#[derive(Default)]
struct WorkerCtx {
    /// `(serve run, generation)` the cached interner was cloned from.
    key: (u64, u64),
    growth_cap: usize,
    interner: Interner,
}

thread_local! {
    static WORKER_CTX: RefCell<WorkerCtx> = RefCell::new(WorkerCtx::default());
}

/// One extraction job on a pool worker: runs with the worker's resident
/// scratch (handed in by the pool) and this thread's parsing context.
fn worker_job(shared: &Shared, scratch: &mut ExtractScratch, job: Job) {
    // The drain deadline passed while this job was still queued: answer it
    // (`shedding`) rather than drop it, so counters always reconcile.
    if shared.draining.load(Ordering::Relaxed) && shared.cancel.is_cancelled() {
        shared.metrics.shed.inc(1);
        respond(
            &job.sink,
            &error_line(&Reject {
                id: job.req.id,
                code: ErrorCode::Shedding,
                message: "server drained before this request ran".into(),
            }),
        );
        return;
    }
    let generation = shared.engine.snapshot();
    WORKER_CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let ctx = &mut *ctx;
        // Each worker parses documents against a clone of the current
        // generation's interner. The clone is refreshed whenever the
        // generation changes — a reload interns the delta's tokens, and
        // document tokens interned locally against the old snapshot would
        // collide with them — and whenever local growth passes the cap, so
        // a long-lived server's interner cannot grow without bound on
        // adversarial vocabulary. The key carries the serve-run sequence
        // too: pool workers are process-wide, so a later `serve` run with
        // a different engine must not reuse the previous engine's tokens.
        let key = (shared.serve_seq, generation.id());
        if key != ctx.key || ctx.interner.len() > ctx.growth_cap {
            ctx.interner = generation.interner().clone();
            ctx.growth_cap = ctx.interner.len() + 100_000;
            ctx.key = key;
        }
        run_job(shared, &generation, &mut ctx.interner, scratch, job);
    });
}

fn run_job(shared: &Shared, generation: &Generation, interner: &mut Interner, scratch: &mut ExtractScratch, job: Job) {
    let now = Instant::now();
    if now >= job.expires {
        let reject = Reject {
            id: job.req.id,
            code: ErrorCode::Timeout,
            message: "deadline expired while queued".into(),
        };
        shared.metrics.failed.inc(1);
        respond(&job.sink, &error_line(&reject));
        return;
    }
    shared.metrics.in_flight.add(1);
    // Whatever deadline remains after queueing is the extraction budget.
    let limits = ExtractLimits { deadline: Some(job.expires - now), ..job.req.limits };
    let started = Instant::now();
    // The generation is immutable and the interner and scratch are
    // worker-local, so a caught panic cannot corrupt state shared with
    // other requests (the scratch is reset at the start of every pass).
    // Holding the `Arc<Generation>` for the whole job means a concurrent
    // reload cannot pull the dictionary out from under this extraction.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let parse_started = Instant::now();
        let doc = Document::parse(&job.req.doc, &shared.tokenizer, interner);
        let tokenize_nanos = u64::try_from(parse_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let out = generation.extract_scratched(&doc, job.req.tau, &limits, Some(&shared.cancel), scratch);
        let truncated = out.truncated;
        let stats = out.stats;
        // Tokenization happens outside the engine, so its stage is recorded
        // here, next to the engine-resident slots the extraction filled.
        let mut stages = out.stages;
        stages.record(Stage::Tokenize, tokenize_nanos);
        let suppressed;
        let matches: &[Match] = if job.req.best {
            suppressed = suppress_overlaps(out.matches.to_vec());
            &suppressed
        } else {
            out.matches
        };
        // `top_k` post-filters whatever survived `best`, reordering by
        // score (best first) — the same contract as `extract --top-k`.
        let top;
        let matches: &[Match] = match job.req.top_k {
            Some(k) => {
                let mut kept = matches.to_vec();
                select_top_k(&mut kept, k);
                top = kept;
                &top
            }
            None => matches,
        };
        let rendered: Vec<Value> = matches
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
            .collect();
        (rendered, truncated, stats, stages)
    }));
    shared.metrics.in_flight.add(-1);
    match outcome {
        Ok((matches, truncated, stats, stages)) => {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shared.metrics.request_duration.observe_nanos(nanos);
            let counts = ExtractCounts {
                accessed_entries: stats.accessed_entries,
                candidates: stats.candidates,
                verifications: stats.verifications,
                matches: stats.matches,
            };
            shared.metrics.extract.observe(&stages, &counts, truncated);
            shared.metrics.served.inc(1);
            respond(&job.sink, &ok_line(&job.req.id, Value::Array(matches), truncated));
        }
        Err(_) => {
            shared.metrics.failed.inc(1);
            let reject = Reject {
                id: job.req.id,
                code: ErrorCode::Internal,
                message: "extraction panicked; fault isolated to this request".into(),
            };
            respond(&job.sink, &error_line(&reject));
        }
    }
}

/// Rejection message once the WAL has latched failed: the server keeps
/// extracting on its current generation but accepts no further deltas it
/// could not make durable.
const WAL_POISONED_MSG: &str =
    "write-ahead log failed on an earlier commit; reloads are disabled (extraction continues; restart with a healthy --wal path)";

/// Lowers a reload/prepare request into the engine's delta type, keeping
/// the correlation id for the response.
fn delta_of(req: ReloadRequest) -> (Value, DictDelta) {
    let delta = DictDelta {
        add_entities: req.add_entities,
        remove_entities: req.remove_entities.into_iter().map(EntityId).collect(),
        add_rules: req.add_rules.into_iter().map(|(lhs, rhs, weight)| RuleDelta { lhs, rhs, weight }).collect(),
    };
    (req.id, delta)
}

/// One open stream of a connection: the incremental extractor, the engine
/// generation pinned at `open` (a hot reload never disturbs a stream
/// mid-document), and a stream-local interner clone for parsing chunks.
struct StreamState {
    extractor: StreamExtractor,
    generation: Arc<Generation>,
    interner: Interner,
    /// `carried_bytes()` after the last verb, so the global carried-bytes
    /// gauge advances by delta.
    last_carried: i64,
}

/// All streams of one connection, keyed by the client-chosen id.
///
/// Owns the exactly-once close guarantee: every stream opened on the
/// connection is answered with exactly one `closed` event — by an explicit
/// `close` verb, or by the drop path when the connection ends for any
/// other reason (EOF, read error, idle timeout, server drain, or a panic
/// escaping the handler). Each open stream also holds one admission slot
/// (`Shared::queued`), so a drain waits for streams to close and a
/// connection cannot open unbounded per-stream buffers.
struct ConnStreams {
    shared: Arc<Shared>,
    sink: Sink,
    streams: HashMap<u64, StreamState>,
}

/// Renders one stream match for the wire. `start`/`len` are global token
/// coordinates over the whole stream; `byte_start`/`byte_end` index the
/// decoded byte stream (for valid UTF-8 input, the concatenated chunks).
fn stream_match_value(m: &StreamMatch, generation: &Generation) -> Value {
    json!({
        "start": m.start,
        "len": m.len,
        "score": m.score,
        "entity": m.entity.0,
        "entity_text": generation.dictionary().record(m.entity).raw,
        "byte_start": m.byte_start,
        "byte_end": m.byte_end,
    })
}

impl ConnStreams {
    fn new(shared: Arc<Shared>, sink: Sink) -> Self {
        ConnStreams { shared, sink, streams: HashMap::new() }
    }

    /// Handles one parsed stream request, answering exactly one line (plus
    /// the separate `closed` event line for `close`).
    fn handle(&mut self, req: StreamRequest) {
        let StreamRequest { id, stream, verb } = req;
        let m = &self.shared.metrics;
        match verb {
            StreamVerb::Open { tau } => {
                if self.shared.draining.load(Ordering::Relaxed) {
                    m.shed.inc(1);
                    respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::Shedding, message: "server is draining".into() }));
                    return;
                }
                if self.streams.contains_key(&stream) {
                    m.failed.inc(1);
                    let msg = format!("stream {stream} is already open on this connection");
                    respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::BadRequest, message: msg }));
                    return;
                }
                // An open stream holds one admission slot until it closes:
                // per-stream buffering is counted against the same bounded
                // capacity as queued extract requests.
                if self.shared.queued.fetch_add(1, Ordering::SeqCst) >= self.shared.queue_cap {
                    self.shared.queued.fetch_sub(1, Ordering::SeqCst);
                    m.shed.inc(1);
                    respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::Shedding, message: "request queue is full".into() }));
                    return;
                }
                let generation = self.shared.engine.snapshot();
                let state = StreamState {
                    extractor: StreamExtractor::new(&*generation, tau),
                    interner: generation.interner().clone(),
                    generation,
                    last_carried: 0,
                };
                let generation_id = state.generation.id();
                self.streams.insert(stream, state);
                m.stream.open.add(1);
                m.stream.opened.inc(1);
                m.control.inc(1);
                respond(
                    &self.sink,
                    &json!({"id": id, "status": "ok", "stream": stream, "event": "opened", "generation": generation_id}).to_string(),
                );
            }
            StreamVerb::Feed { text } => {
                let Some(state) = self.streams.get_mut(&stream) else {
                    m.failed.inc(1);
                    respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::BadRequest, message: format!("stream {stream} is not open") }));
                    return;
                };
                let shared = &self.shared;
                // Same isolation contract as extract jobs: a panicking
                // chunk answers `internal` and force-closes only this
                // stream; the connection and its other streams survive.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let matches = state.extractor.feed(&*state.generation, &shared.tokenizer, &mut state.interner, text.as_bytes());
                    let rendered: Vec<Value> = matches.iter().map(|mm| stream_match_value(mm, &state.generation)).collect();
                    (rendered, matches.len() as u64, state.extractor.carried_tokens())
                }));
                match outcome {
                    Ok((rendered, emitted, carried_tokens)) => {
                        let carried = state.extractor.carried_bytes() as i64;
                        m.stream.observe_chunk(emitted, carried - state.last_carried);
                        state.last_carried = carried;
                        m.control.inc(1);
                        let line = json!({
                            "id": id,
                            "status": "ok",
                            "stream": stream,
                            "event": "matches",
                            "matches": rendered,
                            "carried_tokens": carried_tokens,
                        });
                        respond(&self.sink, &line.to_string());
                    }
                    Err(_) => {
                        m.failed.inc(1);
                        let msg = "stream feed panicked; fault isolated, stream closed".to_string();
                        respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::Internal, message: msg }));
                        // The extractor's carry state is suspect after a
                        // panic: close without flushing.
                        self.close_stream(stream, Value::Null, false, "error");
                    }
                }
            }
            StreamVerb::Flush => {
                let Some(state) = self.streams.get_mut(&stream) else {
                    m.failed.inc(1);
                    respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::BadRequest, message: format!("stream {stream} is not open") }));
                    return;
                };
                let shared = &self.shared;
                let started = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let matches = state.extractor.finish(&*state.generation, &shared.tokenizer, &mut state.interner);
                    let rendered: Vec<Value> = matches.iter().map(|mm| stream_match_value(mm, &state.generation)).collect();
                    (rendered, matches.len() as u64)
                }));
                match outcome {
                    Ok((rendered, emitted)) => {
                        m.stream.flush_nanos.observe_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        let carried = state.extractor.carried_bytes() as i64;
                        m.stream.emitted.inc(emitted);
                        m.stream.carried_bytes.add(carried - state.last_carried);
                        state.last_carried = carried;
                        m.control.inc(1);
                        respond(
                            &self.sink,
                            &json!({"id": id, "status": "ok", "stream": stream, "event": "flushed", "matches": rendered}).to_string(),
                        );
                    }
                    Err(_) => {
                        m.failed.inc(1);
                        let msg = "stream flush panicked; fault isolated, stream closed".to_string();
                        respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::Internal, message: msg }));
                        self.close_stream(stream, Value::Null, false, "error");
                    }
                }
            }
            StreamVerb::Close => {
                if !self.streams.contains_key(&stream) {
                    m.failed.inc(1);
                    respond(&self.sink, &error_line(&Reject { id, code: ErrorCode::BadRequest, message: format!("stream {stream} is not open") }));
                    return;
                }
                m.control.inc(1);
                self.close_stream(stream, id, true, "close");
            }
        }
    }

    /// Closes one stream: optionally flushes the tail, emits the single
    /// `closed` event (with any final matches), and releases the stream's
    /// admission slot and gauges. Removing the entry first makes the event
    /// unrepeatable — this is the exactly-once point.
    fn close_stream(&mut self, stream: u64, id: Value, flush: bool, reason: &str) {
        let Some(mut state) = self.streams.remove(&stream) else { return };
        let m = &self.shared.metrics;
        let shared = &self.shared;
        let rendered: Vec<Value> = if flush {
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let matches = state.extractor.finish(&*state.generation, &shared.tokenizer, &mut state.interner);
                m.stream.emitted.inc(matches.len() as u64);
                matches.iter().map(|mm| stream_match_value(mm, &state.generation)).collect()
            }));
            m.stream.flush_nanos.observe_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            outcome.unwrap_or_default() // a panicking final flush still closes cleanly
        } else {
            Vec::new()
        };
        m.stream.carried_bytes.add(-state.last_carried);
        m.stream.open.add(-1);
        m.stream.closed.inc(1);
        self.shared.queued.fetch_sub(1, Ordering::SeqCst);
        let line = json!({
            "id": id,
            "status": "ok",
            "stream": stream,
            "event": "closed",
            "reason": reason,
            "matches": rendered,
        });
        respond(&self.sink, &line.to_string());
    }
}

impl Drop for ConnStreams {
    fn drop(&mut self) {
        let reason = if self.shared.draining.load(Ordering::Relaxed) {
            "drain"
        } else {
            "disconnect"
        };
        let open: Vec<u64> = self.streams.keys().copied().collect();
        for stream in open {
            // The peer may already be gone (`respond` swallows write
            // errors); what matters is that accounting releases and the
            // event is emitted exactly once even on abrupt ends.
            self.close_stream(stream, Value::Null, true, reason);
        }
    }
}

/// Serves one protocol stream (a TCP connection or stdin): parses each
/// line, answers control requests inline, and hands extract requests to
/// the worker pool under the bounded admission counter. Returns `true`
/// when a `shutdown` request asked the whole server to drain.
fn serve_stream(shared: &Arc<Shared>, reader: &mut impl BufRead, sink: &Sink) -> bool {
    // JSON syntax + escaping around the document can roughly double it;
    // one extra KiB covers the envelope fields.
    let line_cap = shared.ceilings.max_doc_bytes.saturating_mul(2).saturating_add(1024);
    let mut lines = LineReader::new(line_cap);
    // Streams opened on this connection. Dropping this on ANY exit path —
    // EOF, read error, idle timeout, drain, shutdown — closes each open
    // stream with its single `closed` event and releases its admission
    // slot, so drains and disconnects answer in-flight streams exactly
    // once.
    let mut conn_streams = ConnStreams::new(Arc::clone(shared), Arc::clone(sink));
    // Only completed reads reset this clock, so a peer trickling one byte
    // per poll interval still idles out (see `ServeOptions::idle_timeout`).
    let mut last_activity = Instant::now();
    loop {
        let read = match lines.next_line(reader) {
            Ok(r) => r,
            // TCP connections carry a read timeout so idle clients cannot
            // hold up a drain indefinitely: poll the flag and resume.
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                if shared.draining.load(Ordering::Relaxed) {
                    return false;
                }
                if shared.idle_timeout > Duration::ZERO && last_activity.elapsed() >= shared.idle_timeout {
                    shared.metrics.idle_closed.inc(1);
                    return false;
                }
                continue;
            }
            Err(_) => return false, // connection died; nothing to answer
        };
        last_activity = Instant::now();
        let bytes = match read {
            LineRead::Eof => return false,
            LineRead::Oversized => {
                shared.metrics.failed.inc(1);
                let reject = Reject {
                    id: Value::Null,
                    code: ErrorCode::TooLarge,
                    message: format!("request line exceeds {line_cap} bytes"),
                };
                respond(sink, &error_line(&reject));
                continue;
            }
            LineRead::Line(bytes) => bytes,
        };
        let Ok(line) = std::str::from_utf8(&bytes) else {
            shared.metrics.failed.inc(1);
            respond(
                sink,
                &error_line(&Reject {
                    id: Value::Null,
                    code: ErrorCode::BadRequest,
                    message: "request line is not valid UTF-8".into(),
                }),
            );
            continue;
        };
        if line.trim().is_empty() {
            continue; // blank lines are NDJSON keep-alive noise, not requests
        }
        match parse_request(line, &shared.ceilings) {
            Err(reject) => {
                shared.metrics.failed.inc(1);
                respond(sink, &error_line(&reject));
            }
            Ok(Request::Health(id)) => {
                shared.metrics.control.inc(1);
                let draining = shared.draining.load(Ordering::Relaxed);
                let status = if draining { "draining" } else { "ok" };
                // Generation + draining ride along so a coordinator (or a
                // human) can tell "slow" from "going away" and "current"
                // from "behind the fleet" with one cheap probe.
                let line = json!({
                    "id": id,
                    "status": "ok",
                    "health": status,
                    "draining": draining,
                    "generation": shared.engine.generation_id(),
                    "open_streams": shared.metrics.stream.open.value(),
                    "stream_carried_bytes": shared.metrics.stream.carried_bytes.value(),
                });
                respond(sink, &line.to_string());
            }
            Ok(Request::Stats(id)) => {
                shared.metrics.control.inc(1);
                respond(sink, &json!({"id": id, "status": "ok", "stats": shared.stats_value()}).to_string());
            }
            Ok(Request::Metrics(id)) => {
                shared.metrics.control.inc(1);
                // The JSON export is rendered then re-parsed so it embeds as
                // a structured value, not a string (scrapes are rare; the
                // double pass is irrelevant).
                let metrics: Value = serde_json::from_str(&shared.metrics_body(true)).unwrap_or(Value::Null);
                respond(sink, &json!({"id": id, "status": "ok", "metrics": metrics}).to_string());
            }
            Ok(Request::Reload(req)) => {
                shared.metrics.control.inc(1);
                if shared.draining.load(Ordering::Relaxed) {
                    respond(sink, &error_line(&Reject { id: req.id, code: ErrorCode::Shedding, message: "server is draining".into() }));
                    continue;
                }
                let (id, delta) = delta_of(*req);
                if shared.wal_poisoned() {
                    respond(sink, &error_line(&Reject { id, code: ErrorCode::Internal, message: WAL_POISONED_MSG.into() }));
                    continue;
                }
                // The rebuild runs on this connection's reader thread: other
                // connections keep extracting against the old generation
                // until the atomic swap inside `apply_update`. The serial
                // lock orders concurrent reloads so WAL records are appended
                // in generation order.
                let _serial = shared.reload_serial.lock().unwrap_or_else(|p| p.into_inner());
                match shared.engine.apply_update(&delta, &shared.tokenizer) {
                    Ok(generation) => {
                        // Durability before acknowledgement: the delta is
                        // fsynced into the WAL, and only then acked. On WAL
                        // failure the client gets an error — the new
                        // generation serves until the process dies, but a
                        // restart (correctly) comes back without it.
                        if let Err(e) = shared.wal_commit(generation.id(), delta_value(&delta).to_string().as_bytes()) {
                            respond(sink, &error_line(&Reject { id, code: ErrorCode::Internal, message: e }));
                            continue;
                        }
                        shared.metrics.generation_swaps.inc(1);
                        shared.metrics.generation.set(generation.id().min(i64::MAX as u64) as i64);
                        let line = json!({
                            "id": id,
                            "status": "ok",
                            "generation": generation.id(),
                            "entities": generation.dictionary().len(),
                            "variants": generation.variants(),
                        });
                        respond(sink, &line.to_string());
                    }
                    Err(e) => {
                        respond(sink, &error_line(&Reject { id, code: ErrorCode::BadRequest, message: format!("reload rejected: {e}") }));
                    }
                }
            }
            Ok(Request::Prepare(req)) => {
                shared.metrics.control.inc(1);
                if shared.draining.load(Ordering::Relaxed) {
                    respond(sink, &error_line(&Reject { id: req.id, code: ErrorCode::Shedding, message: "server is draining".into() }));
                    continue;
                }
                let (id, delta) = delta_of(*req);
                if shared.wal_poisoned() {
                    respond(sink, &error_line(&Reject { id, code: ErrorCode::Internal, message: WAL_POISONED_MSG.into() }));
                    continue;
                }
                // Builds the next generation but keeps serving the current
                // one; the swap happens when `activate` names the id.
                let _serial = shared.reload_serial.lock().unwrap_or_else(|p| p.into_inner());
                match shared.engine.prepare_update(&delta, &shared.tokenizer) {
                    Ok(generation) => {
                        // Stash the delta body for activate-time WAL commit:
                        // the log records *activated* deltas only, and a
                        // parked preparation that never activates must not
                        // be replayed after a restart.
                        *shared.prepared_delta.lock().unwrap_or_else(|p| p.into_inner()) =
                            Some((generation.id(), delta_value(&delta).to_string().into_bytes()));
                        let line = json!({
                            "id": id,
                            "status": "ok",
                            "prepared_generation": generation.id(),
                            "entities": generation.dictionary().len(),
                            "variants": generation.variants(),
                        });
                        respond(sink, &line.to_string());
                    }
                    Err(e) => {
                        respond(sink, &error_line(&Reject { id, code: ErrorCode::BadRequest, message: format!("prepare rejected: {e}") }));
                    }
                }
            }
            Ok(Request::Activate { id, generation }) => {
                shared.metrics.control.inc(1);
                if shared.wal_poisoned() {
                    respond(sink, &error_line(&Reject { id, code: ErrorCode::Internal, message: WAL_POISONED_MSG.into() }));
                    continue;
                }
                let _serial = shared.reload_serial.lock().unwrap_or_else(|p| p.into_inner());
                match shared.engine.activate(generation) {
                    Ok(generation) => {
                        // Activation is the two-phase commit point: log the
                        // stashed prepare body before acking. A missing or
                        // mismatched stash cannot happen while the serial
                        // lock orders prepare/activate, but is handled as a
                        // commit failure rather than a panic.
                        let stashed = shared.prepared_delta.lock().unwrap_or_else(|p| p.into_inner()).take();
                        let commit = match stashed {
                            Some((gen, payload)) if gen == generation.id() => shared.wal_commit(generation.id(), &payload),
                            _ if shared.wal.is_some() => {
                                shared.wal_failed.store(true, Ordering::Relaxed);
                                Err(format!("activated generation {} has no stashed prepare body to log", generation.id()))
                            }
                            _ => Ok(()),
                        };
                        if let Err(e) = commit {
                            respond(sink, &error_line(&Reject { id, code: ErrorCode::Internal, message: e }));
                            continue;
                        }
                        shared.metrics.generation_swaps.inc(1);
                        shared.metrics.generation.set(generation.id().min(i64::MAX as u64) as i64);
                        respond(sink, &json!({"id": id, "status": "ok", "generation": generation.id()}).to_string());
                    }
                    Err(e) => {
                        // The id names a generation this replica has not
                        // prepared: a coordinator treats this as the replica
                        // being out of step and resyncs it.
                        respond(sink, &error_line(&Reject { id, code: ErrorCode::Conflict, message: e.to_string() }));
                    }
                }
            }
            Ok(Request::Stream(req)) => {
                // Stream verbs run inline on this reader thread: a stream
                // is sequential by construction (chunk order matters), so
                // pooling them would only add queueing latency.
                conn_streams.handle(*req);
            }
            Ok(Request::Shutdown(id)) => {
                shared.metrics.control.inc(1);
                shared.draining.store(true, Ordering::Relaxed);
                respond(sink, &json!({"id": id, "status": "ok", "draining": true}).to_string());
                return true;
            }
            Ok(Request::Extract(req)) => {
                if shared.draining.load(Ordering::Relaxed) {
                    shared.metrics.shed.inc(1);
                    respond(sink, &error_line(&Reject { id: req.id, code: ErrorCode::Shedding, message: "server is draining".into() }));
                    continue;
                }
                let deadline = req.limits.deadline.unwrap_or(shared.ceilings.max_timeout);
                let job = Job { expires: Instant::now() + deadline, req: *req, sink: Arc::clone(sink) };
                // Bounded admission: `queued` counts admitted-but-unanswered
                // jobs; beyond the cap the request is answered `shedding`
                // immediately, so pool queues never grow unboundedly.
                if shared.queued.fetch_add(1, Ordering::SeqCst) >= shared.queue_cap {
                    shared.queued.fetch_sub(1, Ordering::SeqCst);
                    shared.metrics.shed.inc(1);
                    respond(
                        &job.sink,
                        &error_line(&Reject {
                            id: job.req.id,
                            code: ErrorCode::Shedding,
                            message: "request queue is full".into(),
                        }),
                    );
                } else {
                    shared.metrics.queue_depth.add(1);
                    let shared = Arc::clone(shared);
                    Pool::global().spawn(move |scratch| {
                        // Decrement on every exit path (including a panic
                        // that escapes `run_job`'s isolation) so drain can
                        // rely on `queued` reaching zero.
                        struct Admitted(Arc<Shared>);
                        impl Drop for Admitted {
                            fn drop(&mut self) {
                                self.0.queued.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                        let admitted = Admitted(shared);
                        admitted.0.metrics.queue_depth.add(-1);
                        worker_job(&admitted.0, scratch, job);
                    });
                }
            }
        }
    }
}

/// Opens (or creates) the delta WAL at `path` and replays its committed
/// suffix over the freshly loaded artifact, bringing the engine to the
/// last *acknowledged* generation. The log may legitimately begin before
/// the artifact's generation (a compaction that crashed between rewriting
/// the artifact and resetting the log): already-folded records are
/// skipped. A log that starts *after* the artifact is a hard error — the
/// deltas needed to bridge the gap are gone.
fn recover_wal(engine: &ShardedEngine, tokenizer: &Tokenizer, path: &Path, metrics: &WalMetrics) -> Result<Wal, String> {
    let started = Instant::now();
    let artifact_gen = engine.generation_id();
    let (wal, replay) = Wal::open_or_create(path, artifact_gen).map_err(|e| format!("{}: {e}", path.display()))?;
    if wal.base_generation() > artifact_gen {
        return Err(format!(
            "{}: log starts at generation {} but the engine artifact is at {artifact_gen}; \
             the artifact predates the log (restore the matching artifact or remove the log)",
            path.display(),
            wal.base_generation()
        ));
    }
    let mut replayed = 0u64;
    for record in &replay.records {
        if record.generation <= artifact_gen {
            continue; // already folded into the artifact by a compaction
        }
        let text = std::str::from_utf8(&record.payload)
            .map_err(|e| format!("{}: generation {} record: payload is not UTF-8: {e}", path.display(), record.generation))?;
        let body: Value = serde_json::from_str(text)
            .map_err(|e| format!("{}: generation {} record: payload is not JSON: {e}", path.display(), record.generation))?;
        let delta = parse_delta(&body).map_err(|e| format!("{}: generation {} record: {e}", path.display(), record.generation))?;
        let generation = engine
            .apply_update(&delta, tokenizer)
            .map_err(|e| format!("{}: replaying the delta for generation {} failed: {e}", path.display(), record.generation))?;
        if generation.id() != record.generation {
            return Err(format!(
                "{}: replay drift: the record for generation {} rebuilt generation {}",
                path.display(),
                record.generation,
                generation.id()
            ));
        }
        replayed += 1;
    }
    metrics.replayed_records.inc(replayed);
    metrics.truncated_bytes.inc(replay.truncated_bytes);
    metrics
        .recovery_nanos
        .set(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX).min(i64::MAX as u64) as i64);
    metrics.records.set(wal.record_count().min(i64::MAX as u64) as i64);
    metrics.bytes.set(wal.len_bytes().min(i64::MAX as u64) as i64);
    if replayed > 0 || replay.truncated_bytes > 0 {
        eprintln!(
            "wal: recovered to generation {} ({} delta(s) replayed, {} torn byte(s) truncated)",
            engine.generation_id(),
            replayed,
            replay.truncated_bytes
        );
    }
    Ok(wal)
}

/// Runs the server until shutdown/EOF, then drains. Returns the final
/// (served, shed, failed) counters.
pub fn serve(engine: ShardedEngine, opts: &ServeOptions) -> Result<(u64, u64, u64), String> {
    let tokenizer = Tokenizer::default();
    let metrics = ServeMetrics::register();
    // WAL-over-snapshot recovery runs before any request is admitted: the
    // first extraction already sees the last acknowledged generation.
    let wal = match &opts.wal {
        None => None,
        Some(path) => Some(Mutex::new(recover_wal(&engine, &tokenizer, path, &metrics.wal)?)),
    };
    // One process-wide pool serves extraction and batches alike: `--workers` sizes it (first configuration in the process
    // wins), and its workers own the long-lived extraction scratches.
    Pool::configure_global(opts.workers.max(1));
    let pool = Pool::global();
    pool.attach_metrics(&metrics.registry);
    static SERVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let shared = Arc::new(Shared {
        engine,
        tokenizer,
        ceilings: opts.ceilings,
        idle_timeout: opts.idle_timeout,
        max_conns: opts.max_conns.max(1),
        metrics,
        start: Instant::now(),
        queued: AtomicI64::new(0),
        queue_cap: opts.queue.max(1) as i64 + pool.workers() as i64,
        serve_seq: SERVE_SEQ.fetch_add(1, Ordering::Relaxed),
        draining: AtomicBool::new(false),
        cancel: CancelToken::new(),
        wal,
        wal_failed: AtomicBool::new(false),
        prepared_delta: Mutex::new(None),
        reload_serial: Mutex::new(()),
    });
    shared.metrics.generation.set(shared.engine.snapshot().id().min(i64::MAX as u64) as i64);
    // Bind before entering either transport loop so a bad address fails the
    // command instead of being discovered mid-serve.
    let metrics_listener = match &opts.metrics_listen {
        None => None,
        Some(addr) => Some(TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?),
    };
    match &opts.listen {
        None => {
            if let Some(listener) = metrics_listener {
                // stdout carries the NDJSON responses in stdin mode, so the
                // metrics banner goes to stderr.
                let maddr = listener.local_addr().map_err(|e| e.to_string())?;
                eprintln!("metrics listening on {maddr}");
                spawn_metrics_server(listener, Arc::clone(&shared));
            }
            let stdin = std::io::stdin();
            let mut reader = BufReader::new(stdin.lock());
            let sink: Sink = Arc::new(Mutex::new(Box::new(std::io::stdout())));
            serve_stream(&shared, &mut reader, &sink);
            // stdin EOF (or shutdown request) both end the stream: drain.
            shared.draining.store(true, Ordering::Relaxed);
        }
        Some(addr) => {
            let listener = TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            // Announce the bound address (port 0 resolves here) on stdout so
            // supervisors and the chaos harness can find the server. The
            // metrics banner comes second: harnesses parse the first line as
            // the protocol address unconditionally.
            println!("listening on {local}");
            if let Some(metrics) = &metrics_listener {
                let maddr = metrics.local_addr().map_err(|e| e.to_string())?;
                println!("metrics listening on {maddr}");
            }
            let _ = std::io::stdout().flush();
            if let Some(listener) = metrics_listener {
                spawn_metrics_server(listener, Arc::clone(&shared));
            }
            accept_loop(&listener, &shared);
        }
    }

    drain(&shared, opts.drain);
    let served = shared.metrics.served.value();
    let shed = shared.metrics.shed.value();
    let failed = shared.metrics.failed.value();
    eprintln!("serve: drained; served={served} shed={shed} failed={failed}");
    Ok((served, shed, failed))
}

/// Serves `/metrics` (Prometheus text exposition) and `/metrics.json` over
/// minimal HTTP/1.0, one connection at a time, on a detached thread.
/// Scrapes are rare and the bodies are small, so a single sequential loop
/// is enough; the thread dies with the process after the drain. A scraper
/// that sends garbage gets a 404 and a closed connection — it can never
/// reach the extraction path.
fn spawn_metrics_server(listener: TcpListener, shared: Arc<Shared>) {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let Ok(read_half) = stream.try_clone() else { continue };
            let mut reader = BufReader::new(read_half);
            let mut request_line = String::new();
            if reader.read_line(&mut request_line).is_err() {
                continue;
            }
            // Drain the header block so well-behaved HTTP/1.1 clients see a
            // response to the request they finished sending.
            loop {
                let mut header = String::new();
                match reader.read_line(&mut header) {
                    Ok(n) if n > 0 && !header.trim_end().is_empty() => {}
                    _ => break,
                }
            }
            let path = request_line.split_whitespace().nth(1).unwrap_or("");
            let (status, content_type, body) = if path == "/metrics.json" {
                ("200 OK", "application/json", shared.metrics_body(true))
            } else if path == "/metrics" || path.starts_with("/metrics?") {
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", shared.metrics_body(false))
            } else {
                ("404 Not Found", "text/plain; charset=utf-8", "not found; try /metrics or /metrics.json\n".to_string())
            };
            let response =
                format!("HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}", body.len());
            let _ = stream.write_all(response.as_bytes());
        }
    });
}

/// Accepts connections until a `shutdown` request flips the draining flag,
/// then joins every connection handler (their read timeout guarantees they
/// notice the drain within one poll interval even when idle).
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers = Vec::new();
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::Relaxed) {
            break;
        }
        let Ok(mut stream) = conn else { continue }; // transient accept errors (e.g. ECONNABORTED)
        let _ = stream.set_nodelay(true); // replies are small and latency-bound; never batch them

        // The conns gauge is the live handler count: incremented here (not
        // in the handler, which would race the next accept past the cap)
        // and decremented when `handle_connection` returns.
        if shared.metrics.conns.value() >= shared.max_conns as i64 {
            shared.metrics.conns_rejected.inc(1);
            let reject = Reject {
                id: Value::Null,
                code: ErrorCode::Shedding,
                message: format!("connection limit ({}) reached", shared.max_conns),
            };
            let _ = aeetes_cluster::write_line(&mut stream, &error_line(&reject));
            continue; // dropping the stream closes it
        }
        shared.metrics.conns.add(1);
        let shared = Arc::clone(shared);
        handlers.push(std::thread::spawn(move || {
            handle_connection(stream, &shared);
            shared.metrics.conns.add(-1);
        }));
        handlers.retain(|h| !h.is_finished()); // reap finished handlers so the vec stays bounded
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Poll interval for the draining flag on otherwise-blocking TCP reads.
const READ_POLL: Duration = Duration::from_millis(100);

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // The timeout turns blocking reads into a drain-flag poll; without it an
    // idle client would pin this thread (and the drain) forever.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let sink: Sink = Arc::new(Mutex::new(Box::new(write_half)));
    if serve_stream(shared, &mut reader, &sink) {
        // A shutdown request arrived on this connection. The acceptor is
        // blocked in `accept`; self-connect once so it can observe
        // `draining` and stop. (The wake-up connection itself is never
        // served — the acceptor checks the flag before spawning.)
        if let Ok(addr) = reader.get_ref().local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Waits for the admitted backlog to be answered. Within `deadline` the
/// pool finishes jobs normally; past it the [`CancelToken`] fires, which
/// stops in-flight extractions mid-document and makes still-queued jobs
/// self-answer `shedding` — so `queued` always reaches zero and every
/// admitted line is answered exactly once. The pool itself is process-wide
/// and keeps running (idle) after the drain.
fn drain(shared: &Arc<Shared>, deadline: Duration) {
    let started = Instant::now();
    while shared.queued.load(Ordering::SeqCst) > 0 {
        if started.elapsed() >= deadline {
            shared.cancel.cancel();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
