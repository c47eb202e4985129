//! One protocol connection of `aeetes serve`, without its socket.
//!
//! A [`Session`] takes one request line and the `Instant` it is handed and
//! returns what to do with it ([`Reply`]): write a response line, hand a
//! [`Job`] to the pool, or write the last line and drain. It has no socket,
//! spawns no thread and reads no clock to decide anything, so the whole
//! protocol runs in-process and on one thread in tests; [`crate::serve`] is
//! the shell that feeds it from stdin or TCP.
//!
//! The process-wide state every session shares is the [`Server`]:
//!
//! * **Admission control** — an extract request, or an open stream, holds
//!   one slot of `queued` until it is answered or closed. The cap is
//!   `--queue` waiting slots plus one running slot per pool worker; past it
//!   the request is answered `{"status":"shedding"}` at once, so memory
//!   stays flat under overload and clients learn to back off.
//! * **Per-request budgets** — every request runs under
//!   [`aeetes_core::ExtractLimits`]; client-requested values are clamped by
//!   server ceilings. Queue wait counts against the deadline, and a request
//!   that expires before a worker picks it up fails fast with `timeout`.
//! * **Panic isolation** — each extraction and each stream step runs under
//!   `catch_unwind`, so a poisoned request answers `internal` while the
//!   server keeps serving.
//! * **Exactly-once answers** — every admitted extract line is answered
//!   exactly once as `served`, `shed`, or `failed`, and every opened stream
//!   with exactly one `closed` event, even when its connection ends first.
//! * **Hot reload** — `{"type":"reload"}` applies a dictionary delta
//!   through [`ShardedEngine::apply_update`] and swaps the new generation
//!   in atomically; in-flight extractions keep their generation snapshot.
//!   `prepare`/`activate` split that in two for a fleet coordinator, and
//!   with `--wal` every activated delta is fsynced before its ack.
//! * **Observability** — every request flushes its stage timings and work
//!   counters into a striped [`MetricRegistry`], scraped by
//!   `{"type":"metrics"}` or the shell's HTTP endpoint.

use crate::protocol::{delta_value, ok_line, parse_delta, parse_request, Ceilings, ExtractRequest, Request, StreamRequest, StreamVerb};
use crate::serve::ServeOptions;
use aeetes_cluster::{error_line, metrics_value, DeltaLog, ErrorCode, Reject, Sink};
use aeetes_core::{select_top_k, suppress_overlaps, CancelToken, ExtractBackend, ExtractScratch, Match, Stage};
use aeetes_obs::{Counter, ExtractCounts, ExtractMetrics, Gauge, Histogram, MetricRegistry, StreamMetrics, WalMetrics};
use aeetes_shard::{DictDelta, Generation, ShardedEngine};
use aeetes_stream::{StreamExtractor, StreamMatch};
use aeetes_text::{Document, Interner, Tokenizer};
use serde_json::{json, Number, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every metric handle the server records into, pre-registered in one
/// [`MetricRegistry`] so the request path never touches the registry lock.
/// The served/shed/failed/control counters partition request outcomes:
/// every admitted extract line lands in exactly one of `served` / `shed` /
/// `failed`.
pub(crate) struct ServeMetrics {
    pub(crate) registry: Arc<MetricRegistry>,
    /// Per-stage duration histograms + extraction work counters.
    extract: ExtractMetrics,
    /// `aeetes_request_duration_seconds`: end-to-end served-extract
    /// latency; the stats reply's quantiles come from its merged buckets.
    request_duration: Arc<Histogram>,
    pub(crate) served: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    control: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    generation: Arc<Gauge>,
    generation_swaps: Arc<Counter>,
    uptime: Arc<Gauge>,
    pub(crate) conns: Arc<Gauge>,
    pub(crate) conns_rejected: Arc<Counter>,
    pub(crate) idle_closed: Arc<Counter>,
    /// The `aeetes_stream*` family: open-stream gauge, chunk/emission
    /// counters, carried-byte gauge, flush latency.
    stream: StreamMetrics,
}

impl ServeMetrics {
    /// The server's metrics, and the `aeetes_wal_*` family its delta log
    /// records into (registered even without `--wal`, so the scrape shape
    /// is stable; all zeros when no log is attached).
    fn register() -> (Self, WalMetrics) {
        let registry = Arc::new(MetricRegistry::new());
        let outcome = |o| registry.counter_with("aeetes_requests_total", "Protocol requests by outcome", &[("outcome", o)]);
        let wal;
        let metrics = ServeMetrics {
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
            // Registered here, between the two, to keep the scrape's order.
            stream: {
                wal = WalMetrics::register(&registry);
                StreamMetrics::register(&registry)
            },
            registry,
        };
        (metrics, wal)
    }
}

/// A `u64` as an `i64` gauge value, saturating.
fn gauge_value(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The state every session of one `serve` run shares.
pub struct Server {
    /// The engine. Extraction snapshots a generation per job; reload swaps
    /// a new generation in behind the epoch pointer without touching
    /// requests already running against the old one.
    engine: ShardedEngine,
    tokenizer: Tokenizer,
    ceilings: Ceilings,
    pub(crate) metrics: ServeMetrics,
    start: Instant,
    /// Extract jobs admitted (queued or running) but not yet answered, plus
    /// open streams. Drain completes when this returns to zero.
    pub(crate) queued: AtomicI64,
    /// Admission cap on `queued`: `--queue` waiting slots plus one running
    /// slot per pool worker.
    queue_cap: i64,
    /// Process-unique sequence number of this server, keying the pool
    /// workers' thread-local interner caches.
    seq: u64,
    /// Set once drain begins: admission refuses new work.
    pub(crate) draining: AtomicBool,
    /// Fired when the drain deadline passes: stops in-flight extractions
    /// mid-document (threaded into the engine's budget sentinel).
    pub(crate) cancel: CancelToken,
    /// The deltas activated since the artifact, durable with `--wal`; their
    /// bodies are never read back once replayed, so none is kept. Every
    /// reload/prepare/activate holds its lock end to end, so records are
    /// appended in the order the engine assigns generations. Control plane
    /// only; the extract path never touches it.
    log: Mutex<DeltaLog>,
}

/// A change to the dictionary: a delta applied at once, a delta built and
/// parked, or the parked generation, named by id, swapped in.
enum Update {
    Reload(DictDelta),
    Prepare(DictDelta),
    Activate(u64),
}

impl Server {
    /// The shared state of one `serve` run over `engine`, answering as
    /// `opts` sets out with `workers` pool workers. With `opts.wal` the
    /// log's committed suffix is replayed first, so the first request
    /// already sees the last acknowledged generation.
    pub fn new(engine: ShardedEngine, opts: &ServeOptions, workers: usize) -> Result<Arc<Server>, String> {
        static SEQ: AtomicU64 = AtomicU64::new(1);
        let tokenizer = Tokenizer::default();
        let (metrics, wal_metrics) = ServeMetrics::register();
        let mut log = DeltaLog::without_bodies(opts.wal.clone(), wal_metrics);
        log.restore(|base, deltas| replay_deltas(&engine, &tokenizer, base, deltas))?;
        log.start(engine.generation_id())?;
        metrics.generation.set(gauge_value(engine.generation_id()));
        Ok(Arc::new(Server {
            engine,
            tokenizer,
            ceilings: opts.ceilings,
            metrics,
            start: Instant::now(),
            queued: AtomicI64::new(0),
            queue_cap: opts.queue.max(1) as i64 + workers as i64,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            draining: AtomicBool::new(false),
            cancel: CancelToken::new(),
            log: Mutex::new(log),
        }))
    }

    /// The longest request line the framing loop buffers: JSON syntax and
    /// escaping around the document can roughly double it; one extra KiB
    /// covers the envelope fields.
    pub(crate) fn line_cap(&self) -> usize {
        self.ceilings.max_doc_bytes.saturating_mul(2).saturating_add(1024)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// The error line of an extract or stream request refused, ticking
    /// `shed` for `shedding` and `failed` for every other code.
    fn refuse(&self, reject: Reject) -> String {
        let outcome = if reject.code == ErrorCode::Shedding {
            &self.metrics.shed
        } else {
            &self.metrics.failed
        };
        outcome.inc(1);
        error_line(&reject)
    }

    /// Takes one admission slot, or says the queue is full.
    fn admit(&self) -> bool {
        if self.queued.fetch_add(1, Ordering::SeqCst) >= self.queue_cap {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    fn health(&self, id: Value) -> String {
        let draining = self.draining();
        // Generation + draining ride along so a coordinator (or a human) can
        // tell "slow" from "going away" and "current" from "behind the
        // fleet" with one cheap probe.
        json!({
            "id": id,
            "status": "ok",
            "health": if draining { "draining" } else { "ok" },
            "draining": draining,
            "generation": self.engine.generation_id(),
            "open_streams": self.metrics.stream.open.value(),
            "stream_carried_bytes": self.metrics.stream.carried_bytes.value(),
        })
        .to_string()
    }

    fn stats_value(&self, now: Instant) -> Value {
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
            "uptime_ms": now.saturating_duration_since(self.start).as_millis() as u64,
            "generation": self.engine.generation_id(),
            "pending_generation": self.engine.pending_generation(),
            "connections": m.conns.value(),
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
            "draining": self.draining(),
        })
    }

    /// Refreshes the scrape-time metrics (uptime and generation id), then
    /// hands over the registry. The request hot path never calls this.
    pub(crate) fn scrape(&self, now: Instant) -> &MetricRegistry {
        let m = &self.metrics;
        m.uptime.set(gauge_value(now.saturating_duration_since(self.start).as_secs()));
        m.generation.set(gauge_value(self.engine.generation_id()));
        &m.registry
    }

    /// Admits one extract request, or refuses it: draining, or no slot left
    /// (the request is then answered at once, so pool queues never grow
    /// unboundedly).
    fn extract(self: &Arc<Self>, req: ExtractRequest, now: Instant) -> Reply {
        if self.draining() {
            return Reply::Line(self.refuse(Reject::new(req.id, ErrorCode::Shedding, "server is draining")));
        }
        if !self.admit() {
            return Reply::Line(self.refuse(Reject::new(req.id, ErrorCode::Shedding, "request queue is full")));
        }
        self.metrics.queue_depth.add(1);
        let deadline = req.limits.deadline.unwrap_or(self.ceilings.max_timeout);
        Reply::Job(Job { server: Arc::clone(self), expires: now + deadline, req })
    }

    /// Applies, prepares or activates one dictionary change and answers it.
    /// A change is refused while draining (an activate is not: it builds
    /// nothing) and once the log is poisoned. A new generation is logged
    /// before it is acknowledged.
    fn update(&self, id: Value, update: Update) -> String {
        let refuse = |code, message: String| error_line(&Reject::new(id.clone(), code, message));
        if self.draining() && !matches!(update, Update::Activate(_)) {
            return refuse(ErrorCode::Shedding, "server is draining".into());
        }
        // The rebuild runs on this connection's reader thread: other
        // connections keep extracting against the old generation until the
        // atomic swap.
        let mut log = self.log.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(refusal) = log.poisoned() {
            return refuse(ErrorCode::Internal, refusal.into());
        }
        let (generation, delta, ack) = match update {
            Update::Reload(delta) => match self.engine.apply_update(&delta, &self.tokenizer) {
                Ok(generation) => {
                    let ack = json!({
                        "id": id,
                        "status": "ok",
                        "generation": generation.id(),
                        "entities": generation.dictionary().len(),
                        "variants": generation.variants(),
                    });
                    (generation.id(), delta, ack)
                }
                Err(e) => return refuse(ErrorCode::BadRequest, format!("reload rejected: {e}")),
            },
            // Builds the next generation but keeps serving the current one;
            // the engine parks the delta with it, and only an activated
            // delta is logged.
            Update::Prepare(delta) => {
                return match self.engine.prepare_update(&delta, &self.tokenizer) {
                    Ok(generation) => json!({
                        "id": id,
                        "status": "ok",
                        "prepared_generation": generation.id(),
                        "entities": generation.dictionary().len(),
                        "variants": generation.variants(),
                    })
                    .to_string(),
                    Err(e) => refuse(ErrorCode::BadRequest, format!("prepare rejected: {e}")),
                };
            }
            Update::Activate(generation) => match self.engine.activate(generation) {
                Ok((generation, delta)) => (generation.id(), delta, json!({"id": id, "status": "ok", "generation": generation.id()})),
                // The id names a generation this replica has not prepared: a
                // coordinator treats this as the replica being out of step
                // and resyncs it.
                Err(e) => return refuse(ErrorCode::Conflict, e.to_string()),
            },
        };
        // Durability before acknowledgement: on a failed commit the new
        // generation serves until the process dies, but a restart
        // (correctly) comes back without it.
        match log.commit(generation, delta_value(&delta)) {
            Ok(()) => {
                self.metrics.generation_swaps.inc(1);
                self.metrics.generation.set(gauge_value(self.engine.generation_id()));
                ack.to_string()
            }
            Err(e) => refuse(ErrorCode::Internal, e),
        }
    }
}

/// Brings `engine` forward over a delta log based at `base`: delta `i`
/// takes generation `base + i` to `base + i + 1`, so an engine at
/// generation `g` already holds the first `g - base` (a compaction folded
/// them into its artifact) and is given the rest. An engine outside
/// `[base, base + deltas.len()]` is not the log's artifact, and a delta
/// that rebuilds any generation but its own is drift: both are errors.
/// Returns how many deltas it applied.
pub(crate) fn replay_deltas(engine: &ShardedEngine, tokenizer: &Tokenizer, base: u64, deltas: &[Value]) -> Result<u64, String> {
    let (at, last) = (engine.generation_id(), base + deltas.len() as u64);
    if at < base || at > last {
        return Err(format!("the engine artifact is at generation {at}, outside the log's [{base}, {last}] — wrong artifact?"));
    }
    for (generation, delta) in (at + 1..).zip(&deltas[(at - base) as usize..]) {
        let delta = parse_delta(delta).map_err(|e| format!("the delta for generation {generation}: {e}"))?;
        let rebuilt = engine
            .apply_update(&delta, tokenizer)
            .map_err(|e| format!("replaying the delta for generation {generation} failed: {e}"))?
            .id();
        if rebuilt != generation {
            return Err(format!("replay drift: the delta for generation {generation} rebuilt generation {rebuilt}"));
        }
    }
    Ok(last - at)
}

/// What a session asks its shell to do with one request.
pub enum Reply {
    /// Write this response. It is one line, or two joined by `\n` (written
    /// at once) when a failing stream step answers `internal` and closes
    /// its stream.
    Line(String),
    /// Run this admitted extraction on a pool worker; [`Job::run`] answers.
    Job(Job),
    /// Write this line, then stop reading: the server drains.
    Shutdown(String),
}

/// One admitted extract request. It holds its admission slot until it is
/// dropped — after its answer is written — so a drain waiting for `queued`
/// to reach zero never exits before the answer is out.
pub struct Job {
    server: Arc<Server>,
    req: ExtractRequest,
    /// Absolute expiry (admission time + effective deadline). Checked again
    /// when the job runs, so queue wait counts against the budget.
    expires: Instant,
}

impl Job {
    /// Runs the extraction with `scratch` (a pool worker's resident one)
    /// and hands the answer line to `reply`.
    pub fn run(self, scratch: &mut ExtractScratch, reply: impl FnOnce(&str)) {
        self.server.metrics.queue_depth.add(-1);
        reply(&self.answer(scratch));
    }

    fn answer(&self, scratch: &mut ExtractScratch) -> String {
        let server = &*self.server;
        // The drain deadline passed while this job was still queued: answer
        // it (`shedding`) rather than drop it, so counters always reconcile.
        if server.draining() && server.cancel.is_cancelled() {
            return server.refuse(Reject::new(self.req.id.clone(), ErrorCode::Shedding, "server drained before this request ran"));
        }
        let generation = server.engine.snapshot();
        WORKER_CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let ctx = &mut *ctx;
            // Each worker parses documents against a clone of the current
            // generation's interner. The clone is refreshed whenever the
            // generation changes — a reload interns the delta's tokens, and
            // document tokens interned locally against the old snapshot
            // would collide with them — and whenever local growth passes
            // the cap, so a long-lived server's interner cannot grow without
            // bound on adversarial vocabulary. The key carries the server
            // too: pool workers are process-wide, so a later server with a
            // different engine must not reuse the previous engine's tokens.
            let key = (server.seq, generation.id());
            if key != ctx.key || ctx.interner.len() > ctx.growth_cap {
                ctx.interner = generation.interner().clone();
                ctx.growth_cap = ctx.interner.len() + 100_000;
                ctx.key = key;
            }
            self.extract(&generation, &mut ctx.interner, scratch)
        })
    }

    fn extract(&self, generation: &Generation, interner: &mut Interner, scratch: &mut ExtractScratch) -> String {
        let (server, req) = (&*self.server, &self.req);
        let now = Instant::now();
        if now >= self.expires {
            return server.refuse(Reject::new(req.id.clone(), ErrorCode::Timeout, "deadline expired while queued"));
        }
        let m = &server.metrics;
        m.in_flight.add(1);
        // Whatever deadline remains after queueing is the extraction budget.
        let limits = aeetes_core::ExtractLimits { deadline: Some(self.expires - now), ..req.limits };
        let started = Instant::now();
        // The generation is immutable and the interner and scratch are
        // worker-local, so a caught panic cannot corrupt state shared with
        // other requests (the scratch is reset at the start of every pass).
        // Holding the `Arc<Generation>` for the whole job means a concurrent
        // reload cannot pull the dictionary out from under this extraction.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let parse_started = Instant::now();
            let doc = Document::parse(&req.doc, &server.tokenizer, interner);
            let tokenize_nanos = nanos_since(parse_started);
            let out = generation.extract_scratched(&doc, req.tau, &limits, Some(&server.cancel), scratch);
            // Tokenization happens outside the engine, so its stage is
            // recorded here, next to the engine-resident slots the
            // extraction filled.
            let mut stages = out.stages;
            stages.record(Stage::Tokenize, tokenize_nanos);
            let mut kept: Option<Vec<Match>> = req.best.then(|| suppress_overlaps(out.matches.to_vec()));
            // `top_k` post-filters whatever survived `best`, reordering by
            // score (best first) — the same contract as `extract --top-k`.
            if let Some(k) = req.top_k {
                let top = kept.get_or_insert_with(|| out.matches.to_vec());
                select_top_k(top, k);
            }
            let rendered: Vec<Value> = kept
                .as_deref()
                .unwrap_or(out.matches)
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
            (rendered, out.truncated, out.stats, stages)
        }));
        m.in_flight.add(-1);
        match outcome {
            Ok((matches, truncated, stats, stages)) => {
                m.request_duration.observe_nanos(nanos_since(started));
                let counts = ExtractCounts {
                    accessed_entries: stats.accessed_entries,
                    candidates: stats.candidates,
                    verifications: stats.verifications,
                    matches: stats.matches,
                };
                m.extract.observe(&stages, &counts, truncated);
                m.served.inc(1);
                ok_line(&req.id, Value::Array(matches), truncated)
            }
            Err(_) => server.refuse(Reject::new(req.id.clone(), ErrorCode::Internal, "extraction panicked; fault isolated to this request")),
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // On every exit path, a panic escaping `extract`'s isolation
        // included, so a drain can rely on `queued` reaching zero.
        self.server.queued.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-worker parsing state that persists across jobs. The pool's workers
/// are process-wide and outlive any one server, so this lives in a
/// thread-local rather than a worker loop's stack frame.
#[derive(Default)]
struct WorkerCtx {
    /// `(server, generation)` the cached interner was cloned from.
    key: (u64, u64),
    growth_cap: usize,
    interner: Interner,
}

thread_local! {
    static WORKER_CTX: RefCell<WorkerCtx> = RefCell::new(WorkerCtx::default());
}

/// One open stream of a connection: the incremental extractor, the engine
/// generation pinned at `open` (a hot reload never disturbs a stream
/// mid-document), and a stream-local interner clone for parsing chunks.
struct StreamState {
    extractor: StreamExtractor,
    generation: Arc<Generation>,
    interner: Interner,
    /// `carried_bytes()` after the last step, so the global carried-bytes
    /// gauge advances by delta.
    last_carried: i64,
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

/// One guarded step of an open stream: feed it `chunk`, or (`None`) finish
/// its document. It runs under `catch_unwind` — the same isolation as an
/// extract job, so a panicking step costs only this stream, whose carry
/// state is then suspect — and the matches it settled are rendered and
/// counted, and the carried-bytes gauge moved by what the step changed.
/// `None` if the step panicked.
fn step(server: &Server, state: &mut StreamState, chunk: Option<&[u8]>) -> Option<Vec<Value>> {
    let m = &server.metrics.stream;
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let matches = match chunk {
            Some(bytes) => state.extractor.feed(&*state.generation, &server.tokenizer, &mut state.interner, bytes),
            None => state.extractor.finish(&*state.generation, &server.tokenizer, &mut state.interner),
        };
        matches.iter().map(|mm| stream_match_value(mm, &state.generation)).collect::<Vec<Value>>()
    }));
    if chunk.is_none() {
        m.flush_nanos.observe_nanos(nanos_since(started));
    }
    let rendered = outcome.ok()?;
    let carried = state.extractor.carried_bytes() as i64;
    m.emitted.inc(rendered.len() as u64);
    m.carried_bytes.add(carried - state.last_carried);
    state.last_carried = carried;
    Some(rendered)
}

/// One protocol connection: its open streams, and the sink their drop-time
/// `closed` events go to.
///
/// Owns the exactly-once close guarantee: every stream opened on the
/// connection is answered with exactly one `closed` event — by an explicit
/// `close` verb, or by the drop when the connection ends for any other
/// reason (EOF, read error, idle timeout, server drain, or a panic escaping
/// the handler). Each open stream also holds one admission slot, so a drain
/// waits for streams to close and a connection cannot open unbounded
/// per-stream buffers.
pub struct Session {
    server: Arc<Server>,
    sink: Sink,
    streams: HashMap<u64, StreamState>,
}

impl Session {
    /// A connection of `server` whose drop-time events go to `sink`.
    pub fn new(server: Arc<Server>, sink: Sink) -> Session {
        Session { server, sink, streams: HashMap::new() }
    }

    /// Answers one request line (or the framing loop's error for a line
    /// that is not one), handed in at `now`.
    pub fn handle(&mut self, request: Result<&str, Reject>, now: Instant) -> Reply {
        let server = Arc::clone(&self.server);
        let request = match request.and_then(|line| parse_request(line, &server.ceilings)) {
            Ok(request) => request,
            Err(reject) => return Reply::Line(server.refuse(reject)),
        };
        // Extract and stream requests are counted by outcome; every other
        // request is control-plane, answered inline, never queued or shed.
        if !matches!(request, Request::Extract(_) | Request::Stream(_)) {
            server.metrics.control.inc(1);
        }
        Reply::Line(match request {
            Request::Extract(req) => return server.extract(*req, now),
            // Stream verbs run inline on the reader thread: a stream is
            // sequential by construction (chunk order matters), so pooling
            // them would only add queueing latency.
            Request::Stream(req) => self.stream(*req),
            Request::Health(id) => server.health(id),
            Request::Stats(id) => json!({"id": id, "status": "ok", "stats": server.stats_value(now)}).to_string(),
            Request::Metrics(id) => json!({"id": id, "status": "ok", "metrics": metrics_value(server.scrape(now))}).to_string(),
            Request::Reload(req) => server.update(req.id, Update::Reload(req.delta)),
            Request::Prepare(req) => server.update(req.id, Update::Prepare(req.delta)),
            Request::Activate { id, generation } => server.update(id, Update::Activate(generation)),
            Request::Shutdown(id) => {
                server.draining.store(true, Ordering::Relaxed);
                return Reply::Shutdown(json!({"id": id, "status": "ok", "draining": true}).to_string());
            }
        })
    }

    /// Answers one stream verb.
    fn stream(&mut self, req: StreamRequest) -> String {
        let StreamRequest { id, stream, verb } = req;
        let server = Arc::clone(&self.server);
        let m = &server.metrics;
        if let StreamVerb::Open { tau } = verb {
            if server.draining() {
                return server.refuse(Reject::new(id, ErrorCode::Shedding, "server is draining"));
            }
            if self.streams.contains_key(&stream) {
                return server.refuse(Reject::new(id, ErrorCode::BadRequest, format!("stream {stream} is already open on this connection")));
            }
            // An open stream holds one admission slot until it closes:
            // per-stream buffering is counted against the same bounded
            // capacity as queued extract requests.
            if !server.admit() {
                return server.refuse(Reject::new(id, ErrorCode::Shedding, "request queue is full"));
            }
            let generation = server.engine.snapshot();
            let generation_id = generation.id();
            let state = StreamState {
                extractor: StreamExtractor::new(&*generation, tau),
                interner: generation.interner().clone(),
                generation,
                last_carried: 0,
            };
            self.streams.insert(stream, state);
            m.stream.open.add(1);
            m.stream.opened.inc(1);
            m.control.inc(1);
            return json!({"id": id, "status": "ok", "stream": stream, "event": "opened", "generation": generation_id}).to_string();
        }
        let Some(state) = self.streams.get_mut(&stream) else {
            return server.refuse(Reject::new(id, ErrorCode::BadRequest, format!("stream {stream} is not open")));
        };
        let panicked = match verb {
            StreamVerb::Feed { text } => match step(&server, state, Some(text.as_bytes())) {
                Some(matches) => {
                    m.stream.chunks.inc(1);
                    m.control.inc(1);
                    let carried_tokens = state.extractor.carried_tokens();
                    return json!({
                        "id": id,
                        "status": "ok",
                        "stream": stream,
                        "event": "matches",
                        "matches": matches,
                        "carried_tokens": carried_tokens,
                    })
                    .to_string();
                }
                None => "stream feed panicked; fault isolated, stream closed",
            },
            StreamVerb::Flush => match step(&server, state, None) {
                Some(matches) => {
                    m.control.inc(1);
                    return json!({"id": id, "status": "ok", "stream": stream, "event": "flushed", "matches": matches}).to_string();
                }
                None => "stream flush panicked; fault isolated, stream closed",
            },
            StreamVerb::Close => {
                m.control.inc(1);
                return self.close(stream, id, true, "close");
            }
            StreamVerb::Open { .. } => unreachable!("answered above"),
        };
        // The stream's carry state is suspect after a panic: close it
        // without flushing, after the error line.
        let error = server.refuse(Reject::new(id, ErrorCode::Internal, panicked));
        format!("{error}\n{}", self.close(stream, Value::Null, false, "error"))
    }

    /// Closes one open stream: optionally flushes the tail, releases the
    /// stream's admission slot and gauges, and renders the single `closed`
    /// event (with any final matches). Removing the entry makes the event
    /// unrepeatable — this is the exactly-once point.
    fn close(&mut self, stream: u64, id: Value, flush: bool, reason: &str) -> String {
        let mut state = self.streams.remove(&stream).expect("only open streams are closed");
        let server = &*self.server;
        // A panicking final flush still closes cleanly.
        let matches = if flush {
            step(server, &mut state, None).unwrap_or_default()
        } else {
            Vec::new()
        };
        let m = &server.metrics.stream;
        m.carried_bytes.add(-state.last_carried);
        m.open.add(-1);
        m.closed.inc(1);
        server.queued.fetch_sub(1, Ordering::SeqCst);
        json!({"id": id, "status": "ok", "stream": stream, "event": "closed", "reason": reason, "matches": matches}).to_string()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let reason = if self.server.draining() { "drain" } else { "disconnect" };
        let open: Vec<u64> = self.streams.keys().copied().collect();
        for stream in open {
            // The peer may already be gone (`respond` swallows write
            // errors); what matters is that accounting releases and the
            // event is emitted exactly once even on abrupt ends.
            let closed = self.close(stream, Value::Null, true, reason);
            self.sink.respond(&closed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Ceilings;
    use aeetes_cluster::read_requests;
    use aeetes_core::{open_frozen_bytes, AeetesConfig};
    use aeetes_rules::RuleSet;
    use aeetes_text::Dictionary;
    use std::io::Write;
    use std::time::Duration;

    /// The chaos suites' small engine, frozen and adopted as `serve` loads
    /// its artifact.
    fn engine() -> ShardedEngine {
        let mut interner = Interner::new();
        let tokenizer = Tokenizer::default();
        let mut dict = Dictionary::new();
        for entity in ["Purdue University USA", "UQ AU", "University of Wisconsin Madison", "Acme Corporation Inc"] {
            dict.push(entity, &tokenizer, &mut interner);
        }
        let mut rules = RuleSet::new();
        for (lhs, rhs) in [("uq", "university of queensland"), ("usa", "united states"), ("au", "australia")] {
            rules.push_str(lhs, rhs, &tokenizer, &mut interner).unwrap();
        }
        let bytes = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 1).freeze();
        ShardedEngine::from_frozen(open_frozen_bytes(&bytes).expect("open"), None).expect("adopt")
    }

    /// `serve --workers 1 --queue 1` with `max_doc_bytes` as the document
    /// ceiling: two admission slots.
    fn server(max_doc_bytes: usize, wal: Option<std::path::PathBuf>) -> Arc<Server> {
        let opts = ServeOptions {
            queue: 1,
            ceilings: Ceilings { max_doc_bytes, ..Ceilings::default() },
            wal,
            ..ServeOptions::default()
        };
        Server::new(engine(), &opts, 1).expect("server")
    }

    /// What a connection's sink received.
    #[derive(Clone, Default)]
    struct Written(Arc<Mutex<Vec<u8>>>);

    impl Write for Written {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One in-process connection: the shell's loop, with each admitted job
    /// run on the calling thread.
    struct Conn {
        server: Arc<Server>,
        session: Option<Session>,
        sink: Sink,
        written: Written,
    }

    impl Conn {
        fn new(server: &Arc<Server>) -> Conn {
            let written = Written::default();
            let sink = Sink::new(written.clone());
            Conn {
                server: Arc::clone(server),
                session: Some(Session::new(Arc::clone(server), sink.clone())),
                sink,
                written,
            }
        }

        /// Sends `raw` as one line through the framing loop; returns the
        /// lines written back.
        fn send(&mut self, raw: &[u8]) -> Vec<String> {
            let mut framed = raw.to_vec();
            framed.push(b'\n');
            let (session, sink) = (self.session.as_mut().expect("open connection"), &self.sink);
            read_requests(&mut &framed[..], self.server.line_cap(), Duration::ZERO, &AtomicBool::new(false), |request| {
                match session.handle(request, Instant::now()) {
                    Reply::Line(line) => sink.respond(&line),
                    Reply::Job(job) => job.run(&mut ExtractScratch::new(), |line| sink.respond(line)),
                    Reply::Shutdown(line) => {
                        sink.respond(&line);
                        return true;
                    }
                }
                false
            });
            self.take()
        }

        /// Sends one request and parses its one answer.
        fn request(&mut self, line: &str) -> Value {
            let answers = self.send(line.as_bytes());
            assert_eq!(answers.len(), 1, "{line}: {answers:?}");
            serde_json::from_str(&answers[0]).unwrap_or_else(|e| panic!("{line}: bad answer {:?}: {e}", answers[0]))
        }

        /// Ends the connection; returns what its end wrote.
        fn end(&mut self) -> Vec<String> {
            self.session = None;
            self.take()
        }

        fn take(&self) -> Vec<String> {
            let bytes = std::mem::take(&mut *self.written.0.lock().unwrap());
            String::from_utf8(bytes).expect("UTF-8 answers").lines().map(str::to_string).collect()
        }
    }

    /// The answer with the transcript's timing fields masked as `"*"`.
    fn masked(line: &str) -> String {
        let mut v: Value = serde_json::from_str(line).expect("a JSON answer");
        if let Value::Object(top) = &mut v {
            if top.get("metrics").is_some() {
                top.insert("metrics".into(), json!("*"));
            }
            if let Some(Value::Object(stats)) = top.get("stats") {
                let mut stats = stats.clone();
                for key in ["uptime_ms", "latency_p50_us", "latency_p99_us"] {
                    stats.insert(key.into(), json!("*"));
                }
                top.insert("stats".into(), Value::Object(stats));
            }
        }
        v.to_string()
    }

    fn raw(request: &str) -> Vec<u8> {
        match request {
            "@blank" => Vec::new(),
            "@oversized" => vec![b'z'; 2000],
            "@not-utf8" => b"\xff\xfe{}".to_vec(),
            _ => request.replace("@big", &"x".repeat(70)).into_bytes(),
        }
    }

    /// Every request type and every error code, one stream's whole life, a
    /// prepare/activate conflict and a poisoned log, answered byte for byte
    /// as the server answered before it was split into a session and a
    /// shell (`tests/golden/serve_transcript.txt`).
    #[test]
    fn answers_match_the_recorded_transcript() {
        let transcript = include_str!("../tests/golden/serve_transcript.txt");
        let wal = std::env::temp_dir().join(format!("aeetes-session-transcript-{}.wal", std::process::id()));
        let mut answered = 0;
        for section in transcript.split("\n%% ").skip(1) {
            let mut lines = section.lines();
            let poisoned = lines.next().expect("a section head").contains("poisoned");
            let _ = std::fs::remove_file(&wal);
            let server = server(64, poisoned.then(|| wal.clone()));
            let mut conns: HashMap<char, (Conn, Vec<String>)> = ['A', 'B'].map(|c| (c, (Conn::new(&server), Vec::new()))).into();
            // Both connections are open from the start: the acceptor's gauge.
            server.metrics.conns.set(2);
            for line in lines {
                let (c, kind, rest) = (line.as_bytes()[0] as char, &line[1..2], line.get(3..).unwrap_or(""));
                let (conn, pending) = conns.get_mut(&c).unwrap_or_else(|| panic!("no connection in {line:?}"));
                match kind {
                    ">" => pending.extend(conn.send(&raw(rest))),
                    // The recording's first commit failed on disk; here a
                    // commit out of sequence fails.
                    "!" => assert!(server.log.lock().unwrap().commit(0, Value::Null).is_err()),
                    "." => {
                        pending.extend(conn.end());
                        server.metrics.conns.add(-1);
                    }
                    "<" => {
                        assert!(!pending.is_empty(), "expected {rest}, but {c} answered nothing more");
                        let got = pending.remove(0);
                        let got = if rest.contains("\"*\"") { masked(&got) } else { got };
                        assert_eq!(got, rest, "connection {c}");
                        answered += 1;
                    }
                    _ => panic!("unknown transcript line {line:?}"),
                }
            }
            for (c, (_, pending)) in &conns {
                assert!(pending.is_empty(), "{c} answered more than recorded: {pending:?}");
            }
        }
        let _ = std::fs::remove_file(&wal);
        assert_eq!(answered, 59, "every recorded answer was compared");
    }

    /// One check of a table test's row.
    enum Expect {
        /// The field at this dotted path has this value.
        Is(&'static str, Value),
        /// The field at this path is present and not `null`.
        NotNull(&'static str),
        /// The answer line contains this text.
        Has(&'static str),
        /// The answer line does not contain this text.
        Lacks(&'static str),
    }
    use Expect::*;

    /// Sends each row's request on one connection and holds its answer to
    /// the row's checks.
    fn table(conn: &mut Conn, rows: &[(&str, &[Expect])]) {
        for (request, checks) in rows {
            let answer = conn.request(request);
            let text = answer.to_string();
            let field = |path: &str| path.split('.').try_fold(&answer, |v, key| v.get(key)).cloned();
            for check in *checks {
                match check {
                    Is(path, want) => assert_eq!(field(path).map(|v| v.to_string()), Some(want.to_string()), "{request}: `{path}` in {text}"),
                    NotNull(path) => assert!(field(path).is_some_and(|v| !v.is_null()), "{request}: `{path}` in {text}"),
                    Has(needle) => assert!(text.contains(needle), "{request}: no {needle} in {text}"),
                    Lacks(needle) => assert!(!text.contains(needle), "{request}: {needle} in {text}"),
                }
            }
        }
    }

    /// With fewer than two latency samples a quantile estimate is
    /// meaningless, so the stats reply reports `null` — not a misleading
    /// `0` — for p50/p99 until the second served request lands. The
    /// histogram is recorded before the extract answer is written.
    #[test]
    fn stats_latency_quantiles_are_null_until_two_samples() {
        let stats = r#"{"type":"stats"}"#;
        let (p50, p99) = ("stats.latency_p50_us", "stats.latency_p99_us");
        table(
            &mut Conn::new(&server(1 << 20, None)),
            &[
                (stats, &[Is("stats.latency_samples", json!(0)), Is(p50, Value::Null), Is(p99, Value::Null)]),
                (r#"{"id":1,"type":"extract","doc":"uq au visit","tau":0.8}"#, &[Is("status", json!("ok"))]),
                (stats, &[Is("stats.latency_samples", json!(1)), Is(p50, Value::Null), Is(p99, Value::Null)]),
                (r#"{"id":2,"type":"extract","doc":"uq au again","tau":0.8}"#, &[Is("status", json!("ok"))]),
                (stats, &[Is("stats.latency_samples", json!(2)), NotNull(p50), NotNull(p99)]),
                (r#"{"type":"shutdown"}"#, &[Is("draining", json!(true))]),
            ],
        );
    }

    /// The two-phase protocol on a single replica: prepare parks the next
    /// generation without serving it, activate swaps it in, and activating
    /// a generation that is not the parked one is a conflict that does not
    /// swap.
    #[test]
    fn prepare_activate_round_trip_and_conflicts() {
        let conflict = [Is("status", json!("error")), Is("code", json!("conflict"))];
        table(
            &mut Conn::new(&server(1 << 20, None)),
            &[
                (r#"{"type":"activate","id":1,"generation":2}"#, &conflict),
                (
                    r#"{"type":"prepare","id":2,"add_entities":["eth zurich"]}"#,
                    &[Is("status", json!("ok")), Is("prepared_generation", json!(2))],
                ),
                (r#"{"type":"extract","id":3,"doc":"eth zurich","tau":0.8}"#, &[Is("status", json!("ok")), Lacks("eth zurich\",")]),
                (r#"{"type":"stats","id":4}"#, &[Is("stats.pending_generation", json!(2)), Is("stats.generation", json!(1))]),
                (r#"{"type":"activate","id":5,"generation":7}"#, &conflict),
                (r#"{"type":"stats","id":6}"#, &[Is("stats.generation", json!(1))]),
                (r#"{"type":"activate","id":7,"generation":2}"#, &[Is("status", json!("ok")), Is("generation", json!(2))]),
                (r#"{"type":"extract","id":8,"doc":"eth zurich","tau":0.8}"#, &[Has("eth zurich\",")]),
                // Health reports the new generation (the fleet handshake
                // reads it).
                (r#"{"type":"health","id":9}"#, &[Is("generation", json!(2))]),
                (r#"{"type":"shutdown"}"#, &[Is("draining", json!(true))]),
            ],
        );
    }

    /// The `entity_text` of each match in an answer's `matches`.
    fn entity_texts(answer: &Value) -> Vec<String> {
        let matches = answer.get("matches").and_then(Value::as_array).unwrap_or_else(|| panic!("no matches in {answer}"));
        matches
            .iter()
            .map(|m| m.get("entity_text").and_then(Value::as_str).expect("entity_text").to_string())
            .collect()
    }

    /// A stream fed chunks that split tokens answers exactly what the whole
    /// document does, emits a settled match before the flush, and reports
    /// byte offsets that slice the source. A flush resets it for the next
    /// document, whose tail the close flushes; the `closed` event fires
    /// once, so a second close or a later feed is a bad request, and every
    /// gauge and the admission slot return to zero.
    #[test]
    fn stream_round_trip_equals_whole_document_and_closes_once() {
        let server = server(1 << 20, None);
        let mut conn = Conn::new(&server);
        let doc = "a visit to purdue university usa was planned before uq au term started";
        let whole = conn.request(&format!(r#"{{"id":"oracle","type":"extract","doc":"{doc}","tau":0.8}}"#));
        let mut expect = entity_texts(&whole);
        expect.sort();
        let opened = conn.request(r#"{"id":1,"type":"stream","stream":7,"verb":"open","tau":0.8}"#);
        assert_eq!(opened.get("event").and_then(Value::as_str), Some("opened"), "{opened}");

        let mut got = Vec::new();
        for chunk in ["a visit to purdue uni", "versity usa was pl", "anned before uq", " au term started"] {
            let fed = conn.request(&format!(r#"{{"id":2,"type":"stream","stream":7,"verb":"feed","text":"{chunk}"}}"#));
            assert_eq!(fed.get("event").and_then(Value::as_str), Some("matches"), "{fed}");
            for m in fed.get("matches").and_then(Value::as_array).expect("matches") {
                let at = |key| m.get(key).and_then(Value::as_u64).expect("a match offset") as usize;
                let sliced = &doc[at("byte_start")..at("byte_end")];
                assert_eq!(sliced.split_whitespace().count(), at("len"), "span {sliced:?} vs {m}");
            }
            got.extend(entity_texts(&fed));
        }
        // The first entity settles long before the end of the document.
        assert!(!got.is_empty(), "no match emitted before the flush");
        let flushed = conn.request(r#"{"id":3,"type":"stream","stream":7,"verb":"flush"}"#);
        assert_eq!(flushed.get("event").and_then(Value::as_str), Some("flushed"), "{flushed}");
        got.extend(entity_texts(&flushed));
        got.sort();
        assert_eq!(got, expect, "streamed matches must equal the whole-document extraction");

        // After a flush the stream is reset and takes a new document.
        let fed = conn.request(r#"{"id":4,"type":"stream","stream":7,"verb":"feed","text":"uq au again"}"#);
        assert_eq!(fed.get("event").and_then(Value::as_str), Some("matches"), "{fed}");
        let closed = conn.request(r#"{"id":5,"type":"stream","stream":7,"verb":"close"}"#);
        assert_eq!(closed.get("event").and_then(Value::as_str), Some("closed"), "{closed}");
        assert_eq!(closed.get("reason").and_then(Value::as_str), Some("close"), "{closed}");
        assert_eq!(entity_texts(&closed), ["UQ AU"], "the second document's tail flushes on close: {closed}");
        table(
            &mut conn,
            &[
                (r#"{"id":6,"type":"stream","stream":7,"verb":"close"}"#, &[Is("code", json!("bad_request"))]),
                (r#"{"id":7,"type":"stream","stream":7,"verb":"feed","text":"x"}"#, &[Is("code", json!("bad_request"))]),
                (
                    r#"{"type":"stats"}"#,
                    &[
                        Is("stats.streams_open", json!(0)),
                        Is("stats.stream_carried_bytes", json!(0)),
                        Is("stats.queue_depth", json!(0)),
                    ],
                ),
                (r#"{"type":"shutdown"}"#, &[Is("draining", json!(true))]),
            ],
        );
        assert_eq!(server.queued.load(Ordering::SeqCst), 0, "the stream's admission slot is released");
    }

    /// Open streams hold admission slots: with one worker and a one-slot
    /// queue two opens fill the cap, a third sheds, a duplicate id is a bad
    /// request (it never reaches admission), and closing readmits.
    #[test]
    fn stream_admission_counts_against_queue_capacity() {
        let open = |s| [Is("event", json!("opened")), Is("stream", json!(s))];
        let closed = |s| [Is("event", json!("closed")), Is("stream", json!(s))];
        table(
            &mut Conn::new(&server(1 << 20, None)),
            &[
                (r#"{"id":1,"type":"stream","stream":0,"verb":"open","tau":0.8}"#, &open(0)),
                (r#"{"id":1,"type":"stream","stream":1,"verb":"open","tau":0.8}"#, &open(1)),
                (r#"{"id":2,"type":"stream","stream":2,"verb":"open","tau":0.8}"#, &[Has("shedding")]),
                (r#"{"id":3,"type":"stream","stream":0,"verb":"open","tau":0.8}"#, &[Has("bad_request")]),
                (r#"{"id":4,"type":"stream","stream":0,"verb":"close"}"#, &closed(0)),
                (r#"{"id":5,"type":"stream","stream":2,"verb":"open","tau":0.8}"#, &open(2)),
                (r#"{"id":6,"type":"stream","stream":1,"verb":"close"}"#, &closed(1)),
                (r#"{"id":6,"type":"stream","stream":2,"verb":"close"}"#, &closed(2)),
                (r#"{"type":"shutdown"}"#, &[Is("draining", json!(true))]),
            ],
        );
    }
}
