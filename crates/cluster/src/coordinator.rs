//! The fleet coordinator: accepts the NDJSON protocol, load-balances
//! extract requests over the replicas, retries retryable failures on a
//! different replica with capped backoff, and ships dictionary deltas
//! fleet-wide in two phases.
//!
//! # Exactly-once
//!
//! Every admitted extract request lives in the [`PendingTable`] until it
//! is answered through exactly one door: a forwarded replica response,
//! retry exhaustion, the per-request deadline, or the final drain sweep.
//! Late or duplicate replica responses find no entry and are counted, not
//! forwarded. A retry never returns to a replica slot that already saw the
//! rid, so no replica extracts the same admitted request twice.
//!
//! # Threads
//!
//! * main: the client accept loop ([`crate::accept_loop`], the one `aeetes
//!   serve` runs too);
//! * one reader per client connection, on the shared framing loop
//!   ([`crate::read_requests`]): parses lines, answers control requests,
//!   admits extract work;
//! * one dispatcher: routes rids to replicas, schedules delayed retries,
//!   enforces per-request deadlines;
//! * one reader per replica connection: matches responses to rids;
//! * supervisor: revives dead replicas (respawn / reconnect + resync);
//! * health: periodic probes; a probe timeout is how a *hung* (not dead)
//!   replica is detected and cut loose.
//!
//! # Two-phase reload
//!
//! A client `reload` becomes: `prepare` on every up replica (each builds
//! generation `G+1` off to the side and parks it), then — only when every
//! prepare acked — `activate G+1` everywhere. Replicas that fail the
//! activate are disconnected and resynced by the supervisor from the
//! coordinator's delta log, so the fleet always converges back to a single
//! generation; a fleet never *serves* a mixed set because no replica swaps
//! before all of them have finished building.

use crate::backoff::Backoff;
use crate::pending::{FailOutcome, PendingTable};
use crate::replica::{sync_request, Handshake, Replica, ReplicaSpec};
use crate::wire::READ_POLL;
use crate::{accept_loop, error_line, metrics_value, read_requests, DeltaLog, Ended, ErrorCode, Reject, Sink};
use aeetes_obs::{FleetMetrics, MetricRegistry, ReplicaMetrics, WalMetrics};
use serde_json::{json, Map, Value};
use std::collections::BinaryHeap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retry delays of client requests and replica revivals: 25 ms doubling to
/// 2 s, jittered.
const BACKOFF: Backoff = Backoff { base: Duration::from_millis(25), cap: Duration::from_secs(2) };

/// Folds logged deltas into a fresh engine artifact: the `fold` of
/// [`DeltaLog::compact`], called by the coordinator when the delta log
/// passes the compaction threshold, with `(deltas, base)`: the full log and
/// the generation it starts at. The rewritten artifact must load as
/// `base + deltas.len()`. The implementation lives with the embedder (the
/// CLI) because the cluster crate speaks only the wire protocol and cannot
/// rebuild engines itself. It must write the artifact durably (fsync +
/// atomic rename); only after it returns `Ok` is the log reset.
pub type Compactor = Arc<dyn Fn(&[Value], u64) -> Result<(), String> + Send + Sync>;

/// Tuning knobs of one fleet run.
#[derive(Clone)]
pub struct FleetOptions {
    /// Client-facing listener address (`:0` lets the OS pick).
    pub listen: String,
    /// The replica slots (spawned children and/or remote endpoints).
    pub replicas: Vec<ReplicaSpec>,
    /// Total dispatch attempts per request; `0` means one per replica.
    pub max_attempts: u32,
    /// Admission-to-answer deadline: a request that cannot be served
    /// within it (all replicas down, endless shedding) is answered
    /// `timeout` instead of waiting forever.
    pub request_timeout: Duration,
    /// Health probe period.
    pub health_interval: Duration,
    /// Probe / handshake response budget; a replica silent for this long
    /// is treated as hung and disconnected.
    pub probe_timeout: Duration,
    /// Budget for each phase of a fleet reload (index rebuilds are slow).
    pub reload_timeout: Duration,
    /// How long the final drain may wait for in-flight work.
    pub drain: Duration,
    /// `Some(path)`: durable delta log. Every fleet-wide activated delta
    /// is appended and fsynced before the client's ack, and a restarted
    /// coordinator restores its generation math and resync log from disk
    /// instead of refusing rejoining replicas it no longer remembers.
    pub wal: Option<PathBuf>,
    /// Compact the log into a fresh artifact (via `compactor`) once it
    /// holds this many deltas, bounding both the log file and the
    /// in-memory delta log. `0` disables compaction.
    pub compact_threshold: usize,
    /// Artifact rewriter used by compaction; `None` disables compaction
    /// even when the threshold is set.
    pub compactor: Option<Compactor>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            listen: "127.0.0.1:0".into(),
            replicas: Vec::new(),
            max_attempts: 0,
            request_timeout: Duration::from_secs(10),
            health_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(2),
            reload_timeout: Duration::from_secs(30),
            drain: Duration::from_secs(5),
            wal: None,
            compact_threshold: 64,
            compactor: None,
        }
    }
}

/// Final outcome counters, for the caller's exit report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSummary {
    pub served: u64,
    pub shed: u64,
    pub failed: u64,
}

/// Where a pending request's answer goes.
enum Deliver {
    /// A client extract request: restore `id`, write to `sink`.
    Client { id: Value, sink: Sink, expires: Instant },
    /// A coordinator-internal request (probe, prepare, activate): the full
    /// response value is handed to the waiting thread.
    Internal(Sender<Value>),
}

struct DispatchMsg {
    rid: u64,
    not_before: Instant,
}

struct Fleet {
    replicas: Vec<Arc<Replica>>,
    rmetrics: Vec<ReplicaMetrics>,
    pending: PendingTable<Deliver>,
    metrics: FleetMetrics,
    registry: Arc<MetricRegistry>,
    dispatch_tx: Sender<DispatchMsg>,
    draining: AtomicBool,
    /// Generation the fleet has converged on: the log's, readable without
    /// the log's lock, which a reload holds through both phases.
    generation: AtomicU64,
    /// Every delta applied fleet-wide since the replicas' artifact, durable
    /// with `--wal`: rejoining replicas replay the suffix they missed. Its
    /// base is restored from disk at startup, or learned at the first
    /// replica handshake. The lock serializes fleet reloads and supervisor
    /// resyncs: a replica is never resynced mid-two-phase, and generation
    /// math sees a stable log.
    log: Mutex<DeltaLog>,
    opts: FleetOptions,
    start: Instant,
    round_robin: AtomicUsize,
}

impl Fleet {
    fn up_count(&self) -> i64 {
        self.replicas.iter().filter(|r| r.is_up()).count() as i64
    }

    /// Runs under the log's lock after a successful fleet reload: once the
    /// log passes the threshold, compacts it through the embedder's
    /// compactor. A failure is reported but not fatal: the log keeps
    /// growing until a later attempt succeeds (or, when the reset failed,
    /// is poisoned).
    fn maybe_compact(&self, log: &mut DeltaLog) {
        let Some(compactor) = &self.opts.compactor else { return };
        let threshold = self.opts.compact_threshold;
        if threshold == 0 || log.deltas().len() < threshold {
            return;
        }
        let (folded, target) = (log.deltas().len(), log.generation());
        match log.compact(&**compactor) {
            Ok(()) => eprintln!("fleet: compacted {folded} delta(s) into the artifact at generation {target}"),
            Err(e) => eprintln!("fleet: compaction to generation {target} failed: {e}"),
        }
    }
}

/// Sets (or replaces) one field of a JSON object; no-op on non-objects.
fn set_field(v: &mut Value, key: &str, val: Value) {
    if let Value::Object(map) = v {
        map.insert(key.to_string(), val);
    }
}

/// Outcome class of an answer, for the reconciling counters.
#[derive(Clone, Copy)]
enum Class {
    Served,
    Shed,
    Failed,
}

fn class_of(v: &Value) -> Class {
    if v.get("status").and_then(Value::as_str) == Some("ok") {
        Class::Served
    } else if v.get("code").and_then(Value::as_str) == Some("shedding") {
        Class::Shed
    } else {
        Class::Failed
    }
}

/// The single funnel for answering a client extract request: every path
/// (forward, exhaustion, expiry, drain) ends here, which is what keeps
/// `served + shed + failed` equal to the number of extract requests.
fn answer_client(fleet: &Fleet, sink: &Sink, mut response: Value, client_id: Value) {
    set_field(&mut response, "id", client_id);
    match class_of(&response) {
        Class::Served => fleet.metrics.answered_served.inc(1),
        Class::Shed => fleet.metrics.answered_shed.inc(1),
        Class::Failed => fleet.metrics.answered_failed.inc(1),
    }
    sink.respond(&response.to_string());
}

/// Handles a failed attempt for `rid` (retryable error response, reset,
/// failed write, probe-loss requeue): internal requests complete with an
/// error immediately, client requests retry with backoff until exhausted.
fn handle_failure(fleet: &Arc<Fleet>, rid: u64, error_line: Option<String>) {
    let internal = fleet.pending.peek(rid, |d| matches!(d, Deliver::Internal(_)));
    match internal {
        None => {}
        Some(true) => {
            if let Some(Deliver::Internal(tx)) = fleet.pending.take(rid) {
                let _ = tx.send(Reject::new(Value::Null, ErrorCode::Internal, "replica connection lost").value());
            }
        }
        Some(false) => match fleet.pending.fail(rid, error_line) {
            FailOutcome::Retry { failures } => {
                fleet.metrics.retried.inc(1);
                let delay = BACKOFF.delay(failures.saturating_sub(1), rid);
                let _ = fleet.dispatch_tx.send(DispatchMsg { rid, not_before: Instant::now() + delay });
            }
            FailOutcome::Exhausted { deliver, last_error } => {
                if let Deliver::Client { id, sink, .. } = deliver {
                    let response = last_error
                        .and_then(|l| serde_json::from_str(&l).ok())
                        .unwrap_or_else(|| Reject::new(Value::Null, ErrorCode::Internal, "request failed on every replica").value());
                    answer_client(fleet, &sink, response, id);
                }
            }
            FailOutcome::AlreadyAnswered => {}
        },
    }
}

/// A replica left the routable set: requeue everything it still owed.
fn on_replica_down(fleet: &Arc<Fleet>, replica: &Arc<Replica>) {
    fleet.rmetrics[replica.id].up.set(0);
    fleet.metrics.replicas_up.set(fleet.up_count());
    eprintln!("fleet: replica {} down", replica.id);
    for rid in replica.take_inflight() {
        fleet.rmetrics[replica.id].failures.inc(1);
        handle_failure(fleet, rid, None);
    }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

/// Delayed-retry heap entry, ordered soonest-first.
struct Due(Instant, u64);
impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0) // reversed: BinaryHeap is a max-heap
    }
}

fn dispatcher_loop(fleet: &Arc<Fleet>, rx: &Receiver<DispatchMsg>) {
    let mut delayed: BinaryHeap<Due> = BinaryHeap::new();
    loop {
        let wait = delayed
            .peek()
            .map(|Due(at, _)| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(100))
            .min(Duration::from_millis(100));
        match rx.recv_timeout(wait) {
            Ok(msg) => {
                if msg.not_before <= Instant::now() {
                    route(fleet, msg.rid);
                } else {
                    delayed.push(Due(msg.not_before, msg.rid));
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        while delayed.peek().is_some_and(|Due(at, _)| *at <= Instant::now()) {
            let Due(_, rid) = delayed.pop().expect("peeked entry");
            route(fleet, rid);
        }
        if fleet.draining.load(Ordering::Relaxed) && fleet.pending.is_empty() {
            return;
        }
    }
}

/// Routes one rid: deadline check, replica pick, send. No eligible replica
/// requeues with a short delay (bounded by the deadline); a failed send is
/// a failed attempt.
fn route(fleet: &Arc<Fleet>, rid: u64) {
    let Some(expires) = fleet.pending.peek(rid, |d| match d {
        Deliver::Client { expires, .. } => Some(*expires),
        Deliver::Internal(_) => None,
    }) else {
        return; // already answered
    };
    let expires = expires.expect("only client requests are routed");
    if Instant::now() >= expires {
        if let Some(Deliver::Client { id, sink, .. }) = fleet.pending.take(rid) {
            let expired = Reject::new(Value::Null, ErrorCode::Timeout, "request deadline expired before any replica could serve it");
            answer_client(fleet, &sink, expired.value(), id);
        }
        return;
    }
    let tried = fleet.pending.tried(rid);
    let n = fleet.replicas.len();
    let offset = fleet.round_robin.fetch_add(1, Ordering::Relaxed);
    let chosen = (0..n)
        .map(|i| &fleet.replicas[(offset + i) % n])
        .find(|r| r.is_up() && !r.draining.load(Ordering::Relaxed) && !tried.contains(&r.id));
    let Some(replica) = chosen else {
        if fleet.draining.load(Ordering::Relaxed) {
            if let Some(Deliver::Client { id, sink, .. }) = fleet.pending.take(rid) {
                answer_client(fleet, &sink, Reject::new(Value::Null, ErrorCode::Shedding, "fleet is draining").value(), id);
            }
            return;
        }
        // Nothing routable right now (replicas down or all tried): check
        // again shortly; the deadline above bounds the loop.
        let _ = fleet.dispatch_tx.send(DispatchMsg { rid, not_before: Instant::now() + Duration::from_millis(25) });
        return;
    };
    let Some(line) = fleet.pending.dispatch(rid, replica.id) else { return };
    if !tried.is_empty() {
        fleet.metrics.failed_over.inc(1);
    }
    fleet.metrics.routed.inc(1);
    fleet.rmetrics[replica.id].routed.inc(1);
    replica.track_inflight(rid);
    if !replica.send_line(&line) {
        replica.untrack_inflight(rid);
        fleet.rmetrics[replica.id].failures.inc(1);
        let epoch = replica.epoch();
        if replica.mark_down(epoch) {
            on_replica_down(fleet, replica);
        }
        handle_failure(fleet, rid, None);
    }
}

// ---------------------------------------------------------------------------
// Replica reader
// ---------------------------------------------------------------------------

/// Lines (requests or responses) larger than this are dropped.
const LINE_CAP: usize = 32 << 20;

fn replica_reader(fleet: &Arc<Fleet>, replica: &Arc<Replica>, epoch: u64, mut reader: BufReader<TcpStream>) {
    // Reads until the connection ends, through a drain too: the answers a
    // drain waits for arrive here. Lines that are not answers are skipped.
    let never = AtomicBool::new(false);
    read_requests(&mut reader, LINE_CAP, Duration::ZERO, &never, |line| {
        if let Ok(text) = line {
            replica_answer(fleet, replica, text);
        }
        false
    });
    if replica.mark_down(epoch) {
        on_replica_down(fleet, replica);
    }
}

/// Hands one replica answer to whoever waits for its rid: a probe or
/// reload phase, a retry, or the client.
fn replica_answer(fleet: &Arc<Fleet>, replica: &Replica, text: &str) {
    let Ok(v): Result<Value, _> = serde_json::from_str(text) else { return };
    let Some(rid) = v.get("id").and_then(Value::as_u64).filter(|&r| r != 0) else {
        return;
    };
    replica.untrack_inflight(rid);
    match fleet.pending.peek(rid, |d| matches!(d, Deliver::Internal(_))) {
        None => {
            fleet.metrics.duplicates.inc(1);
        }
        Some(true) => {
            if let Some(Deliver::Internal(tx)) = fleet.pending.take(rid) {
                let _ = tx.send(v);
            }
        }
        Some(false) => {
            let code = v.get("code").and_then(Value::as_str).unwrap_or("");
            // A retryable code fails over whatever the status says:
            // `shedding` arrives as `"status":"shedding"`.
            if ErrorCode::parse_wire(code).is_some_and(ErrorCode::retryable) && !fleet.draining.load(Ordering::Relaxed) {
                fleet.rmetrics[replica.id].failures.inc(1);
                handle_failure(fleet, rid, Some(text.to_string()));
            } else if let Some(Deliver::Client { id, sink, .. }) = fleet.pending.take(rid) {
                answer_client(fleet, &sink, v, id);
            } else {
                fleet.metrics.duplicates.inc(1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Supervisor: revive (spawn/connect + resync + attach)
// ---------------------------------------------------------------------------

/// Brings a down replica back: connect/respawn, handshake, replay the
/// delta suffix it missed, attach the reader thread, mark routable.
fn revive(fleet: &Arc<Fleet>, replica: &Arc<Replica>) -> Result<(), String> {
    let seen_before = replica.epoch() > 0;
    let mut hs: Handshake = replica.connect(fleet.opts.probe_timeout.max(Duration::from_secs(2)))?;
    // Resync and attach under the reload lock: the fleet generation and
    // delta log cannot shift mid-replay, and a two-phase swap never runs
    // concurrently with a half-synced replica joining.
    let mut log = fleet.log.lock().unwrap_or_else(|p| p.into_inner());
    // The first replica ever seen defines the artifact's base generation,
    // unless the log was restored from disk at startup. Starting creates
    // the durable log: a coordinator that cannot make it durable refuses
    // the replica — and, at bring-up, refuses to run.
    if log.start(hs.generation)? {
        fleet.generation.store(hs.generation, Ordering::Relaxed);
    }
    let base = log.base();
    let fleet_gen = fleet.generation.load(Ordering::Relaxed);
    let mut gen = hs.generation;
    if gen < base || gen > fleet_gen {
        return Err(format!("replica {}: generation {gen} outside the fleet's [{base}, {fleet_gen}] — wrong artifact?", replica.id));
    }
    let replay = &log.deltas()[(gen - base) as usize..];
    if !replay.is_empty() {
        // Replayed reloads rebuild the index synchronously; give them the
        // reload budget, not the probe budget the handshake used.
        hs.stream.set_read_timeout(Some(fleet.opts.reload_timeout)).map_err(|e| e.to_string())?;
    }
    for delta in replay {
        let mut req = delta.clone();
        set_field(&mut req, "type", json!("reload"));
        set_field(&mut req, "id", json!(0));
        let resp =
            sync_request(&mut hs.stream, &mut hs.reader, &req.to_string()).map_err(|e| format!("replica {}: resync replay: {e}", replica.id))?;
        if resp.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("replica {}: resync replay rejected: {resp}", replica.id));
        }
        gen = resp.get("generation").and_then(Value::as_u64).unwrap_or(gen);
    }
    if gen != fleet_gen {
        return Err(format!("replica {}: resync ended at generation {gen}, fleet is at {fleet_gen}", replica.id));
    }
    if !replay.is_empty() {
        fleet.metrics.resyncs.inc(1);
        eprintln!("fleet: replica {} resynced {} delta(s) to generation {gen}", replica.id, replay.len());
    }
    // Attached readers poll with a short timeout (so a socket shutdown or
    // process exit is noticed promptly without busy-waiting).
    hs.stream.set_read_timeout(Some(READ_POLL)).map_err(|e| e.to_string())?;
    let write_half = hs.stream.try_clone().map_err(|e| e.to_string())?;
    let epoch = replica.attach(write_half, hs.addr.clone(), gen, hs.draining);
    if seen_before {
        fleet.rmetrics[replica.id].restarts.inc(1);
    }
    fleet.rmetrics[replica.id].up.set(1);
    fleet.metrics.replicas_up.set(fleet.up_count());
    println!("replica {} pid {} at {}", replica.id, replica.pid.load(Ordering::Relaxed), hs.addr);
    let _ = std::io::stdout().flush();
    let fleet = Arc::clone(fleet);
    let replica = Arc::clone(replica);
    let reader = hs.reader;
    std::thread::spawn(move || replica_reader(&fleet, &replica, epoch, reader));
    Ok(())
}

fn supervisor_loop(fleet: &Arc<Fleet>) {
    let n = fleet.replicas.len();
    let mut next_attempt = vec![Instant::now(); n];
    let mut failures = vec![0u32; n];
    while !fleet.draining.load(Ordering::Relaxed) {
        for (i, replica) in fleet.replicas.iter().enumerate() {
            if replica.is_up() || Instant::now() < next_attempt[i] {
                continue;
            }
            match revive(fleet, replica) {
                Ok(()) => failures[i] = 0,
                Err(e) => {
                    failures[i] = failures[i].saturating_add(1);
                    next_attempt[i] = Instant::now() + BACKOFF.delay(failures[i].min(6), i as u64);
                    eprintln!("fleet: replica {i}: revive failed: {e}");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------------
// Health probing
// ---------------------------------------------------------------------------

/// Sends one internal request to a replica and waits for its response.
fn internal_request(fleet: &Fleet, replica: &Arc<Replica>, body: &mut Value, timeout: Duration) -> Result<Value, String> {
    let rid = fleet.pending.next_rid();
    set_field(body, "id", json!(rid));
    let line = body.to_string();
    let (tx, rx) = mpsc::channel();
    fleet.pending.admit_with_rid(Deliver::Internal(tx), line.clone(), rid);
    replica.track_inflight(rid);
    if !replica.send_line(&line) {
        replica.untrack_inflight(rid);
        let _ = fleet.pending.take(rid);
        return Err("send failed".into());
    }
    match rx.recv_timeout(timeout) {
        Ok(v) => Ok(v),
        Err(_) => {
            // Remove the probe entry; a late answer becomes a counted
            // duplicate instead of a leak.
            let _ = fleet.pending.take(rid);
            replica.untrack_inflight(rid);
            Err(format!("no response within {timeout:?}"))
        }
    }
}

fn health_loop(fleet: &Arc<Fleet>) {
    while !fleet.draining.load(Ordering::Relaxed) {
        std::thread::sleep(fleet.opts.health_interval);
        if fleet.draining.load(Ordering::Relaxed) {
            return;
        }
        // Never probe mid-reload: a prepare's index rebuild runs on the
        // replica's connection thread and would look like a hang.
        let Ok(_guard) = fleet.log.try_lock() else { continue };
        for replica in &fleet.replicas {
            if !replica.is_up() {
                continue;
            }
            let epoch = replica.epoch();
            match internal_request(fleet, replica, &mut json!({"type": "health"}), fleet.opts.probe_timeout) {
                Ok(v) => {
                    let draining = v.get("draining").and_then(Value::as_bool).unwrap_or(false);
                    if draining != replica.draining.swap(draining, Ordering::Relaxed) && draining {
                        eprintln!("fleet: replica {} draining; routing around it", replica.id);
                    }
                    let gen = v.get("generation").and_then(Value::as_u64).unwrap_or(0);
                    replica.generation.store(gen, Ordering::Relaxed);
                    if gen != fleet.generation.load(Ordering::Relaxed) {
                        // Alive but on the wrong generation (missed a swap
                        // without dying): cut it loose, the supervisor
                        // resyncs it from the delta log.
                        if replica.mark_down(epoch) {
                            eprintln!(
                                "fleet: replica {} at generation {gen}, fleet at {}; forcing resync",
                                replica.id,
                                fleet.generation.load(Ordering::Relaxed)
                            );
                            on_replica_down(fleet, replica);
                        }
                    }
                }
                Err(e) => {
                    if replica.mark_down(epoch) {
                        eprintln!("fleet: replica {} probe failed ({e}); disconnecting", replica.id);
                        fleet.rmetrics[replica.id].failures.inc(1);
                        on_replica_down(fleet, replica);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Two-phase fleet reload
// ---------------------------------------------------------------------------

/// Ships one client `reload` fleet-wide; the ack body, or why not.
fn fleet_reload(fleet: &Arc<Fleet>, request: &Value) -> Result<Value, (ErrorCode, String)> {
    let mut log = fleet.log.lock().unwrap_or_else(|p| p.into_inner());
    if fleet.draining.load(Ordering::Relaxed) {
        return Err((ErrorCode::Shedding, "fleet is draining".into()));
    }
    if let Some(refusal) = log.poisoned() {
        return Err((ErrorCode::Internal, refusal.into()));
    }
    let ups: Vec<Arc<Replica>> = fleet.replicas.iter().filter(|r| r.is_up()).cloned().collect();
    if ups.is_empty() {
        return Err((ErrorCode::Internal, "no replicas are up".into()));
    }
    // The delta body shipped to replicas and logged for resync: the client
    // request minus its envelope fields.
    let mut body = Map::new();
    if let Some(obj) = request.as_object() {
        for (k, v) in obj.iter() {
            if k != "type" && k != "id" {
                body.insert(k.clone(), v.clone());
            }
        }
    }
    let delta = Value::Object(body);
    let target = fleet.generation.load(Ordering::Relaxed) + 1;

    // Phase 1: prepare everywhere. Every up replica must finish building
    // generation `target` before anything swaps.
    let mut failures: Vec<String> = Vec::new();
    for replica in &ups {
        let mut req = delta.clone();
        set_field(&mut req, "type", json!("prepare"));
        match internal_request(fleet, replica, &mut req, fleet.opts.reload_timeout) {
            Ok(v) if v.get("status").and_then(Value::as_str) == Some("ok") => {
                let prepared = v.get("prepared_generation").and_then(Value::as_u64);
                if prepared != Some(target) {
                    failures.push(format!("replica {}: prepared generation {prepared:?}, wanted {target}", replica.id));
                }
            }
            Ok(v) => failures.push(format!("replica {}: {v}", replica.id)),
            Err(e) => failures.push(format!("replica {}: {e}", replica.id)),
        }
    }
    if !failures.is_empty() {
        // Abort: nothing was activated, every replica still serves the old
        // generation, and stale pending generations are replaced by the
        // next prepare (or invalidated by a direct apply). Mixed serving
        // states are impossible from this path.
        return Err((ErrorCode::Internal, format!("prepare failed; fleet unchanged: {}", failures.join("; "))));
    }

    // Phase 2: activate everywhere. A replica that fails here is cut loose
    // and resynced by the supervisor — it rejoins at `target` or not at all.
    let mut acked = 0usize;
    for replica in &ups {
        let epoch = replica.epoch();
        match internal_request(fleet, replica, &mut json!({"type": "activate", "generation": target}), fleet.opts.reload_timeout) {
            Ok(v) if v.get("status").and_then(Value::as_str) == Some("ok") => {
                replica.generation.store(target, Ordering::Relaxed);
                acked += 1;
            }
            Ok(v) => {
                eprintln!("fleet: replica {} refused activate {target} ({v}); forcing resync", replica.id);
                if replica.mark_down(epoch) {
                    on_replica_down(fleet, replica);
                }
            }
            Err(e) => {
                eprintln!("fleet: replica {} lost mid-activate ({e}); will resync on rejoin", replica.id);
                if replica.mark_down(epoch) {
                    on_replica_down(fleet, replica);
                }
            }
        }
    }
    if acked == 0 {
        return Err((ErrorCode::Internal, "no replica activated the new generation; fleet will reconverge on the old one".into()));
    }
    fleet.generation.store(target, Ordering::Relaxed);
    // The log and generation always reflect what the replicas actually
    // serve (they are at `target` now, durable or not); durability is
    // settled before the ack.
    let committed = log.commit(target, delta);
    fleet.metrics.reloads.inc(1);
    fleet.metrics.generation.set(target.min(i64::MAX as u64) as i64);
    if let Err(e) = committed {
        // The fleet converged on `target` but the disk did not: tell the
        // client the reload is NOT durable (a coordinator restart may
        // forget it) instead of acking a promise the disk cannot keep.
        return Err((ErrorCode::Internal, format!("reload activated fleet-wide but is not durable: {e}")));
    }
    fleet.maybe_compact(&mut log);
    Ok(json!({
        "status": "ok",
        "generation": target,
        "replicas_acked": acked,
        "replicas_total": ups.len(),
    }))
}

/// Control-plane responses bypass the served/shed/failed ledger (that
/// partition is for extract requests, mirroring `aeetes serve`).
fn respond_control(sink: &Sink, mut response: Value, client_id: Value) {
    set_field(&mut response, "id", client_id);
    sink.respond(&response.to_string());
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

fn stats_value(fleet: &Fleet) -> Value {
    fleet.metrics.pending.set(fleet.pending.len().min(i64::MAX as usize) as i64);
    fleet.metrics.replicas_up.set(fleet.up_count());
    let replicas: Vec<Value> = fleet
        .replicas
        .iter()
        .map(|r| {
            let m = &fleet.rmetrics[r.id];
            json!({
                "replica": r.id,
                "up": r.is_up(),
                "draining": r.draining.load(Ordering::Relaxed),
                "generation": r.generation.load(Ordering::Relaxed),
                "addr": r.addr(),
                "pid": r.pid.load(Ordering::Relaxed),
                "routed": m.routed.value(),
                "failures": m.failures.value(),
                "restarts": m.restarts.value(),
            })
        })
        .collect();
    let m = &fleet.metrics;
    json!({
        "uptime_ms": fleet.start.elapsed().as_millis() as u64,
        "generation": fleet.generation.load(Ordering::Relaxed),
        "draining": fleet.draining.load(Ordering::Relaxed),
        "pending": fleet.pending.len(),
        "replicas_up": fleet.up_count(),
        "replicas": replicas,
        "routed": m.routed.value(),
        "retried": m.retried.value(),
        "failed_over": m.failed_over.value(),
        "resyncs": m.resyncs.value(),
        "duplicates": m.duplicates.value(),
        "reloads": m.reloads.value(),
        "served": m.answered_served.value(),
        "shed": m.answered_shed.value(),
        "failed": m.answered_failed.value(),
    })
}

/// Serves one client connection on the shared framing loop. Returns `true`
/// when this connection asked the fleet to shut down.
fn client_stream(fleet: &Arc<Fleet>, reader: &mut impl BufRead, sink: &Sink) -> bool {
    let ended = read_requests(reader, LINE_CAP, Duration::ZERO, &fleet.draining, |request| match request {
        Ok(text) => client_request(fleet, text, sink),
        Err(reject) => {
            sink.respond(&error_line(&reject));
            false
        }
    });
    ended == Ended::Shutdown
}

/// Answers or admits one client request line. Returns `true` for `shutdown`.
fn client_request(fleet: &Arc<Fleet>, text: &str, sink: &Sink) -> bool {
    let Ok(mut v): Result<Value, _> = serde_json::from_str(text) else {
        sink.respond(&error_line(&Reject::new(Value::Null, ErrorCode::BadRequest, "request line is not valid JSON")));
        return false;
    };
    let client_id = v.get("id").cloned().unwrap_or(Value::Null);
    let kind = v.get("type").and_then(Value::as_str).unwrap_or("").to_string();
    match kind.as_str() {
        "extract" => {
            if fleet.draining.load(Ordering::Relaxed) {
                answer_client(fleet, sink, Reject::new(Value::Null, ErrorCode::Shedding, "fleet is draining").value(), client_id);
                return false;
            }
            let rid = fleet.pending.next_rid();
            set_field(&mut v, "id", json!(rid));
            let expires = Instant::now() + fleet.opts.request_timeout;
            fleet
                .pending
                .admit_with_rid(Deliver::Client { id: client_id, sink: sink.clone(), expires }, v.to_string(), rid);
            let _ = fleet.dispatch_tx.send(DispatchMsg { rid, not_before: Instant::now() });
        }
        "health" => {
            let draining = fleet.draining.load(Ordering::Relaxed);
            let response = json!({
                "status": "ok",
                "health": if draining { "draining" } else { "ok" },
                "draining": draining,
                "generation": fleet.generation.load(Ordering::Relaxed),
                "replicas_up": fleet.up_count(),
            });
            respond_control(sink, response, client_id);
        }
        "stats" => respond_control(sink, json!({"status": "ok", "stats": stats_value(fleet)}), client_id),
        "metrics" => {
            fleet.metrics.pending.set(fleet.pending.len().min(i64::MAX as usize) as i64);
            fleet.metrics.replicas_up.set(fleet.up_count());
            fleet.metrics.generation.set(fleet.generation.load(Ordering::Relaxed).min(i64::MAX as u64) as i64);
            respond_control(sink, json!({"status": "ok", "metrics": metrics_value(&fleet.registry)}), client_id);
        }
        "reload" => match fleet_reload(fleet, &v) {
            Ok(ack) => respond_control(sink, ack, client_id),
            Err((code, message)) => sink.respond(&error_line(&Reject::new(client_id, code, message))),
        },
        "prepare" | "activate" => {
            let message = "the coordinator runs prepare/activate itself; send `reload` and it ships two-phase";
            sink.respond(&error_line(&Reject::new(client_id, ErrorCode::BadRequest, message)));
        }
        "shutdown" => {
            fleet.draining.store(true, Ordering::Relaxed);
            respond_control(sink, json!({"status": "ok", "draining": true}), client_id);
            return true;
        }
        other => {
            let message = format!("unknown request type `{other}`");
            sink.respond(&error_line(&Reject::new(client_id, ErrorCode::BadRequest, message)));
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs the coordinator until a `shutdown` request, then drains: waits for
/// pending work, answers leftovers as shed, shuts the replicas down.
pub fn run_fleet(opts: FleetOptions) -> Result<FleetSummary, String> {
    if opts.replicas.is_empty() {
        return Err("a fleet needs at least one replica".into());
    }
    let registry = Arc::new(MetricRegistry::new());
    let metrics = FleetMetrics::register(&registry);
    // Restore the durable delta log, if one survives on disk: the restarted
    // coordinator recovers its base generation, fleet generation, and the
    // resync log, so rejoining replicas are brought forward from disk state
    // instead of being refused by a coordinator with amnesia. Without one,
    // the log starts at the first replica handshake.
    let mut log = DeltaLog::new(opts.wal.clone(), WalMetrics::register(&registry));
    log.restore(|_, deltas| Ok(deltas.len() as u64))?;
    let replicas: Vec<Arc<Replica>> = opts.replicas.iter().cloned().enumerate().map(|(i, spec)| Arc::new(Replica::new(i, spec))).collect();
    let rmetrics: Vec<ReplicaMetrics> = replicas.iter().map(|r| metrics.replica(r.id)).collect();
    let (dispatch_tx, dispatch_rx) = mpsc::channel::<DispatchMsg>();
    let max_attempts = if opts.max_attempts == 0 { replicas.len() as u32 } else { opts.max_attempts };
    let fleet = Arc::new(Fleet {
        replicas,
        rmetrics,
        pending: PendingTable::new(max_attempts),
        metrics,
        registry,
        dispatch_tx,
        draining: AtomicBool::new(false),
        generation: AtomicU64::new(log.generation()),
        log: Mutex::new(log),
        opts,
        start: Instant::now(),
        round_robin: AtomicUsize::new(0),
    });

    // Initial bring-up: every slot must come up before clients are
    // accepted, so the chaos harness (and operators) start from a known
    // fleet shape. Later deaths are the supervisor's job.
    for replica in &fleet.replicas {
        revive(&fleet, replica).map_err(|e| format!("initial bring-up: {e}"))?;
    }
    fleet.metrics.generation.set(fleet.generation.load(Ordering::Relaxed).min(i64::MAX as u64) as i64);

    let listener = TcpListener::bind(&fleet.opts.listen).map_err(|e| format!("{}: {e}", fleet.opts.listen))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {local}");
    let _ = std::io::stdout().flush();

    let dispatcher = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || dispatcher_loop(&fleet, &dispatch_rx))
    };
    let supervisor = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || supervisor_loop(&fleet))
    };
    let health = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || health_loop(&fleet))
    };

    // No connection cap and no idle timeout: the fleet's clients are few and
    // long-lived.
    let for_clients = Arc::clone(&fleet);
    accept_loop(&listener, &fleet.draining, None, move |reader, sink| client_stream(&for_clients, reader, sink));

    // Drain: finish pending work within the deadline, then sweep.
    let deadline = Instant::now() + fleet.opts.drain;
    while !fleet.pending.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    for (_rid, deliver) in fleet.pending.drain() {
        match deliver {
            Deliver::Client { id, sink, .. } => {
                let drained = Reject::new(Value::Null, ErrorCode::Shedding, "fleet drained before this request was answered");
                answer_client(&fleet, &sink, drained.value(), id);
            }
            Deliver::Internal(tx) => {
                let _ = tx.send(Reject::new(Value::Null, ErrorCode::Shedding, "fleet drained").value());
            }
        }
    }
    for replica in &fleet.replicas {
        replica.request_shutdown();
    }
    for replica in &fleet.replicas {
        replica.wait_child(Duration::from_secs(2));
        let epoch = replica.epoch();
        replica.mark_down(epoch);
    }
    let _ = dispatcher.join();
    let _ = supervisor.join();
    let _ = health.join();

    let summary = FleetSummary {
        served: fleet.metrics.answered_served.value(),
        shed: fleet.metrics.answered_shed.value(),
        failed: fleet.metrics.answered_failed.value(),
    };
    eprintln!("fleet: drained; served={} shed={} failed={}", summary.served, summary.shed, summary.failed);
    Ok(summary)
}
