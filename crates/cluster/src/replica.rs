//! One replica slot of the fleet: a spawned `aeetes serve` child or a
//! remote TCP endpoint, plus its live connection state.
//!
//! The slot outlives any single process or connection behind it. Each
//! successful (re)connect bumps the slot's *epoch*; the reader thread that
//! serviced the old connection carries the old epoch and therefore cannot
//! mark the slot down after a newer connection has already been attached.
//!
//! Connection management (spawn, banner parse, handshake, resync, attach)
//! is the supervisor's job and runs synchronously on the not-yet-attached
//! stream; the routing path only ever calls [`Replica::send_line`] and the
//! atomic state getters, so a dead replica never blocks a dispatch for
//! longer than one failed write.

use serde_json::Value;
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a replica slot obtains a process to talk to.
#[derive(Debug, Clone)]
pub enum ReplicaSpec {
    /// Spawn `program serve <args>` as a child; the child must print the
    /// `listening on ADDR` banner on stdout (`--listen 127.0.0.1:0` makes
    /// the OS pick the port). The supervisor respawns it when it dies.
    Spawn { program: PathBuf, args: Vec<String> },
    /// An externally managed `aeetes serve` at this address. The
    /// supervisor reconnects but never spawns.
    Remote { addr: String },
}

/// Live connection state, guarded by one mutex so attach/down transitions
/// are atomic with respect to each other.
struct ConnState {
    /// Bumped on every attach; readers from older epochs are stale.
    epoch: u64,
    /// Write half of the data connection when attached.
    writer: Option<TcpStream>,
    /// Address of the current (or last) connection, for stats.
    addr: Option<String>,
}

pub(crate) struct Replica {
    pub id: usize,
    pub spec: ReplicaSpec,
    state: Mutex<ConnState>,
    child: Mutex<Option<Child>>,
    /// Routable: attached and not known dead. Read on the dispatch path.
    up: AtomicBool,
    /// The replica reported `draining: true` (stop routing, don't requeue:
    /// a draining replica still answers what it already accepted).
    pub draining: AtomicBool,
    /// Generation the replica last reported.
    pub generation: AtomicU64,
    /// Child pid (0 when remote or not running), for the fleet banner.
    pub pid: AtomicU64,
    /// rids currently dispatched to this replica and not yet answered.
    inflight: Mutex<HashSet<u64>>,
}

/// Result of a successful handshake on a fresh connection. `stream` is
/// the writable socket; `reader` wraps a clone of it (both share the
/// descriptor, so a shutdown or timeout applies to both halves).
pub(crate) struct Handshake {
    pub stream: TcpStream,
    pub reader: BufReader<TcpStream>,
    pub generation: u64,
    pub draining: bool,
    pub addr: String,
}

impl Replica {
    pub(crate) fn new(id: usize, spec: ReplicaSpec) -> Self {
        Replica {
            id,
            spec,
            state: Mutex::new(ConnState { epoch: 0, writer: None, addr: None }),
            child: Mutex::new(None),
            up: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            pid: AtomicU64::new(0),
            inflight: Mutex::new(HashSet::new()),
        }
    }

    pub(crate) fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    pub(crate) fn addr(&self) -> Option<String> {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).addr.clone()
    }

    /// Writes one request line on the data connection. `false` when not
    /// attached or the write failed (the caller treats it as a failed
    /// attempt; the reader thread will notice the broken socket too).
    pub(crate) fn send_line(&self, line: &str) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let Some(writer) = state.writer.as_mut() else { return false };
        crate::wire::write_line(writer, line).is_ok()
    }

    pub(crate) fn track_inflight(&self, rid: u64) {
        self.inflight.lock().unwrap_or_else(|p| p.into_inner()).insert(rid);
    }

    /// Returns whether the rid was still tracked here (false for a late
    /// response whose rid was already requeued after a disconnect).
    pub(crate) fn untrack_inflight(&self, rid: u64) -> bool {
        self.inflight.lock().unwrap_or_else(|p| p.into_inner()).remove(&rid)
    }

    pub(crate) fn take_inflight(&self) -> Vec<u64> {
        self.inflight.lock().unwrap_or_else(|p| p.into_inner()).drain().collect()
    }

    /// Marks the slot down *if* `epoch` is still the attached connection's
    /// epoch, shutting the socket so every clone of it errors out. Returns
    /// whether this call performed the transition (exactly one caller —
    /// reader thread, probe timeout, or failed write — wins).
    pub(crate) fn mark_down(&self, epoch: u64) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.epoch != epoch || !self.up.swap(false, Ordering::Relaxed) {
            return false;
        }
        if let Some(w) = state.writer.take() {
            let _ = w.shutdown(Shutdown::Both);
        }
        true
    }

    /// Current epoch (captured by reader threads and probe failures so
    /// their `mark_down` cannot clobber a newer connection).
    pub(crate) fn epoch(&self) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).epoch
    }

    /// Attaches a handshaken connection: stores the write half, bumps the
    /// epoch, marks the slot routable. Returns the new epoch for the
    /// reader thread.
    pub(crate) fn attach(&self, write_half: TcpStream, addr: String, generation: u64, draining: bool) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.epoch += 1;
        state.writer = Some(write_half);
        state.addr = Some(addr);
        self.generation.store(generation, Ordering::Relaxed);
        self.draining.store(draining, Ordering::Relaxed);
        self.up.store(true, Ordering::Relaxed);
        state.epoch
    }

    /// Spawns (or reuses) the child / dials the remote, and handshakes
    /// with a `health` probe so the caller learns the replica's generation
    /// before any traffic is routed. Purely synchronous; nothing is
    /// attached yet.
    pub(crate) fn connect(&self, handshake_timeout: Duration) -> Result<Handshake, String> {
        let addr = match &self.spec {
            ReplicaSpec::Remote { addr } => addr.clone(),
            ReplicaSpec::Spawn { program, args } => self.spawn_child(program, args, handshake_timeout)?,
        };
        let mut stream = TcpStream::connect(&addr).map_err(|e| format!("replica {}: connect {addr}: {e}", self.id))?;
        stream.set_nodelay(true).map_err(|e| format!("replica {}: {e}", self.id))?;
        stream.set_read_timeout(Some(handshake_timeout)).map_err(|e| format!("replica {}: {e}", self.id))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("replica {}: {e}", self.id))?);
        let hello =
            sync_request(&mut stream, &mut reader, r#"{"type":"health","id":0}"#).map_err(|e| format!("replica {}: handshake: {e}", self.id))?;
        let generation = hello
            .get("generation")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("replica {}: handshake response carries no generation: {hello}", self.id))?;
        let draining = hello.get("draining").and_then(Value::as_bool).unwrap_or(false);
        // The caller (supervisor) may run resync requests on this stream
        // before attaching the reader thread.
        Ok(Handshake { stream, reader, generation, draining, addr })
    }

    /// Spawns the child if none is running and returns the address from
    /// its banner. A child that already exited is reaped first.
    fn spawn_child(&self, program: &PathBuf, args: &[String], banner_timeout: Duration) -> Result<String, String> {
        let mut slot = self.child.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(child) = slot.as_mut() {
            match child.try_wait() {
                Ok(None) => {
                    // Still running (connection trouble, not process death):
                    // reuse the address we spawned it on.
                    if let Some(addr) = self.addr() {
                        return Ok(addr);
                    }
                    let _ = child.kill();
                    let _ = child.wait();
                }
                _ => {
                    let _ = child.wait();
                }
            }
            *slot = None;
        }
        let mut child = Command::new(program)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("replica {}: spawn {}: {e}", self.id, program.display()))?;
        let stdout = child.stdout.take().ok_or_else(|| format!("replica {}: no child stdout", self.id))?;
        self.pid.store(u64::from(child.id()), Ordering::Relaxed);
        *slot = Some(child);
        drop(slot);
        // The banner read has no native timeout; poll the child instead so
        // a child that dies before binding fails fast, and give a healthy
        // child the full budget.
        let deadline = Instant::now() + banner_timeout.max(Duration::from_secs(5));
        let mut banner_reader = BufReader::new(stdout);
        let mut banner = String::new();
        loop {
            banner.clear();
            match banner_reader.read_line(&mut banner) {
                Ok(0) => return Err(format!("replica {}: child exited before printing its banner", self.id)),
                Ok(_) => {
                    if let Some(addr) = banner.trim().strip_prefix("listening on ") {
                        // Keep draining the child's stdout so later banner
                        // lines (metrics) never fill the pipe and block it.
                        std::thread::spawn(move || {
                            let mut sink = String::new();
                            while let Ok(n) = banner_reader.read_line(&mut sink) {
                                if n == 0 {
                                    break;
                                }
                                sink.clear();
                            }
                        });
                        return Ok(addr.to_string());
                    }
                }
                Err(e) => return Err(format!("replica {}: reading banner: {e}", self.id)),
            }
            if Instant::now() >= deadline {
                return Err(format!("replica {}: no banner within {banner_timeout:?}", self.id));
            }
        }
    }

    /// Sends a shutdown request on the data connection (best effort) so a
    /// spawned replica drains instead of being killed.
    pub(crate) fn request_shutdown(&self) {
        self.send_line(r#"{"type":"shutdown","id":0}"#);
    }

    /// Waits up to `timeout` for the child to exit, then kills it.
    pub(crate) fn wait_child(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let mut slot = self.child.lock().unwrap_or_else(|p| p.into_inner());
            let Some(child) = slot.as_mut() else { return };
            match child.try_wait() {
                Ok(Some(_)) => {
                    *slot = None;
                    return;
                }
                Ok(None) if Instant::now() < deadline => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    *slot = None;
                    return;
                }
            }
            drop(slot);
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One synchronous request/response on a not-yet-attached connection
/// (handshake and resync replay). The stream's read timeout bounds the
/// wait; blank or non-JSON lines are skipped.
pub(crate) fn sync_request(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Result<Value, String> {
    crate::wire::write_line(writer, line).map_err(|e| format!("write: {e}"))?;
    loop {
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(0) => return Err("connection closed mid-handshake".into()),
            Ok(_) => {
                if response.trim().is_empty() {
                    continue;
                }
                return serde_json::from_str(&response).map_err(|e| format!("bad response line: {e}"));
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}
