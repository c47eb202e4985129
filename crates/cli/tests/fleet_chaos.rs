//! Chaos harness for `aeetes fleet`: spawns the real coordinator binary
//! over real replica children and drives the failure matrix the cluster
//! was built for — a replica SIGKILLed mid-stream concurrent with a
//! dictionary-delta ship, reloads under sustained load, and full drain —
//! asserting the contract end to end:
//!
//! - every admitted request is answered exactly once (lockstep clients
//!   check each response id, and the coordinator's served/shed/failed
//!   ledger reconciles exactly with what the harness sent);
//! - the fleet converges back to a single generation after a crash that
//!   races a two-phase swap;
//! - the killed replica is respawned, resynced from the delta log, and
//!   serves post-delta entities;
//! - a replica that sheds is failed over, like any retryable answer.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aeetes_core::AeetesConfig;
use aeetes_rules::RuleSet;
use aeetes_shard::ShardedEngine;
use aeetes_text::{Dictionary, Interner, Tokenizer};
use serde_json::{json, Value};

/// Builds a small engine file and returns its path (unique per test).
fn engine_file(tag: &str) -> PathBuf {
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
    let path = std::env::temp_dir().join(format!("aeetes-fleet-chaos-{}-{tag}.bin", std::process::id()));
    std::fs::write(&path, bytes).expect("write engine file");
    path
}

struct Fleet {
    child: Child,
    addr: String,
    /// Pids of the initially spawned replicas, from the bring-up banner.
    replica_pids: Vec<u32>,
}

impl Fleet {
    /// Spawns `aeetes fleet --replicas N --listen 127.0.0.1:0 ...` and
    /// parses the replica banners plus the bound address from stdout.
    fn spawn(engine: &Path, n: usize, extra: &[&str]) -> Fleet {
        let n_arg = n.to_string();
        let mut args = vec!["--engine", engine.to_str().expect("utf-8 path"), "--replicas", &n_arg];
        args.extend_from_slice(extra);
        Fleet::launch(&args, n)
    }

    /// Spawns `aeetes fleet --listen 127.0.0.1:0 ARGS` over `n` replicas.
    fn launch(args: &[&str], n: usize) -> Fleet {
        let mut child = Command::new(env!("CARGO_BIN_EXE_aeetes"))
            .arg("fleet")
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn fleet");
        let mut reader = BufReader::new(child.stdout.take().expect("fleet stdout"));
        let mut replica_pids = Vec::new();
        let addr = loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read fleet banner");
            assert!(!line.is_empty(), "fleet exited before printing its banner");
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.to_string();
            }
            // "replica N pid P at ADDR"
            if let Some(rest) = line.strip_prefix("replica ") {
                let pid: u32 = rest
                    .split_whitespace()
                    .nth(2)
                    .and_then(|p| p.parse().ok())
                    .unwrap_or_else(|| panic!("bad replica banner {line:?}"));
                replica_pids.push(pid);
            }
        };
        assert_eq!(replica_pids.len(), n, "one banner per replica");
        // Keep draining stdout (respawn banners) so the pipe never fills.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(x) if x > 0) {
                sink.clear();
            }
        });
        Fleet { child, addr, replica_pids }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect fleet");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream
    }

    /// Sends one request line on a fresh connection, returns the response.
    fn round_trip(&self, line: &str) -> Value {
        let mut stream = self.connect();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).expect("read response");
        assert!(!resp.is_empty(), "fleet closed without answering {line:?}");
        serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }

    fn stats(&self) -> Value {
        let v = self.round_trip(r#"{"type":"stats","id":0}"#);
        v.get("stats").cloned().unwrap_or_else(|| panic!("no stats in {v}"))
    }

    /// Polls stats until `pred` holds, panicking past the deadline.
    fn wait_until(&self, what: &str, budget: Duration, pred: impl Fn(&Value) -> bool) -> Value {
        let deadline = Instant::now() + budget;
        loop {
            let stats = self.stats();
            if pred(&stats) {
                return stats;
            }
            assert!(Instant::now() < deadline, "fleet never reached `{what}` within {budget:?}; last stats: {stats}");
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    fn shutdown_and_wait(mut self, budget: Duration) {
        let v = self.round_trip(r#"{"type":"shutdown","id":0}"#);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"), "shutdown must ack: {v}");
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "fleet exited with {status:?}");
                return;
            }
            assert!(start.elapsed() <= budget, "fleet did not drain and exit within {budget:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// A failed assertion must not leave a coordinator running (with remote
/// replicas nothing else would stop it).
impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn status_of(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or_else(|| panic!("no status in {v}"))
}

/// True when every replica is up and reports `generation`.
fn converged_at(stats: &Value, generation: u64) -> bool {
    let Some(replicas) = stats.get("replicas").and_then(Value::as_array) else {
        return false;
    };
    stats.get("generation").and_then(Value::as_u64) == Some(generation)
        && replicas
            .iter()
            .all(|r| r.get("up").and_then(Value::as_bool) == Some(true) && r.get("generation").and_then(Value::as_u64) == Some(generation))
}

/// One lockstep client: `count` extract requests on a persistent
/// connection, asserting every response echoes the id it sent (a
/// double-delivered answer would surface as a mismatched id on the next
/// read). Returns (ok, shed, failed) as observed client-side.
fn lockstep_client(addr: &str, thread: usize, count: usize, sent: &AtomicU64) -> (u64, u64, u64) {
    let mut stream = TcpStream::connect(addr).expect("client connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
    for i in 0..count {
        let id = format!("c{thread}-{i}");
        let line = format!(r#"{{"type":"extract","id":"{id}","doc":"the university of wisconsin madison and acme corporation inc"}}"#);
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        sent.fetch_add(1, Ordering::Relaxed);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("client read");
        assert!(!resp.is_empty(), "fleet closed mid-conversation on request {id}");
        let v: Value = serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"));
        assert_eq!(
            v.get("id").and_then(Value::as_str),
            Some(id.as_str()),
            "response id must match the request (duplicate or reordered answer): {v}"
        );
        // Classified as the coordinator's ledger does: by code. A shedding
        // answer says `"status":"shedding"`, whether a replica or the
        // coordinator raised it.
        match (status_of(&v), v.get("code").and_then(Value::as_str)) {
            ("ok", _) => ok += 1,
            (_, Some("shedding")) => shed += 1,
            _ => failed += 1,
        }
    }
    (ok, shed, failed)
}

/// The headline chaos scenario from the issue: three replicas under
/// sustained load, one SIGKILLed mid-stream *concurrently with* a
/// dictionary-delta ship. Afterwards: exact ledger reconciliation, single
/// converged generation, and the restarted replica serving the delta.
#[test]
fn kill_replica_mid_stream_during_delta_ship() {
    let engine = engine_file("kill-mid-delta");
    let fleet = Fleet::spawn(&engine, 3, &["--request-timeout", "20", "--health-interval", "0.2", "--drain", "10"]);
    let victim = fleet.replica_pids[1];
    let sent = Arc::new(AtomicU64::new(0));

    // Sustained load: 4 lockstep clients, 60 requests each.
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let addr = fleet.addr.clone();
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || lockstep_client(&addr, t, 60, &sent))
        })
        .collect();

    // Mid-stream: ship a delta and SIGKILL the victim at the same moment,
    // from two racing threads.
    while sent.load(Ordering::Relaxed) < 40 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let reload = {
        let addr = fleet.addr.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("reload connect");
            stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            stream.write_all(br#"{"type":"reload","id":"ship","add_entities":["eth zurich"]}"#).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut resp = String::new();
            BufReader::new(stream).read_line(&mut resp).expect("reload read");
            serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad reload response {resp:?}: {e}"))
        })
    };
    let killer = std::thread::spawn(move || {
        // SAFETY: plain libc kill(2) on a child we spawned.
        unsafe { libc_kill(victim as i32, 9) };
    });
    killer.join().unwrap();
    // The reload is answered exactly once, whatever the race decided: ok
    // (the kill landed outside the two-phase window) or a clean error (a
    // phase lost the victim). Either way the fleet must reconverge below.
    let reload_resp = reload.join().unwrap();
    assert_eq!(reload_resp.get("id").and_then(Value::as_str), Some("ship"));
    let delta_applied = status_of(&reload_resp) == "ok";

    // Every client request answered exactly once, client-side.
    let mut client_ok = 0u64;
    let mut client_shed = 0u64;
    let mut client_failed = 0u64;
    for c in clients {
        let (ok, shed, failed) = c.join().expect("client thread");
        client_ok += ok;
        client_shed += shed;
        client_failed += failed;
    }
    let total = sent.load(Ordering::Relaxed);
    assert_eq!(client_ok + client_shed + client_failed, total, "every request must be answered exactly once");
    assert_eq!(total, 240);
    // With 3 replicas, per-replica failover, and a generous deadline, one
    // crash must not surface to clients as a failure.
    assert_eq!(client_failed, 0, "a single replica crash must be absorbed by failover");

    // The fleet converges: victim respawned, resynced, single generation.
    let target_gen = if delta_applied { 2 } else { 1 };
    let stats = fleet.wait_until("3 replicas up on one generation", Duration::from_secs(20), |s| converged_at(s, target_gen));
    let restarts: u64 = stats
        .get("replicas")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|r| r.get("restarts").and_then(Value::as_u64).unwrap_or(0))
        .sum();
    assert!(restarts >= 1, "the killed replica must have been respawned: {stats}");

    // The coordinator's ledger reconciles exactly with what we sent (the
    // reload and stats/health probes are control-plane, not in the ledger).
    assert_eq!(stats.get("served").and_then(Value::as_u64), Some(client_ok), "served ledger");
    assert_eq!(stats.get("shed").and_then(Value::as_u64), Some(client_shed), "shed ledger");
    assert_eq!(stats.get("failed").and_then(Value::as_u64), Some(client_failed), "failed ledger");

    // Ship (another) delta now that the fleet is whole: all 3 must ack,
    // proving the restarted replica rejoined the two-phase protocol.
    let v = fleet.round_trip(r#"{"type":"reload","id":"after","add_entities":["nagoya institute of technology"]}"#);
    assert_eq!(status_of(&v), "ok", "post-recovery reload must succeed: {v}");
    assert_eq!(v.get("replicas_acked").and_then(Value::as_u64), Some(3), "restarted replica must take the swap: {v}");
    let final_gen = v.get("generation").and_then(Value::as_u64).unwrap();
    fleet.wait_until("post-recovery convergence", Duration::from_secs(10), |s| converged_at(s, final_gen));

    // And the fleet serves the post-delta entity — including, eventually,
    // from the restarted replica (route enough to hit every replica).
    for i in 0..6 {
        let v = fleet.round_trip(&format!(r#"{{"type":"extract","id":"probe{i}","doc":"nagoya institute of technology"}}"#));
        assert_eq!(status_of(&v), "ok", "{v}");
        let matched = v.get("matches").and_then(Value::as_array).map(Vec::len).unwrap_or(0);
        assert!(matched >= 1, "post-delta entity must match on every replica: {v}");
    }

    fleet.shutdown_and_wait(Duration::from_secs(20));
}

/// Reload-under-load swap with all three replicas healthy: several deltas
/// shipped while clients stream, each acked 3/3, generation strictly
/// increasing, ledger exact, zero client-visible failures.
#[test]
fn three_replica_reload_under_load_swaps_cleanly() {
    let engine = engine_file("reload-under-load");
    let fleet = Fleet::spawn(&engine, 3, &["--request-timeout", "20", "--drain", "10"]);
    let sent = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..3)
        .map(|t| {
            let addr = fleet.addr.clone();
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || lockstep_client(&addr, t, 50, &sent))
        })
        .collect();

    let mut generation = 1u64;
    for round in 0..3 {
        while sent.load(Ordering::Relaxed) < (round + 1) * 30 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let v = fleet.round_trip(&format!(r#"{{"type":"reload","id":"r{round}","add_entities":["entity round {round}"]}}"#));
        assert_eq!(status_of(&v), "ok", "reload under load must succeed with a healthy fleet: {v}");
        assert_eq!(v.get("replicas_acked").and_then(Value::as_u64), Some(3), "every replica acks the swap: {v}");
        let g = v.get("generation").and_then(Value::as_u64).unwrap();
        assert_eq!(g, generation + 1, "generations must advance one per delta");
        generation = g;
    }

    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
    for c in clients {
        let (o, s, f) = c.join().expect("client thread");
        ok += o;
        shed += s;
        failed += f;
    }
    assert_eq!(ok + shed + failed, sent.load(Ordering::Relaxed));
    assert_eq!(failed, 0, "a healthy fleet must not fail requests during swaps");
    let stats = fleet.wait_until("convergence", Duration::from_secs(10), |s| converged_at(s, generation));
    assert_eq!(stats.get("served").and_then(Value::as_u64), Some(ok));
    assert_eq!(stats.get("shed").and_then(Value::as_u64), Some(shed));
    assert_eq!(stats.get("failed").and_then(Value::as_u64), Some(0));
    // All four pre-delta + three per-round entities are now served.
    let v = fleet.round_trip(r#"{"type":"extract","id":"p","doc":"entity round 2"}"#);
    assert!(v.get("matches").and_then(Value::as_array).map(Vec::len).unwrap_or(0) >= 1, "{v}");
    fleet.shutdown_and_wait(Duration::from_secs(20));
}

/// Fleet control plane basics: health and stats expose generation and
/// draining, direct prepare/activate are the coordinator's business, and
/// drain answers everything before exit.
#[test]
fn fleet_control_plane_and_drain() {
    let engine = engine_file("control");
    let fleet = Fleet::spawn(&engine, 2, &["--drain", "10"]);
    let h = fleet.round_trip(r#"{"type":"health","id":1}"#);
    assert_eq!(status_of(&h), "ok");
    assert_eq!(h.get("generation").and_then(Value::as_u64), Some(1), "{h}");
    assert_eq!(h.get("draining").and_then(Value::as_bool), Some(false), "{h}");
    assert_eq!(h.get("replicas_up").and_then(Value::as_u64), Some(2), "{h}");

    // The two-phase protocol is coordinator-internal; a client cannot
    // split-brain the fleet by activating one replica directly.
    for t in ["prepare", "activate"] {
        let v = fleet.round_trip(&format!(r#"{{"type":"{t}","id":2,"generation":9,"add_entities":["x"]}}"#));
        assert_eq!(status_of(&v), "error", "{v}");
        assert_eq!(v.get("code").and_then(Value::as_str), Some("bad_request"), "{v}");
    }

    let v = fleet.round_trip(r#"{"type":"extract","id":3,"doc":"uq au"}"#);
    assert_eq!(status_of(&v), "ok", "{v}");
    fleet.shutdown_and_wait(Duration::from_secs(20));
}

/// A replica stand-in on a thread of the test: it answers every `health`
/// probe at `generation` and every other request `shedding`, as a server
/// whose queue is full does. Returns its address.
fn shedding_replica(generation: u64) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub replica");
    let addr = listener.local_addr().expect("stub address").to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            std::thread::spawn(move || {
                let mut writer = conn.try_clone().expect("clone stub connection");
                for line in BufReader::new(conn).lines() {
                    let Ok(request) = line.map(|l| serde_json::from_str(&l).unwrap_or(Value::Null)) else {
                        return;
                    };
                    let id = request.get("id").cloned().unwrap_or(Value::Null);
                    let answer = match request.get("type").and_then(Value::as_str) {
                        Some("health") => json!({"id": id, "status": "ok", "health": "ok", "draining": false, "generation": generation}),
                        _ => json!({"id": id, "status": "shedding", "code": "shedding", "retryable": true, "message": "request queue is full"}),
                    };
                    if writeln!(writer, "{answer}").is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A replica that sheds is failed over: `shedding` is retryable, so the
/// fleet retries the request on the other replica — a real `aeetes serve`
/// — and the client only ever sees its answer.
#[test]
fn a_shedding_replica_is_failed_over() {
    struct Reaped(Child);
    impl Drop for Reaped {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let engine = engine_file("shedding");
    let mut serve = Reaped(
        Command::new(env!("CARGO_BIN_EXE_aeetes"))
            .args(["serve", "--engine", engine.to_str().unwrap(), "--listen", "127.0.0.1:0", "--idle-timeout", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve"),
    );
    let mut stdout = BufReader::new(serve.0.stdout.take().expect("serve stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read serve banner");
    let serve_addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad serve banner {banner:?}"))
        .to_string();
    std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));

    let fleet = Fleet::launch(&["--replica", &format!("{},{serve_addr}", shedding_replica(1))], 2);
    for i in 0..6 {
        let v = fleet.round_trip(&format!(r#"{{"type":"extract","id":{i},"doc":"uq au"}}"#));
        assert_eq!(status_of(&v), "ok", "a shed attempt must be retried on the serving replica: {v}");
    }
    let stats = fleet.stats();
    assert!(stats.get("retried").and_then(Value::as_u64).is_some_and(|n| n >= 1), "round robin reaches the stub: {stats}");
    fleet.shutdown_and_wait(Duration::from_secs(20));
    drop(serve);
    let _ = std::fs::remove_file(&engine);
}

extern "C" {
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}
