//! Crash-recovery chaos suite for `aeetes serve --wal`: SIGKILL the real
//! server binary mid-reload, restart it on the same log, and require the
//! recovered extraction to be *bit-identical* to a fresh-rebuild oracle —
//! a second server that replays the same delta bodies onto the same
//! engine artifact through ordinary reloads.
//!
//! The invariant under test at every crash point: after restart the
//! server's generation `G` satisfies `last acked ≤ G ≤ last sent`, and
//! extraction at `G` equals the oracle at `G` byte-for-byte. Acked deltas
//! are never lost; unacked deltas may survive (they were applied and
//! possibly durable) but must be *whole* — never a torn half-delta.
//!
//! With `--features failpoints` the suite also drives the injected-fault
//! paths via `AEETES_FAILPOINTS` in child processes: process abort at the
//! WAL fsync, crash between the two renames of a compaction, and EIO on
//! an append, of a server and of a fleet coordinator (which must poison
//! reloads but leave extraction serving).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use aeetes_core::AeetesConfig;
use aeetes_rules::RuleSet;
use aeetes_shard::ShardedEngine;
use aeetes_text::{Dictionary, Interner, Tokenizer};

/// Builds a small engine file and returns its path (unique per test).
fn engine_file(tag: &str) -> PathBuf {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut dict = Dictionary::new();
    for entity in ["Purdue University USA", "UQ AU", "University of Wisconsin Madison"] {
        dict.push(entity, &tokenizer, &mut interner);
    }
    let mut rules = RuleSet::new();
    for (lhs, rhs) in [("uq", "university of queensland"), ("usa", "united states")] {
        rules.push_str(lhs, rhs, &tokenizer, &mut interner).unwrap();
    }
    let bytes = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 1).freeze();
    let path = std::env::temp_dir().join(format!("aeetes-recovery-{}-{tag}.bin", std::process::id()));
    std::fs::write(&path, bytes).expect("write engine file");
    path
}

fn wal_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aeetes-recovery-{}-{tag}.wal", std::process::id()))
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `aeetes serve --listen 127.0.0.1:0 ...` with optional extra
    /// environment (for `AEETES_FAILPOINTS`) and parses the bound address
    /// from the banner.
    fn spawn(engine: &PathBuf, extra: &[&str], envs: &[(&str, &str)]) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_aeetes"));
        cmd.arg("serve")
            .arg("--engine")
            .arg(engine)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn server");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("server stdout"))
            .read_line(&mut line)
            .expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        Server { child, addr }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        stream
    }

    /// Sends one request line and returns the one response line.
    fn round_trip(&self, line: &str) -> String {
        let mut stream = self.connect();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        assert!(!resp.is_empty(), "server closed without answering {line:?}");
        resp
    }

    /// SIGKILL — no drain, no atexit, the crash the WAL exists for.
    fn sigkill(&mut self) {
        self.child.kill().expect("kill server");
        self.child.wait().expect("reap server");
    }

    /// Asks for a drain and waits (bounded) for a clean exit.
    fn shutdown(mut self) {
        let bye = self.round_trip(r#"{"type":"shutdown"}"#);
        assert!(bye.contains("\"draining\":true"), "{bye}");
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "server exited with {status:?}");
                return;
            }
            assert!(start.elapsed() < Duration::from_secs(20), "server did not drain and exit in time");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Waits for the child to die on its own (injected crash), asserting
    /// the abnormal exit the failpoint promised.
    #[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
    fn wait_for_crash(mut self) {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(!status.success(), "server should have crashed, exited {status:?}");
                return;
            }
            assert!(start.elapsed() < Duration::from_secs(20), "server never hit the injected crash");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn status_of(json: &str) -> String {
    let v: serde_json::Value = serde_json::from_str(json).unwrap_or_else(|e| panic!("bad JSON response {json:?}: {e}"));
    v.get("status")
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("no status in {json}"))
        .to_string()
}

fn field_u64(json: &str, key: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(json).unwrap_or_else(|e| panic!("bad JSON response {json:?}: {e}"));
    fn find(v: &serde_json::Value, key: &str) -> Option<u64> {
        if let Some(n) = v.get(key).and_then(serde_json::Value::as_u64) {
            return Some(n);
        }
        v.as_object()?.iter().find_map(|(_, child)| find(child, key))
    }
    find(&v, key).unwrap_or_else(|| panic!("no `{key}` in {json}"))
}

/// The i-th delta body (1-based): deterministic, so the oracle can rebuild
/// any prefix. Delta `i` takes the engine from generation `i` to `i + 1`.
fn delta_body(i: u64) -> String {
    format!(r#"{{"type":"reload","id":"d{i}","add_entities":["recovery entity {i}","aux recovery term {i}"]}}"#)
}

/// Probe set covering the base dictionary plus every delta entity up to
/// `max_delta`. Probes past the applied prefix simply match nothing — on
/// both sides of the comparison.
fn probe_requests(max_delta: u64) -> Vec<String> {
    let mut probes = vec![
        r#"{"id":"p-base","type":"extract","doc":"purdue university united states met uq australia","tau":0.6}"#.to_string(),
        r#"{"id":"p-rule","type":"extract","doc":"university of queensland au","tau":0.6}"#.to_string(),
    ];
    for i in 1..=max_delta {
        probes.push(format!(r#"{{"id":"p{i}","type":"extract","doc":"saw recovery entity {i} and aux recovery term {i} today","tau":0.6}}"#));
    }
    probes
}

/// Fresh-rebuild oracle: a brand-new server on the pristine artifact, the
/// first `deltas` bodies replayed as ordinary reloads, then the probe set
/// extracted. Returns the raw response lines.
fn oracle_extractions(engine: &PathBuf, deltas: u64, probes: &[String]) -> Vec<String> {
    let server = Server::spawn(engine, &[], &[]);
    for i in 1..=deltas {
        let resp = server.round_trip(&delta_body(i));
        assert_eq!(status_of(&resp), "ok", "oracle reload {i}: {resp}");
        assert_eq!(field_u64(&resp, "generation"), i + 1, "oracle reload {i}: {resp}");
    }
    let out = probes.iter().map(|p| server.round_trip(p)).collect();
    server.shutdown();
    out
}

fn generation_of(server: &Server) -> u64 {
    field_u64(&server.round_trip(r#"{"type":"stats"}"#), "generation")
}

fn assert_matches_oracle(server: &Server, engine: &PathBuf, generation: u64, max_delta: u64) {
    let probes = probe_requests(max_delta);
    let recovered: Vec<String> = probes.iter().map(|p| server.round_trip(p)).collect();
    let oracle = oracle_extractions(engine, generation - 1, &probes);
    for (probe, (got, want)) in probes.iter().zip(recovered.iter().zip(&oracle)) {
        assert_eq!(got, want, "extraction diverged from the fresh-rebuild oracle on {probe}");
    }
}

/// THE acceptance test: SIGKILL the server while a reload storm is in
/// flight, restart on the same WAL, and require generation and extraction
/// to reconstruct exactly — acked deltas all present, any surviving
/// unacked delta whole, extraction bit-identical to the oracle.
#[test]
fn sigkill_mid_reload_restart_matches_fresh_rebuild_oracle() {
    let engine = engine_file("sigkill");
    let wal = wal_file("sigkill");
    let _ = std::fs::remove_file(&wal);

    let mut server = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);

    // A settled, definitely-acked prefix.
    const SETTLED: u64 = 4;
    for i in 1..=SETTLED {
        let resp = server.round_trip(&delta_body(i));
        assert_eq!(status_of(&resp), "ok", "{resp}");
        assert_eq!(field_u64(&resp, "generation"), i + 1, "{resp}");
    }

    // A reload storm on its own connection; SIGKILL lands somewhere in it.
    const STORM_TOP: u64 = 60;
    let addr = server.addr.clone();
    let storm = std::thread::spawn(move || {
        let mut last_acked = SETTLED;
        let Ok(mut stream) = TcpStream::connect(&addr) else { return last_acked };
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in SETTLED + 1..=STORM_TOP {
            if stream.write_all(delta_body(i).as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return last_acked;
            }
            let mut resp = String::new();
            match reader.read_line(&mut resp) {
                Ok(n) if n > 0 => {
                    if resp.contains("\"status\":\"ok\"") {
                        last_acked = i + 1;
                    }
                }
                _ => return last_acked, // the kill landed mid-request
            }
        }
        last_acked
    });
    std::thread::sleep(Duration::from_millis(40));
    server.sigkill();
    let last_acked = storm.join().expect("storm thread");

    // Restart on the same artifact + WAL.
    let revived = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
    let generation = generation_of(&revived);
    assert!(generation >= last_acked, "recovery lost acked deltas: restarted at {generation}, acked through {last_acked}");
    assert!(generation <= STORM_TOP + 1, "recovery invented deltas: restarted at {generation}");
    assert_matches_oracle(&revived, &engine, generation, STORM_TOP);

    // The revived server is not read-only: the next delta in sequence is
    // accepted, logged, and survives another (clean) restart.
    let resp = revived.round_trip(&delta_body(generation));
    assert_eq!(status_of(&resp), "ok", "{resp}");
    assert_eq!(field_u64(&resp, "generation"), generation + 1, "{resp}");
    revived.shutdown();
    let again = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
    assert_eq!(generation_of(&again), generation + 1);
    again.shutdown();

    let _ = std::fs::remove_file(&engine);
    let _ = std::fs::remove_file(&wal);
}

/// A torn tail — garbage appended to the log, as a crash mid-append would
/// leave — is truncated on restart: every acked delta survives, the
/// debris is gone, and the log accepts the next generation.
#[test]
fn torn_wal_tail_is_truncated_and_acked_deltas_survive() {
    let engine = engine_file("torn");
    let wal = wal_file("torn");
    let _ = std::fs::remove_file(&wal);

    let mut server = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
    const ACKED: u64 = 3;
    for i in 1..=ACKED {
        let resp = server.round_trip(&delta_body(i));
        assert_eq!(status_of(&resp), "ok", "{resp}");
    }
    server.sigkill();

    // Crash debris: half a record of garbage at the tail.
    let mut bytes = std::fs::read(&wal).expect("read wal");
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xC7; 13]);
    std::fs::write(&wal, &bytes).expect("write torn wal");

    let revived = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
    assert_eq!(generation_of(&revived), ACKED + 1, "exactly the acked deltas must be recovered");
    assert_eq!(std::fs::metadata(&wal).expect("wal meta").len() as usize, clean_len, "torn tail must be physically truncated");
    assert_matches_oracle(&revived, &engine, ACKED + 1, ACKED);
    let resp = revived.round_trip(&delta_body(ACKED + 1));
    assert_eq!(status_of(&resp), "ok", "recovered log must accept the next generation: {resp}");
    revived.shutdown();

    let _ = std::fs::remove_file(&engine);
    let _ = std::fs::remove_file(&wal);
}

/// `aeetes wal inspect` reports the log faithfully and `aeetes wal
/// compact` folds it into the artifact: after compaction the log is empty
/// at the new base and a restart replays nothing — with identical
/// extraction.
#[test]
fn wal_inspect_and_compact_round_trip() {
    let engine = engine_file("compact");
    let wal = wal_file("compact");
    let _ = std::fs::remove_file(&wal);

    let server = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
    const ACKED: u64 = 2;
    for i in 1..=ACKED {
        let resp = server.round_trip(&delta_body(i));
        assert_eq!(status_of(&resp), "ok", "{resp}");
    }
    server.shutdown();

    let inspect = |args: &[&str]| -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_aeetes")).arg("wal").args(args).output().expect("run aeetes wal");
        assert!(out.status.success(), "aeetes wal {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };

    let report = inspect(&["inspect", "--wal", wal.to_str().unwrap(), "--json"]);
    assert_eq!(field_u64(&report, "base_generation"), 1, "{report}");
    assert_eq!(field_u64(&report, "last_generation"), ACKED + 1, "{report}");
    assert_eq!(field_u64(&report, "records"), ACKED, "{report}");
    assert_eq!(field_u64(&report, "torn_bytes_truncated"), 0, "{report}");

    inspect(&["compact", "--wal", wal.to_str().unwrap(), "--engine", engine.to_str().unwrap()]);
    let report = inspect(&["inspect", "--wal", wal.to_str().unwrap(), "--json"]);
    assert_eq!(field_u64(&report, "base_generation"), ACKED + 1, "compacted log must rebase: {report}");
    assert_eq!(field_u64(&report, "records"), 0, "compacted log must be empty: {report}");

    // The compacted artifact + empty log reconstruct the same state.
    let revived = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
    assert_eq!(generation_of(&revived), ACKED + 1);
    let probes = probe_requests(ACKED);
    let recovered: Vec<String> = probes.iter().map(|p| revived.round_trip(p)).collect();
    revived.shutdown();
    // Oracle rebuilds from a *pristine* artifact — recreate it.
    let fresh = engine_file("compact-oracle");
    let oracle = oracle_extractions(&fresh, ACKED, &probes);
    assert_eq!(recovered, oracle, "compacted state must extract identically to the fresh rebuild");

    let _ = std::fs::remove_file(&engine);
    let _ = std::fs::remove_file(&fresh);
    let _ = std::fs::remove_file(&wal);
}

// ---------------------------------------------------------------------
// Coordinator durability: `aeetes fleet --wal`.
// ---------------------------------------------------------------------

struct Fleet {
    child: Child,
    addr: String,
    replica_pids: Vec<u32>,
}

impl Fleet {
    /// Spawns `aeetes fleet --replicas N ...` with `envs` set (the replicas
    /// inherit them) and parses the replica banners plus the bound address
    /// from stdout.
    fn spawn(engine: &PathBuf, n: usize, extra: &[&str], envs: &[(&str, &str)]) -> Fleet {
        let mut child = Command::new(env!("CARGO_BIN_EXE_aeetes"))
            .arg("fleet")
            .arg("--engine")
            .arg(engine)
            .args(["--replicas", &n.to_string(), "--listen", "127.0.0.1:0"])
            .args(extra)
            .envs(envs.iter().copied())
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
            if let Some(rest) = line.strip_prefix("replica ") {
                let pid: u32 = rest
                    .split_whitespace()
                    .nth(2)
                    .and_then(|p| p.parse().ok())
                    .unwrap_or_else(|| panic!("bad replica banner {line:?}"));
                replica_pids.push(pid);
            }
        };
        // Keep draining stdout (respawn banners) so the pipe never fills.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(x) if x > 0) {
                sink.clear();
            }
        });
        Fleet { child, addr, replica_pids }
    }

    fn round_trip(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).expect("connect fleet");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).expect("read fleet response");
        assert!(!resp.is_empty(), "fleet closed without answering {line:?}");
        resp
    }

    /// Polls fleet stats until the fleet converges at `generation` with
    /// every replica up.
    fn wait_converged_at(&self, generation: u64, budget: Duration) {
        let deadline = Instant::now() + budget;
        loop {
            let resp = self.round_trip(r#"{"type":"stats","id":0}"#);
            let v: serde_json::Value = serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad stats {resp:?}: {e}"));
            let stats = v.get("stats").cloned().unwrap_or(serde_json::Value::Null);
            let converged = stats.get("generation").and_then(serde_json::Value::as_u64) == Some(generation)
                && stats.get("replicas").and_then(serde_json::Value::as_array).is_some_and(|rs| {
                    !rs.is_empty()
                        && rs.iter().all(|r| {
                            r.get("up").and_then(serde_json::Value::as_bool) == Some(true)
                                && r.get("generation").and_then(serde_json::Value::as_u64) == Some(generation)
                        })
                });
            if converged {
                return;
            }
            assert!(Instant::now() < deadline, "fleet never converged at generation {generation}; last stats: {resp}");
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// SIGKILL the coordinator and reap the replica children it orphans.
    fn sigkill_all(mut self) {
        self.child.kill().expect("kill fleet");
        self.child.wait().expect("reap fleet");
        for pid in &self.replica_pids {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
    }

    fn shutdown(mut self) {
        let resp = self.round_trip(r#"{"type":"shutdown","id":0}"#);
        assert!(resp.contains("\"status\":\"ok\""), "shutdown must ack: {resp}");
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "fleet exited with {status:?}");
                return;
            }
            assert!(start.elapsed() < Duration::from_secs(20), "fleet did not drain and exit in time");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// A SIGKILLed coordinator restarted on the same `--wal` restores its
/// generation math from disk and resyncs the (fresh, artifact-generation)
/// replicas it spawns — the shipped delta is served again without any
/// client re-shipping it.
#[test]
fn fleet_coordinator_restart_resyncs_replicas_from_disk() {
    let engine = engine_file("fleet-wal");
    let wal = wal_file("fleet-wal");
    let _ = std::fs::remove_file(&wal);
    let wal_arg = wal.to_str().unwrap().to_string();

    let fleet = Fleet::spawn(&engine, 1, &["--wal", &wal_arg], &[]);
    let resp = fleet.round_trip(r#"{"type":"reload","id":"d1","add_entities":["fleet recovery entity"]}"#);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    let shipped_gen = field_u64(&resp, "generation");
    let probe = r#"{"id":"p","type":"extract","doc":"met the fleet recovery entity downtown","tau":0.6}"#;
    let served = fleet.round_trip(probe);
    assert!(served.contains("fleet recovery entity"), "{served}");
    fleet.sigkill_all();

    // Same artifact, same log: the delta must come back from disk alone.
    let revived = Fleet::spawn(&engine, 1, &["--wal", &wal_arg], &[]);
    revived.wait_converged_at(shipped_gen, Duration::from_secs(20));
    let served = revived.round_trip(probe);
    assert!(served.contains("fleet recovery entity"), "restarted coordinator must resync the delta from its wal: {served}");
    revived.shutdown();

    let _ = std::fs::remove_file(&engine);
    let _ = std::fs::remove_file(&wal);
}

/// Past `--compact-threshold` the coordinator folds its delta log into a
/// fresh engine artifact and rebases the WAL: the log stays bounded, and
/// a restart on the compacted pair still serves every shipped delta.
#[test]
fn fleet_compaction_bounds_the_log_and_survives_restart() {
    let engine = engine_file("fleet-compact");
    let wal = wal_file("fleet-compact");
    let _ = std::fs::remove_file(&wal);
    let wal_arg = wal.to_str().unwrap().to_string();

    let fleet = Fleet::spawn(&engine, 1, &["--wal", &wal_arg, "--compact-threshold", "2"], &[]);
    let mut last_gen = 0;
    for i in 1..=4u64 {
        let resp = fleet.round_trip(&format!(r#"{{"type":"reload","id":"d{i}","add_entities":["bounded log entity {i}"]}}"#));
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        last_gen = field_u64(&resp, "generation");
    }
    let metrics = fleet.round_trip(r#"{"type":"metrics","id":0}"#);
    fleet.shutdown();

    // The threshold was crossed at the second and the fourth reload: the
    // log must have been rebased past generation 1 and hold fewer records
    // than deltas.
    let out = Command::new(env!("CARGO_BIN_EXE_aeetes"))
        .args(["wal", "inspect", "--wal", &wal_arg, "--json"])
        .output()
        .expect("run aeetes wal inspect");
    assert!(out.status.success(), "wal inspect failed: {}", String::from_utf8_lossy(&out.stderr));
    let report = String::from_utf8(out.stdout).expect("utf8");
    assert!(field_u64(&report, "base_generation") > 1, "compaction must rebase the log: {report}");
    assert!(field_u64(&report, "records") < 4, "compaction must bound the log: {report}");
    // The gauge reads the log as it is on disk: a compacted log still holds
    // its header.
    let metrics: serde_json::Value = serde_json::from_str(&metrics).expect("metrics answer");
    let wal_bytes = metrics
        .get("metrics")
        .and_then(serde_json::Value::as_array)
        .and_then(|families| {
            families
                .iter()
                .find(|m| m.get("name").and_then(serde_json::Value::as_str) == Some("aeetes_wal_bytes"))
        })
        .and_then(|m| m.get("value").and_then(serde_json::Value::as_u64));
    assert_eq!(wal_bytes, Some(field_u64(&report, "committed_bytes")), "aeetes_wal_bytes must be what `wal inspect` reads: {metrics}");

    // Compacted artifact + rebased log reconstruct the full fleet state.
    let revived = Fleet::spawn(&engine, 1, &["--wal", &wal_arg, "--compact-threshold", "2"], &[]);
    revived.wait_converged_at(last_gen, Duration::from_secs(20));
    for i in 1..=4u64 {
        let served = revived.round_trip(&format!(r#"{{"id":"p{i}","type":"extract","doc":"saw bounded log entity {i} again","tau":0.6}}"#));
        assert!(served.contains(&format!("bounded log entity {i}")), "delta {i} must survive compaction + restart: {served}");
    }
    revived.shutdown();

    let _ = std::fs::remove_file(&engine);
    let _ = std::fs::remove_file(&wal);
}

/// Injected-fault tests: these need the binary built with `--features
/// failpoints` so `AEETES_FAILPOINTS` is honored in the children.
#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;

    /// Process abort at the WAL fsync of the second reload — after the
    /// delta is applied and written, before the ack. The client sees a
    /// dead connection (no ack); restart recovers generation 2 (acked) or
    /// 3 (the unacked record survived whole) and matches the oracle.
    #[test]
    fn crash_at_wal_fsync_recovers_consistently() {
        let engine = engine_file("fsync-crash");
        let wal = wal_file("fsync-crash");
        let _ = std::fs::remove_file(&wal);

        let server = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[("AEETES_FAILPOINTS", "wal.append.sync=crash@2")]);
        let resp = server.round_trip(&delta_body(1));
        assert_eq!(status_of(&resp), "ok", "{resp}");

        // The second reload dies at the fsync: no response line comes back.
        {
            let mut stream = server.connect();
            stream.write_all(delta_body(2).as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut resp = String::new();
            let n = BufReader::new(stream).read_line(&mut resp).unwrap_or(0);
            assert!(n == 0 || resp.is_empty(), "crashed server must not ack: {resp:?}");
        }
        server.wait_for_crash();

        let revived = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
        let generation = generation_of(&revived);
        assert!(
            generation == 2 || generation == 3,
            "restart must hold the acked delta and at most the whole unacked one, got generation {generation}"
        );
        assert_matches_oracle(&revived, &engine, generation, 2);
        revived.shutdown();

        let _ = std::fs::remove_file(&engine);
        let _ = std::fs::remove_file(&wal);
    }

    /// EIO on the WAL append write: the reload is refused (applied but
    /// unloggable ⇒ error, not ack), further reloads are poisoned, but
    /// extraction keeps serving. A restart on the same log comes back at
    /// the last *logged* generation.
    #[test]
    fn append_error_poisons_reloads_but_extraction_survives() {
        let engine = engine_file("poison");
        let wal = wal_file("poison");
        let _ = std::fs::remove_file(&wal);

        let mut server = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[("AEETES_FAILPOINTS", "wal.append.write=error@2")]);
        let resp = server.round_trip(&delta_body(1));
        assert_eq!(status_of(&resp), "ok", "{resp}");

        let resp = server.round_trip(&delta_body(2));
        assert_eq!(status_of(&resp), "error", "unloggable delta must not be acked: {resp}");

        let resp = server.round_trip(&delta_body(3));
        assert_eq!(status_of(&resp), "error", "later reloads must be refused: {resp}");
        assert!(resp.contains("disabled"), "poisoned-log refusal should say so: {resp}");

        // The data plane is unaffected.
        let probe = server.round_trip(r#"{"id":"p","type":"extract","doc":"saw recovery entity 1 today","tau":0.6}"#);
        assert_eq!(status_of(&probe), "ok", "{probe}");
        assert!(probe.contains("recovery entity 1"), "{probe}");
        server.sigkill();

        let revived = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
        assert_eq!(generation_of(&revived), 2, "only the logged delta may survive");
        assert_matches_oracle(&revived, &engine, 2, 3);
        revived.shutdown();

        let _ = std::fs::remove_file(&engine);
        let _ = std::fs::remove_file(&wal);
    }

    /// EIO on the coordinator's log append: the fleet has activated the
    /// reload everywhere, but it is not durable, so it is an error, and the
    /// poisoned log refuses every later reload while extraction still
    /// answers. The replicas inherit the failpoint but have no `--wal`, so
    /// they never reach it. A restarted fleet converges at the last logged
    /// generation.
    #[test]
    fn fleet_append_error_poisons_reloads_but_extraction_survives() {
        let engine = engine_file("fleet-poison");
        let wal = wal_file("fleet-poison");
        let _ = std::fs::remove_file(&wal);
        let wal_arg = wal.to_str().unwrap().to_string();

        let fleet = Fleet::spawn(&engine, 1, &["--wal", &wal_arg], &[("AEETES_FAILPOINTS", "wal.append.write=error@2")]);
        let reload = |i: u64| fleet.round_trip(&format!(r#"{{"type":"reload","id":"d{i}","add_entities":["fleet poison entity {i}"]}}"#));
        let resp = reload(1);
        assert_eq!(status_of(&resp), "ok", "{resp}");
        let logged = field_u64(&resp, "generation");

        let resp = reload(2);
        assert_eq!(status_of(&resp), "error", "an unlogged reload must not be acked: {resp}");
        assert!(resp.contains("not durable"), "the refusal must say why: {resp}");

        let resp = reload(3);
        assert_eq!(status_of(&resp), "error", "later reloads must be refused: {resp}");
        assert!(resp.contains("disabled"), "poisoned-log refusal should say so: {resp}");

        let probe = fleet.round_trip(r#"{"id":"p","type":"extract","doc":"saw fleet poison entity 1 today","tau":0.6}"#);
        assert_eq!(status_of(&probe), "ok", "{probe}");
        assert!(probe.contains("fleet poison entity 1"), "{probe}");
        fleet.sigkill_all();

        let revived = Fleet::spawn(&engine, 1, &["--wal", &wal_arg], &[]);
        revived.wait_converged_at(logged, Duration::from_secs(20));
        revived.shutdown();

        let _ = std::fs::remove_file(&engine);
        let _ = std::fs::remove_file(&wal);
    }

    /// Crash points inside `aeetes wal compact`: before the artifact
    /// rename (nothing changed), and between the artifact rename and the
    /// log reset (artifact new, log old — recovery must skip the already
    /// folded records). Both leave a state a restart fully recovers.
    #[test]
    fn compaction_crash_at_each_rename_is_recoverable() {
        let engine = engine_file("compact-crash");
        let wal = wal_file("compact-crash");
        let _ = std::fs::remove_file(&wal);

        let server = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
        const ACKED: u64 = 3;
        for i in 1..=ACKED {
            let resp = server.round_trip(&delta_body(i));
            assert_eq!(status_of(&resp), "ok", "{resp}");
        }
        server.shutdown();
        let engine_before = std::fs::read(&engine).expect("read engine");
        let wal_before = std::fs::read(&wal).expect("read wal");

        let compact_with = |failpoints: &str| -> std::process::Output {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_aeetes"));
            cmd.args(["wal", "compact", "--wal", wal.to_str().unwrap(), "--engine", engine.to_str().unwrap()]);
            if !failpoints.is_empty() {
                cmd.env("AEETES_FAILPOINTS", failpoints);
            }
            cmd.output().expect("run aeetes wal compact")
        };

        // Crash before the first rename: the compaction evaporates.
        let out = compact_with("durable.rename.before=crash");
        assert!(!out.status.success(), "injected crash must kill the compactor");
        assert_eq!(std::fs::read(&engine).expect("engine"), engine_before, "crashed compaction must not touch the artifact");
        assert_eq!(std::fs::read(&wal).expect("wal"), wal_before, "crashed compaction must not touch the log");

        // Crash between the renames: new artifact, old log. Recovery skips
        // the records the artifact already embeds.
        let out = compact_with("durable.rename.before=crash@2");
        assert!(!out.status.success(), "injected crash must kill the compactor");
        assert_ne!(std::fs::read(&engine).expect("engine"), engine_before, "the artifact rename happened before the crash");
        assert_eq!(std::fs::read(&wal).expect("wal"), wal_before, "the log reset must not have happened yet");

        let revived = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
        assert_eq!(generation_of(&revived), ACKED + 1, "already-folded records must be skipped, not reapplied");
        let probes = probe_requests(ACKED);
        let recovered: Vec<String> = probes.iter().map(|p| revived.round_trip(p)).collect();
        revived.shutdown();
        let fresh = engine_file("compact-crash-oracle");
        let oracle = oracle_extractions(&fresh, ACKED, &probes);
        assert_eq!(recovered, oracle, "half-compacted state must extract identically to the fresh rebuild");

        // A clean compaction finishes the job.
        let out = compact_with("");
        assert!(out.status.success(), "clean compaction failed: {}", String::from_utf8_lossy(&out.stderr));
        let revived = Server::spawn(&engine, &["--wal", wal.to_str().unwrap()], &[]);
        assert_eq!(generation_of(&revived), ACKED + 1);
        revived.shutdown();

        let _ = std::fs::remove_file(&engine);
        let _ = std::fs::remove_file(&fresh);
        let _ = std::fs::remove_file(&wal);
    }
}
