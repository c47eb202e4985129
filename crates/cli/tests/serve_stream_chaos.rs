//! Chaos harness for `aeetes serve` stream mode: spawns the real binary
//! and drives the open/feed/flush/close verbs through every failure path
//! the protocol promises to survive — abrupt client disconnects
//! mid-stream, graceful drain with streams still open — asserting the
//! exactly-once contract throughout: every opened stream is answered with
//! exactly one `closed` event, and the server's open-stream and
//! carried-byte accounting returns to zero. What needs no process is
//! checked in-process by `aeetes_cli::session`'s tests: a stream's round
//! trip (`stream_round_trip_equals_whole_document_and_closes_once`) and
//! admission-slot exhaustion
//! (`stream_admission_counts_against_queue_capacity`).

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
    for (lhs, rhs) in [("uq", "university of queensland"), ("usa", "united states"), ("au", "australia")] {
        rules.push_str(lhs, rhs, &tokenizer, &mut interner).unwrap();
    }
    let bytes = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 1).freeze();
    let path = std::env::temp_dir().join(format!("aeetes-stream-chaos-{}-{tag}.bin", std::process::id()));
    std::fs::write(&path, bytes).expect("write engine file");
    path
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `aeetes serve --listen 127.0.0.1:0 ...` and parses the bound
    /// address from its first stdout line.
    fn spawn(engine: &PathBuf, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_aeetes"))
            .arg("serve")
            .arg("--engine")
            .arg(engine)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server");
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

    /// Waits (bounded) until the child exits, asserting success.
    fn wait_for_clean_exit(mut self, budget: Duration) {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "server exited with {status:?}");
                return;
            }
            if start.elapsed() > budget {
                let _ = self.child.kill();
                panic!("server did not drain and exit within {budget:?}");
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// One request line over an existing connection, one response line back.
fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    assert!(!resp.is_empty(), "server closed without answering {line:?}");
    resp
}

fn parse(json: &str) -> serde_json::Value {
    serde_json::from_str(json).unwrap_or_else(|e| panic!("bad JSON response {json:?}: {e}"))
}

fn field_str<'v>(v: &'v serde_json::Value, key: &str) -> &'v str {
    v.get(key).and_then(serde_json::Value::as_str).unwrap_or_else(|| panic!("no string `{key}` in {v}"))
}

/// Finds a numeric field anywhere in the response (stats live nested
/// under a `"stats"` object).
fn field_i64(v: &serde_json::Value, key: &str) -> i64 {
    fn find(v: &serde_json::Value, key: &str) -> Option<f64> {
        if let Some(n) = v.get(key).and_then(serde_json::Value::as_f64) {
            return Some(n);
        }
        v.as_object()?.iter().find_map(|(_, child)| find(child, key))
    }
    find(v, key).unwrap_or_else(|| panic!("no number `{key}` in {v}")) as i64
}

/// Collects the `entity_text` of every match in an event's `matches` array.
fn entity_texts(v: &serde_json::Value) -> Vec<String> {
    v.get("matches")
        .and_then(serde_json::Value::as_array)
        .unwrap_or_else(|| panic!("no matches array in {v}"))
        .iter()
        .map(|m| field_str(m, "entity_text").to_string())
        .collect()
}

/// Reads the value of one counter family out of the inline
/// `{"type":"metrics"}` response (the JSON metric export embedded under
/// `"metrics"` as an array of `{name, value, ...}` rows).
fn metric_value(server: &Server, family: &str) -> u64 {
    let resp = server.round_trip(r#"{"type":"metrics"}"#);
    let v = parse(&resp);
    v.get("metrics")
        .and_then(serde_json::Value::as_array)
        .unwrap_or_else(|| panic!("no metrics array in {resp}"))
        .iter()
        .find(|m| m.get("name").and_then(serde_json::Value::as_str) == Some(family))
        .and_then(|m| m.get("value").and_then(serde_json::Value::as_u64))
        .unwrap_or_else(|| panic!("no `{family}` sample in {resp}"))
}

/// Polls stats until both stream gauges return to zero (accounting from a
/// disconnect settles asynchronously with the reader thread's teardown).
fn wait_for_zero_streams(server: &Server) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = parse(&server.round_trip(r#"{"type":"stats"}"#));
        if field_i64(&stats, "streams_open") == 0 && field_i64(&stats, "stream_carried_bytes") == 0 {
            return stats;
        }
        assert!(Instant::now() < deadline, "stream gauges never returned to zero: {stats}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Abrupt client disconnects mid-stream: every stream opened by the dead
/// connections must be closed server-side exactly once, releasing its
/// admission slot and carried-byte accounting, while streams on surviving
/// connections keep working.
#[test]
fn disconnect_mid_stream_releases_every_slot_exactly_once() {
    let engine = engine_file("disconnect");
    let server = Server::spawn(&engine, &["--workers", "2", "--queue", "64", "--drain", "10"]);

    // Three connections, two streams each, all fed a dangling partial
    // entity so real bytes are carried when the connection dies.
    let conns = 3usize;
    let per_conn = 2usize;
    for c in 0..conns {
        let mut conn = server.connect();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for s in 0..per_conn {
            let opened = parse(&send(&mut conn, &mut reader, &format!(r#"{{"id":1,"type":"stream","stream":{s},"verb":"open","tau":0.8}}"#)));
            assert_eq!(field_str(&opened, "event"), "opened", "conn {c} stream {s}");
            let resp = parse(&send(
                &mut conn,
                &mut reader,
                &format!(r#"{{"id":2,"type":"stream","stream":{s},"verb":"feed","text":"visit purdue university"}}"#),
            ));
            assert_eq!(field_str(&resp, "event"), "matches");
            assert!(field_i64(&resp, "carried_tokens") > 0, "the partial entity must be carried: {resp}");
        }
        drop(conn); // hang up with both streams open
    }

    // Accounting must settle back to zero, with opened == closed == 6:
    // one server-side close per opened stream, none dropped or doubled.
    let stats = wait_for_zero_streams(&server);
    assert_eq!(field_i64(&stats, "queue_depth"), 0, "disconnect must release admission slots: {stats}");
    let opened = metric_value(&server, "aeetes_streams_opened_total");
    let closed = metric_value(&server, "aeetes_streams_closed_total");
    assert_eq!(opened, (conns * per_conn) as u64, "opened counter");
    assert_eq!(closed, opened, "every opened stream must be closed exactly once");

    // The server is unharmed: a fresh stream still works end to end.
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    send(&mut conn, &mut reader, r#"{"id":1,"type":"stream","stream":0,"verb":"open","tau":0.8}"#);
    send(&mut conn, &mut reader, r#"{"id":2,"type":"stream","stream":0,"verb":"feed","text":"uq au it is"}"#);
    let closed = parse(&send(&mut conn, &mut reader, r#"{"id":3,"type":"stream","stream":0,"verb":"close"}"#));
    assert_eq!(field_str(&closed, "event"), "closed");
    assert_eq!(entity_texts(&closed), vec!["UQ AU".to_string()], "{closed}");

    let bye = server.round_trip(r#"{"type":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    server.wait_for_clean_exit(Duration::from_secs(30));
    let _ = std::fs::remove_file(&engine);
}

/// Graceful drain with streams still open: the client holds two open
/// streams (one with a pending tail match) and never closes them; a
/// shutdown from another connection must flush and close each exactly
/// once with reason `drain`, then the server exits cleanly.
#[test]
fn drain_flushes_and_closes_open_streams_exactly_once() {
    let engine = engine_file("drain");
    let server = Server::spawn(&engine, &["--workers", "2", "--drain", "15"]);

    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for s in 0..2 {
        let opened = parse(&send(&mut conn, &mut reader, &format!(r#"{{"id":1,"type":"stream","stream":{s},"verb":"open","tau":0.8}}"#)));
        assert_eq!(field_str(&opened, "event"), "opened");
    }
    // Stream 0 ends on a complete match still inside the retention window:
    // only the drain-time flush can emit it.
    let resp = parse(&send(&mut conn, &mut reader, r#"{"id":2,"type":"stream","stream":0,"verb":"feed","text":"meet at uq au"}"#));
    assert_eq!(field_str(&resp, "event"), "matches");

    // Drain from a second connection while both streams are open. The
    // drain must not deadlock on the held admission slots: the reader
    // notices the drain, drops the connection state, and that closes the
    // streams, releasing the slots the drain is waiting for.
    let bye = server.round_trip(r#"{"type":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");

    // The held connection now receives exactly one closed event per open
    // stream (reason drain, tail matches included), then EOF.
    let mut closed_streams = Vec::new();
    let mut drain_matches = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF: the server hung up after closing everything
        }
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(&line);
        assert_eq!(field_str(&v, "event"), "closed", "only closed events may follow a drain: {line}");
        assert_eq!(field_str(&v, "reason"), "drain", "{line}");
        closed_streams.push(field_i64(&v, "stream"));
        drain_matches.extend(entity_texts(&v));
    }
    closed_streams.sort_unstable();
    assert_eq!(closed_streams, vec![0, 1], "each open stream must get exactly one closed event");
    assert_eq!(drain_matches, vec!["UQ AU".to_string()], "the pending tail must flush during drain");

    server.wait_for_clean_exit(Duration::from_secs(30));
    let _ = std::fs::remove_file(&engine);
}
