//! Chaos harness for `aeetes serve`: spawns the real binary and fires
//! malformed JSON, truncated lines, oversized documents, pathological τ
//! values, and concurrent connections at it, then checks the server (a)
//! never crashed, (b) still answers well-formed requests correctly, and
//! (c) reports counters that reconcile exactly with what the harness sent.
//!
//! Also exercises overload: with a saturated one-worker/one-slot queue the
//! server must shed promptly with `{"status":"shedding"}`, and a graceful
//! drain must answer every outstanding request before exit.
//!
//! Only what takes a process is here: sockets, threads, timing, the exit.
//! What a request answers is checked in-process against a `Session`
//! (`aeetes_cli::session`'s tests: the recorded wire transcript, the
//! stats quantiles, prepare/activate, stream admission).

use std::io::{BufRead, BufReader, Read, Write};
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
    for entity in ["Purdue University USA", "UQ AU", "University of Wisconsin Madison", "Acme Corporation Inc"] {
        dict.push(entity, &tokenizer, &mut interner);
    }
    let mut rules = RuleSet::new();
    for (lhs, rhs) in [("uq", "university of queensland"), ("usa", "united states"), ("au", "australia")] {
        rules.push_str(lhs, rhs, &tokenizer, &mut interner).unwrap();
    }
    let bytes = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 1).freeze();
    let path = std::env::temp_dir().join(format!("aeetes-serve-chaos-{}-{tag}.bin", std::process::id()));
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

    /// Like [`Server::spawn`] but with `--metrics-listen 127.0.0.1:0`; the
    /// server prints a second banner line with the bound metrics address,
    /// returned alongside the server handle.
    fn spawn_with_metrics(engine: &PathBuf, extra: &[&str]) -> (Server, String) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_aeetes"))
            .arg("serve")
            .arg("--engine")
            .arg(engine)
            .args(["--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server");
        let mut reader = BufReader::new(child.stdout.take().expect("server stdout"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        let mut mline = String::new();
        reader.read_line(&mut mline).expect("read metrics listen line");
        let maddr = mline
            .trim()
            .strip_prefix("metrics listening on ")
            .unwrap_or_else(|| panic!("unexpected metrics banner {mline:?}"))
            .to_string();
        (Server { child, addr }, maddr)
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

/// One HTTP/1.0 GET against the metrics endpoint; returns the status line
/// and the body.
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).expect("read http response");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    (head.lines().next().unwrap_or_default().to_string(), body.to_string())
}

fn field_u64(json: &str, key: &str) -> u64 {
    let v = serde_json::from_str(json).unwrap_or_else(|e| panic!("bad JSON response {json:?}: {e}"));
    fn find(v: &serde_json::Value, key: &str) -> Option<u64> {
        if let Some(n) = v.get(key).and_then(serde_json::Value::as_u64) {
            return Some(n);
        }
        v.as_object()?.iter().find_map(|(_, child)| find(child, key))
    }
    find(&v, key).unwrap_or_else(|| panic!("no `{key}` in {json}"))
}

fn status_of(json: &str) -> String {
    let v = serde_json::from_str(json).unwrap_or_else(|e| panic!("bad JSON response {json:?}: {e}"));
    v.get("status")
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("no status in {json}"))
        .to_string()
}

/// The main chaos storm + soak: every abuse vector at once, then exact
/// counter reconciliation and a correctness probe.
#[test]
fn chaos_storm_survives_and_counters_reconcile() {
    let engine = engine_file("storm");
    let server = Server::spawn(&engine, &["--workers", "2", "--queue", "64", "--max-doc-bytes", "4096", "--drain", "10"]);

    // Every line below that is not blank and not a control request must be
    // answered as exactly one of served/shed/failed.
    let mut countable_sent = 0u64;

    // Phase 1: malformed JSON, wrong shapes, pathological τ, oversized doc.
    let big_doc = "pad ".repeat(2000); // 8000 B > 4096 B ceiling
    let abuse: Vec<String> = vec![
        "not json at all".into(),
        "{\"type\":".into(),
        "{}".into(),
        "[1,2,3]".into(),
        "\"bare string\"".into(),
        "{\"type\":\"explode\"}".into(),
        "{\"type\":\"extract\"}".into(),
        "{\"type\":\"extract\",\"doc\":42}".into(),
        "{\"type\":\"extract\",\"doc\":\"x\",\"tau\":0}".into(),
        "{\"type\":\"extract\",\"doc\":\"x\",\"tau\":-3}".into(),
        "{\"type\":\"extract\",\"doc\":\"x\",\"tau\":17.5}".into(),
        "{\"type\":\"extract\",\"doc\":\"x\",\"tau\":\"NaN\"}".into(),
        "{\"type\":\"extract\",\"doc\":\"x\",\"timeout_ms\":-5}".into(),
        format!("{{\"type\":\"extract\",\"doc\":\"{big_doc}\"}}"),
        "\u{0007}\u{0001}binary soup \\xff".into(),
    ];
    {
        let mut stream = server.connect();
        for line in &abuse {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            countable_sent += 1;
        }
        stream.write_all(b"\n\n").unwrap(); // blank lines: ignored, not counted
        let mut reader = BufReader::new(stream);
        for line in &abuse {
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            let status = status_of(&resp);
            assert!(status == "error" || status == "shedding", "abuse line {line:?} got {resp:?}");
        }
    }

    // Phase 2: a truncated line — partial JSON, no newline, then hang up.
    {
        let mut stream = server.connect();
        stream.write_all(b"{\"type\":\"extract\",\"doc\":\"cut off mid").unwrap();
        drop(stream);
        countable_sent += 1; // the fragment is processed as a (bad) request
    }

    // Phase 3: an oversized *line* (beyond doc ceiling × 2 + 1 KiB).
    {
        let mut stream = server.connect();
        let huge = vec![b'z'; 64 * 1024];
        stream.write_all(&huge).unwrap();
        stream.write_all(b"\n").unwrap();
        countable_sent += 1;
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).unwrap();
        assert_eq!(status_of(&resp), "error");
        assert!(resp.contains("too_large"), "{resp}");
    }

    // Phase 4: concurrent well-formed connections (the soak).
    let per_conn = 25u64;
    let conns = 8u64;
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let mut stream = server.connect();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                for i in 0..per_conn {
                    let line =
                        format!("{{\"id\":\"c{c}-{i}\",\"type\":\"extract\",\"doc\":\"visit purdue university usa and uq au today\",\"tau\":0.8}}\n");
                    stream.write_all(line.as_bytes()).unwrap();
                }
                let mut reader = BufReader::new(stream);
                for _ in 0..per_conn {
                    let mut resp = String::new();
                    reader.read_line(&mut resp).unwrap();
                    let status = status_of(&resp);
                    assert!(status == "ok" || status == "shedding", "unexpected response {resp:?}");
                    if status == "ok" {
                        // Both entities must be found in the fixed document.
                        assert!(resp.contains("Purdue University USA"), "{resp}");
                        assert!(resp.contains("UQ AU"), "{resp}");
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    let ok_served: u64 = workers.into_iter().map(|h| h.join().expect("conn thread")).sum();
    countable_sent += conns * per_conn;
    assert!(ok_served > 0, "soak must see at least one successful extraction");

    // Phase 5: after all that abuse the server still answers correctly.
    let resp = server.round_trip(r#"{"id":"probe","type":"extract","doc":"uq au rocks","tau":0.9}"#);
    assert_eq!(status_of(&resp), "ok");
    assert!(resp.contains("\"entity_text\":\"UQ AU\""), "{resp}");
    countable_sent += 1;

    // Reconciliation: poll stats until the counters absorb the truncated-
    // line request (its connection closed before the response was written).
    let deadline = Instant::now() + Duration::from_secs(10);
    let last = loop {
        let snapshot = server.round_trip(r#"{"type":"stats"}"#);
        let total = field_u64(&snapshot, "served") + field_u64(&snapshot, "shed") + field_u64(&snapshot, "failed");
        if total == countable_sent {
            break snapshot;
        }
        assert!(Instant::now() < deadline, "counters never reconciled: sent {countable_sent}, stats {snapshot}");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(field_u64(&last, "served"), ok_served + 1, "served = soak successes + the probe; stats {last}");
    assert_eq!(field_u64(&last, "queue_depth"), 0, "{last}");
    assert_eq!(field_u64(&last, "in_flight"), 0, "{last}");

    // Health then graceful shutdown.
    let health = server.round_trip(r#"{"type":"health"}"#);
    assert_eq!(status_of(&health), "ok");
    let bye = server.round_trip(r#"{"type":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    server.wait_for_clean_exit(Duration::from_secs(30));
    let _ = std::fs::remove_file(&engine);
}

/// Overload: one worker, one queue slot, a slow document. Excess requests
/// must shed promptly, and a graceful drain must answer everything that was
/// admitted (every request gets exactly one response) before exit.
#[test]
fn overload_sheds_promptly_and_drain_answers_everything() {
    let engine = engine_file("overload");
    let server = Server::spawn(&engine, &["--workers", "1", "--queue", "1", "--drain", "15"]);

    // ~4400 tokens of dictionary-dense text: slow enough (low τ, dense
    // matches) to pin the single worker while the harness floods the queue.
    let slow_doc = "purdue university usa uq au ".repeat(880);
    let burst = 20usize;
    let mut stream = server.connect();
    let send_started = Instant::now();
    for i in 0..burst {
        let line = format!("{{\"id\":{i},\"type\":\"extract\",\"doc\":\"{slow_doc}\",\"tau\":0.45}}\n");
        stream.write_all(line.as_bytes()).unwrap();
    }
    let sent_in = send_started.elapsed();

    // Shedding responses must come back promptly — while the worker is
    // still grinding through the first document, not after the backlog.
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut first_shed = None;
    let mut statuses = Vec::new();
    for _ in 0..burst {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response during overload");
        let status = status_of(&resp);
        if status == "shedding" && first_shed.is_none() {
            first_shed = Some(send_started.elapsed());
        }
        statuses.push(status);
        if statuses.len() >= burst - 2 {
            break; // leave a couple in flight for the drain to finish
        }
    }
    let first_shed = first_shed.expect("a 20-request burst against queue=1/workers=1 must shed");
    assert!(
        first_shed < Duration::from_secs(5),
        "shedding must be prompt (admission-time), got {first_shed:?} (burst sent in {sent_in:?})"
    );

    // Graceful drain: whatever was admitted must still be answered.
    let bye = server.round_trip(r#"{"type":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain responses");
    let total_responses = statuses.len() + rest.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(total_responses, burst, "every admitted request must be answered exactly once across the drain");
    for line in rest.lines().filter(|l| !l.trim().is_empty()) {
        let status = status_of(line);
        assert!(status == "ok" || status == "shedding", "drain answered with {line:?}");
    }
    drop(stream);
    server.wait_for_clean_exit(Duration::from_secs(30));
    let _ = std::fs::remove_file(&engine);
}

/// Hot reload under load: several connections flood extracts while a
/// dictionary delta (add an entity + a rule, tombstone another) lands
/// mid-flood. Every flooded request must be answered exactly once — the
/// generation swap may not drop, duplicate, or fail any of them — and each
/// response must come from a consistent generation: entities present in
/// both generations always match, and the delta becomes fully visible once
/// the reload response returns.
#[test]
fn reload_under_load_answers_every_request_once() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let engine = engine_file("reload");
    let server = Server::spawn(&engine, &["--workers", "4", "--queue", "256", "--drain", "15"]);

    // Generation 1 sanity: the entity and rule arriving via reload are
    // unknown, the one being tombstoned still matches.
    let mut probes = 0u64;
    let pre = server.round_trip(r#"{"type":"extract","doc":"eth zurich","tau":0.8}"#);
    probes += 1;
    assert_eq!(status_of(&pre), "ok");
    assert!(!pre.contains("ETH Zurich"), "{pre}");
    let pre = server.round_trip(r#"{"type":"extract","doc":"acme corporation inc","tau":0.8}"#);
    probes += 1;
    assert!(pre.contains("Acme Corporation Inc"), "{pre}");

    // Flooders: round-trip extracts until told to stop. The document is
    // dictionary-dense so requests are slow enough that the reload lands
    // while plenty are in flight.
    let stop = Arc::new(AtomicBool::new(false));
    let doc = "purdue university usa uq au eth zurich ".repeat(40);
    let flooders: Vec<_> = (0..4u64)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let mut stream = server.connect();
            let doc = doc.clone();
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut sent = 0u64;
                let mut responses = Vec::new();
                while !stop.load(Ordering::Relaxed) || sent == 0 {
                    let line = format!("{{\"id\":\"c{c}-{sent}\",\"type\":\"extract\",\"doc\":\"{doc}\",\"tau\":0.6}}\n");
                    stream.write_all(line.as_bytes()).unwrap();
                    sent += 1;
                    let mut resp = String::new();
                    reader.read_line(&mut resp).expect("flood response");
                    assert!(!resp.is_empty(), "server hung up mid-flood");
                    responses.push(resp);
                }
                (sent, responses)
            })
        })
        .collect();

    // Let the flood build up, then swap generations underneath it.
    std::thread::sleep(Duration::from_millis(300));
    let reload = server.round_trip(concat!(
        r#"{"id":"swap","type":"reload","add_entities":["ETH Zurich"],"remove_entities":[3],"#,
        r#""add_rules":[{"lhs":"eth","rhs":"eidgenossische technische hochschule"}]}"#
    ));
    assert_eq!(status_of(&reload), "ok", "{reload}");
    assert_eq!(field_u64(&reload, "generation"), 2, "{reload}");

    // Keep the flood running briefly across the swap, then stop it.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);

    let mut flood_sent = 0u64;
    for h in flooders {
        let (sent, responses) = h.join().expect("flooder thread");
        assert_eq!(responses.len() as u64, sent, "every flooded request must be answered exactly once");
        flood_sent += sent;
        for resp in &responses {
            let status = status_of(resp);
            assert!(status == "ok" || status == "shedding", "flood answered with {resp:?}");
            if status == "ok" {
                // Present in both generations: must match no matter which
                // side of the swap served the request.
                assert!(resp.contains("Purdue University USA"), "{resp}");
                assert!(resp.contains("UQ AU"), "{resp}");
            }
        }
    }

    // Generation 2 is fully visible: the new entity matches directly and
    // through its new rule, the tombstoned one is gone.
    let post = server.round_trip(&format!("{{\"type\":\"extract\",\"doc\":\"{doc}\",\"tau\":0.6}}"));
    probes += 1;
    assert_eq!(status_of(&post), "ok");
    assert!(post.contains("ETH Zurich"), "{post}");
    let post = server.round_trip(r#"{"type":"extract","doc":"eidgenossische technische hochschule zurich","tau":0.9}"#);
    probes += 1;
    assert!(post.contains("ETH Zurich"), "new rule must derive post-reload: {post}");
    let post = server.round_trip(r#"{"type":"extract","doc":"acme corporation inc","tau":0.8}"#);
    probes += 1;
    assert!(!post.contains("Acme Corporation Inc"), "tombstoned entity must not match: {post}");

    // Counters reconcile across the swap: nothing dropped, nothing failed,
    // and stats report the new generation.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let snapshot = server.round_trip(r#"{"type":"stats"}"#);
        let total = field_u64(&snapshot, "served") + field_u64(&snapshot, "shed") + field_u64(&snapshot, "failed");
        if total == flood_sent + probes {
            break snapshot;
        }
        assert!(Instant::now() < deadline, "counters never reconciled: sent {}, stats {snapshot}", flood_sent + probes);
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(field_u64(&stats, "failed"), 0, "{stats}");
    assert_eq!(field_u64(&stats, "generation"), 2, "{stats}");
    assert!(!stats.contains("\"shards\""), "a generation has no per-shard rows: {stats}");

    let bye = server.round_trip(r#"{"type":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    server.wait_for_clean_exit(Duration::from_secs(30));
    let _ = std::fs::remove_file(&engine);
}

/// A lockstep client on one connection pays no delayed-ACK stall per reply:
/// the server writes each response line and its newline as one segment,
/// with Nagle off. Written as two writes the newline waits for the client's
/// delayed ACK of the line — ~40 ms on every round trip over loopback.
#[test]
fn lockstep_round_trips_are_not_stalled_by_delayed_acks() {
    let engine = engine_file("lockstep");
    let server = Server::spawn(&engine, &["--workers", "1"]);
    let mut writer = server.connect();
    writer.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));

    let mut round_trips: Vec<Duration> = (0..20)
        .map(|i| {
            // One write per request, so the client side cannot stall either.
            let request = format!("{{\"id\":{i},\"type\":\"extract\",\"doc\":\"purdue university united states\",\"tau\":0.8}}\n");
            let sent = Instant::now();
            writer.write_all(request.as_bytes()).unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read response");
            let took = sent.elapsed();
            assert_eq!(status_of(&resp), "ok", "{resp}");
            took
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(20), "median lockstep round trip {median:?} (all: {round_trips:?})");

    let bye = server.round_trip(r#"{"type":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    server.wait_for_clean_exit(Duration::from_secs(30));
    let _ = std::fs::remove_file(&engine);
}

/// The observability surface end to end: the Prometheus scrape exposes the
/// full family catalog, counters advance in lock-step with served traffic,
/// the JSON flavor parses, unknown paths 404, and the inline
/// `{"type":"metrics"}` protocol request mirrors the scrape.
#[test]
fn metrics_endpoints_expose_families_and_track_requests() {
    let engine = engine_file("metrics");
    let (server, maddr) = Server::spawn_with_metrics(&engine, &["--workers", "1"]);

    // Cold scrape: the whole catalog is pre-registered, not lazily created
    // on first use, so dashboards see every family from second zero.
    let (status, body) = http_get(&maddr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let families = body.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(families >= 12, "expected >= 12 metric families, got {families}:\n{body}");
    assert!(body.contains("aeetes_requests_total{outcome=\"served\"} 0"), "{body}");

    // One served extract advances the pipeline counters. Metrics are
    // recorded before the response line is written, so the next scrape
    // must already see them.
    let resp = server.round_trip(r#"{"id":1,"type":"extract","doc":"visit purdue university usa today","tau":0.8}"#);
    assert_eq!(status_of(&resp), "ok");
    assert!(resp.contains("Purdue University USA"), "{resp}");
    let (_, body) = http_get(&maddr, "/metrics");
    assert!(body.contains("aeetes_docs_total 1"), "{body}");
    assert!(body.contains("aeetes_requests_total{outcome=\"served\"} 1"), "{body}");
    assert!(body.contains("aeetes_matches_total 1"), "{body}");
    assert!(body.contains("aeetes_request_duration_seconds_count 1"), "{body}");
    assert!(!body.contains("aeetes_shard_") && !body.contains("aeetes_pool_route_"), "retired families are gone: {body}");

    // JSON flavor: parses, same counter values.
    let (status, body) = http_get(&maddr, "/metrics.json");
    assert!(status.contains("200"), "{status}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap_or_else(|e| panic!("bad /metrics.json body: {e}\n{body}"));
    let docs_total = v
        .as_array()
        .expect("json export is an array")
        .iter()
        .find(|m| m.get("name").and_then(serde_json::Value::as_str) == Some("aeetes_docs_total"))
        .unwrap_or_else(|| panic!("no aeetes_docs_total in {body}"));
    assert_eq!(docs_total.get("value").and_then(serde_json::Value::as_u64), Some(1), "{body}");

    // Unknown paths are 404s, not scrapes.
    let (status, _) = http_get(&maddr, "/other");
    assert!(status.contains("404"), "{status}");

    // The inline protocol request embeds the same snapshot.
    let resp = server.round_trip(r#"{"id":7,"type":"metrics"}"#);
    assert_eq!(status_of(&resp), "ok");
    assert!(resp.contains("aeetes_docs_total"), "{resp}");
    assert!(resp.contains("aeetes_stage_duration_seconds"), "{resp}");

    let bye = server.round_trip(r#"{"type":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    server.wait_for_clean_exit(Duration::from_secs(30));
    let _ = std::fs::remove_file(&engine);
}

/// The stdin/stdout transport: requests piped in, EOF triggers the drain,
/// process exits cleanly with all responses written.
#[test]
fn stdin_mode_serves_and_drains_on_eof() {
    let engine = engine_file("stdin");
    let mut child = Command::new(env!("CARGO_BIN_EXE_aeetes"))
        .arg("serve")
        .arg("--engine")
        .arg(&engine)
        .args(["--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server");
    {
        let mut stdin = child.stdin.take().expect("stdin");
        stdin
            .write_all(
                b"{\"id\":1,\"type\":\"extract\",\"doc\":\"acme corporation inc filed papers\"}\n\
                  garbage line\n\
                  {\"id\":2,\"type\":\"health\"}\n",
            )
            .unwrap();
        // Dropping stdin sends EOF: the server must drain and exit.
    }
    let start = Instant::now();
    let out = child.wait_with_output().expect("server output");
    assert!(out.status.success(), "stdin-mode server exited with {:?}", out.status);
    assert!(start.elapsed() < Duration::from_secs(30), "drain-on-EOF took too long");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 3, "one response per request: {stdout}");
    assert!(stdout.contains("Acme Corporation Inc") || stdout.contains("acme corporation inc"), "{stdout}");
    assert!(stdout.contains("bad_request"), "{stdout}");
    assert!(stdout.contains("\"health\":\"ok\""), "{stdout}");
    let _ = std::fs::remove_file(&engine);
}

/// A connection that sends nothing is closed once the idle timeout
/// elapses; a connection that keeps talking is not. A partial line does
/// not count as activity (slowloris does not hold a slot open).
#[test]
fn idle_connections_are_closed_and_active_ones_are_not() {
    let engine = engine_file("idle");
    let server = Server::spawn(&engine, &["--idle-timeout", "1"]);

    // Idle: the server must close within the timeout plus slack.
    let idle = server.connect();
    let start = Instant::now();
    let mut buf = String::new();
    let n = BufReader::new(idle).read_line(&mut buf).expect("read on idle conn");
    assert_eq!(n, 0, "idle connection must see EOF, got {buf:?}");
    let waited = start.elapsed();
    assert!(waited >= Duration::from_millis(900), "closed too early: {waited:?}");
    assert!(waited < Duration::from_secs(10), "closed too late: {waited:?}");

    // Slowloris: a byte trickle that never completes a line must not
    // reset the idle clock.
    let mut slow = server.connect();
    let start = Instant::now();
    let mut reader = BufReader::new(slow.try_clone().unwrap());
    let closed = loop {
        if slow.write_all(b"x").is_err() {
            break true; // write failed: server already closed
        }
        let mut buf = String::new();
        match reader.read_line(&mut buf) {
            Ok(0) => break true,
            Ok(_) => break false, // a response to an incomplete line?!
            Err(_) => {}
        }
        if start.elapsed() > Duration::from_secs(10) {
            break false;
        }
        std::thread::sleep(Duration::from_millis(200));
    };
    assert!(closed, "a never-completing line must not hold the connection open");

    // Active: requests spaced under the timeout keep the connection alive
    // well past several idle windows.
    let mut active = server.connect();
    let mut reader = BufReader::new(active.try_clone().unwrap());
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(400));
        active.write_all(b"{\"type\":\"health\",\"id\":1}\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read on active conn");
        assert!(resp.contains("\"health\":\"ok\""), "active connection died: {resp:?}");
    }

    server.round_trip(r#"{"type":"shutdown"}"#);
    server.wait_for_clean_exit(Duration::from_secs(20));
    let _ = std::fs::remove_file(&engine);
}

/// Past --max-conns, new connections get one shedding error line and are
/// closed; slots freed by disconnects become usable again.
#[test]
fn connection_cap_sheds_and_recovers() {
    let engine = engine_file("conncap");
    let server = Server::spawn(&engine, &["--max-conns", "2"]);

    let held: Vec<TcpStream> = (0..2).map(|_| server.connect()).collect();
    // Give the acceptor a moment to register both holds.
    std::thread::sleep(Duration::from_millis(200));

    // The third connection is rejected with a parseable shedding line.
    let over = server.connect();
    let mut resp = String::new();
    BufReader::new(over).read_line(&mut resp).expect("read rejection");
    assert!(resp.contains("\"shedding\""), "over-cap connection must be shed: {resp:?}");
    assert!(resp.contains("connection limit"), "{resp:?}");

    // Freeing a slot readmits new connections.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut conn = server.connect();
        conn.write_all(b"{\"type\":\"health\",\"id\":1}\n").unwrap();
        let mut resp = String::new();
        BufReader::new(conn).read_line(&mut resp).expect("read after release");
        if resp.contains("\"health\":\"ok\"") {
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed: {resp:?}");
        std::thread::sleep(Duration::from_millis(100));
    }

    server.round_trip(r#"{"type":"shutdown"}"#);
    server.wait_for_clean_exit(Duration::from_secs(20));
    let _ = std::fs::remove_file(&engine);
}
