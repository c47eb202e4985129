//! The subcommands.
//!
//! Every command returns `Result<i32, String>`: the `i32` is the process
//! exit code (`EXIT_OK` for complete results, `EXIT_PARTIAL` when a
//! resource budget truncated extraction), an `Err` message exits with
//! `1` (failure).

use crate::args::Args;
use aeetes_core::{
    suppress_overlaps, AeetesConfig, BatchOptions, ExtractBackend, ExtractLimits, ExtractRequest, ExtractScratch, ExtractStats, Stage, StageSlots,
    Strategy,
};
use aeetes_pool::{extract_batch_with, Pool};
use aeetes_rules::{DeriveConfig, RuleSet};
use aeetes_shard::{Generation, ShardedEngine};
use aeetes_sim::Metric;
use aeetes_stream::{StreamExtractor, StreamMatch};
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use std::fs;
use std::io::Write;
use std::time::Duration;

/// Exit code: command completed with full results.
pub const EXIT_OK: i32 = 0;
/// Exit code: extraction succeeded but at least one document's results
/// were truncated by `--timeout` / `--max-candidates` / `--max-matches`.
pub const EXIT_PARTIAL: i32 = 2;

/// Top-level usage text.
pub const USAGE: &str = "\
aeetes — approximate entity extraction with synonyms (EDBT 2019)

USAGE:
    aeetes build    --dict FILE --rules FILE --out ENGINE [--max-derived N]
    aeetes extract  --engine ENGINE --docs FILE [--tau F] [--metric NAME]
                    [--threads N] [--best] [--top-k K]
                    [--format tsv|jsonl] [--timeout SECS]
                    [--max-candidates N] [--max-matches N]
    aeetes extract  --engine ENGINE --stream [--tau F] [--format tsv|jsonl]
    aeetes serve    --engine ENGINE [--listen ADDR:PORT]
                    [--metrics-listen ADDR:PORT] [--workers N | --threads N] [--queue N]
                    [--max-doc-bytes N] [--timeout-ceiling SECS]
                    [--max-matches N] [--max-candidates N] [--drain SECS]
                    [--idle-timeout SECS] [--max-conns N] [--wal FILE]
    aeetes fleet    --engine ENGINE [--replicas N | --replica ADDR:PORT ...]
                    [--listen ADDR:PORT] [--retries N] [--health-interval SECS]
                    [--wal FILE] [--compact-threshold N]
                    (plus any serve flag, forwarded to spawned replicas)
    aeetes wal      (inspect | compact) --wal FILE [--records] [--json]
                    [--engine ENGINE]
    aeetes profile  (--engine ENGINE --doc FILE |
                     [--profile pubmed|dbworld|usjob] [--scale F] [--seed N])
                    [--tau F] [--runs N] [--warmup N] [--docs N]
    aeetes stats    --engine ENGINE
    aeetes dict     info FILE [--json]
    aeetes generate --out DIR [--profile pubmed|dbworld|usjob] [--scale F] [--seed N]
    aeetes demo

Flags take `--name value` or `--name=value`.

FILES:
    dictionary  one entity per line
    rules       lhs <TAB> rhs [<TAB> weight-in-(0,1]]
    documents   one document per line

`serve` answers newline-delimited JSON requests (one per line) on stdin or,
with --listen, per TCP connection; see README \"Serving\" for the protocol.
A `{\"type\":\"reload\"}` request applies a dictionary delta as a new
generation without dropping in-flight requests.

ARTIFACT FORMAT: `build` writes, and every other command opens, one
format — AEET v11, the *frozen* layout: the built indexes laid out as flat
little-endian arenas behind a whole-file CRC-32, so a server memory-maps
the file and answers its first request without deserializing anything, and
N serve processes share one page cache. `build` derives and indexes the
dictionary on every core and writes one index; the bytes do not depend on
the core count. `aeetes dict info FILE` prints an artifact's generation,
entity/rule/token counts and each section's element width and size
without building the engine. A file of any other format version is
refused with a message saying to rebuild it.

`extract --top-k K` returns only the K best-scoring matches per document,
ordered by score, using bound-pruned search: the running k-th best score
ratchets the effective threshold upward, so small K examines far fewer
candidates than full extraction. `extract --stream` reads ONE document
from stdin in chunks (of any size; token and UTF-8 boundaries may fall
anywhere) and prints each match as soon as no future input can change it
— identical results to whole-document extraction, flat memory. The serve
protocol exposes both: `\"top_k\"` on extract requests, and
`{\"type\":\"stream\"}` verbs open/feed/flush/close for per-connection
incremental streams (see README \"Streaming & top-k\").

`serve --metrics-listen` exposes the metric registry over HTTP: `/metrics`
in Prometheus text format, `/metrics.json` as JSON. The same snapshot is
available on the protocol stream via `{\"type\":\"metrics\"}`.

`fleet` runs a fault-tolerant coordinator over N serve replicas: it speaks
the same protocol, load-balances extracts, retries retryable failures on a
different replica, respawns crashed replicas, and ships `reload` deltas
two-phase so the fleet never serves mixed generations; see README
\"Cluster\".

`--wal FILE` (serve and fleet) makes reloads crash-safe: every activated
delta is appended to a write-ahead log and fsynced *before* the ok ack,
and a restart replays the log's committed suffix over the engine artifact
— an acknowledged generation survives even SIGKILL or power loss. A fleet
coordinator additionally compacts the log into a fresh artifact every
--compact-threshold deltas (needs --engine). `aeetes wal inspect` reports
a log's committed state (repairing any torn tail, exactly as recovery
would); `aeetes wal compact --wal FILE --engine ENGINE` folds the log into
the artifact offline and resets it. See README \"Durability\".

`profile` runs all four candidate-generation strategies over the same
documents and prints a per-stage timing table (tokenize, remap,
prefix_build, prefix_update, window_slide, candidate_gen, verify) plus
work counters. With --engine/--doc it profiles your engine on your
documents; without, it builds a synthetic corpus (--profile/--scale,
deterministic under --seed) so runs are reproducible.

EXIT CODES:
    0  success, complete results
    1  failure (bad flags, unreadable/corrupt files, internal error)
    2  success, but some document hit a --timeout/--max-candidates/
       --max-matches budget and returned partial (still exact) results
";

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let body = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(body.lines().map(str::to_string).filter(|l| !l.trim().is_empty()).collect())
}

/// `aeetes build`
pub fn build(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &[], &["dict", "rules", "out", "max-derived"])?;
    let dict_path = args.required("dict")?;
    let rules_path = args.required("rules")?;
    let out_path = args.required("out")?;
    let max_derived: usize = args.parse_or("max-derived", DeriveConfig::default().max_derived)?;

    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut dict = Dictionary::new();
    for line in read_lines(dict_path)? {
        dict.push(&line, &tokenizer, &mut interner);
    }

    let mut rules = RuleSet::new();
    let mut skipped = 0usize;
    for (no, line) in read_lines(rules_path)?.iter().enumerate() {
        let mut parts = line.split('\t');
        let (Some(lhs), Some(rhs)) = (parts.next(), parts.next()) else {
            return Err(format!("{rules_path}:{}: expected `lhs<TAB>rhs[<TAB>weight]`", no + 1));
        };
        let weight: f64 = match parts.next() {
            Some(w) => w.trim().parse().map_err(|e| format!("{rules_path}:{}: weight: {e}", no + 1))?,
            None => 1.0,
        };
        if rules.push_weighted_str(lhs, rhs, weight, &tokenizer, &mut interner).is_err() {
            skipped += 1; // empty/trivial rule lines are reported, not fatal
        }
    }
    if skipped > 0 {
        eprintln!("note: skipped {skipped} empty or self-referential rule line(s)");
    }

    let config = AeetesConfig {
        derive: DeriveConfig { max_derived, ..DeriveConfig::default() },
        ..AeetesConfig::default()
    };

    // Derivation and indexing run in one part per core; the artifact is the
    // built generation frozen as-is, the same for any number of parts.
    let engine = ShardedEngine::build(dict, &rules, &interner, config, 0);
    let generation = engine.snapshot();
    let bytes = generation.freeze();
    atomic_write(out_path, &bytes)?;
    eprintln!(
        "built engine: {} entities, {} rules, {} derived variants → {out_path} ({} bytes)",
        generation.dictionary().len(),
        rules.len(),
        generation.variants(),
        bytes.len()
    );
    Ok(EXIT_OK)
}

/// Writes `bytes` to `path` atomically *and durably*: the temp file is
/// fsynced before the rename and the parent directory after it, so a crash
/// (or power loss) at any point leaves either the old contents or the
/// complete new ones — never a truncated engine under the final name.
fn atomic_write(path: &str, bytes: &[u8]) -> Result<(), String> {
    aeetes_core::atomic_replace(std::path::Path::new(path), bytes).map_err(|e| format!("{path}: {e}"))
}

/// Opens the engine artifact (memory-mapped where the platform allows) and
/// adopts its index. Every command that reads an engine goes through here,
/// so a corrupt file, one of another format version or one split into
/// several segments fails the same way everywhere.
fn open_engine(path: &str) -> Result<ShardedEngine, String> {
    let parts = aeetes_core::open_frozen(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    ShardedEngine::from_frozen(parts, None).map_err(|e| format!("{path}: {e}"))
}

/// `aeetes extract`
pub fn extract(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(
        argv,
        &["best", "stream"],
        &[
            "engine",
            "docs",
            "tau",
            "threads",
            "format",
            "metric",
            "timeout",
            "max-candidates",
            "max-matches",
            "top-k",
        ],
    )?;
    let engine_path = args.required("engine")?;
    let tau: f64 = args.parse_or("tau", 0.8)?;
    let threads: usize = args.parse_or("threads", 1)?;
    // Size the process-wide worker pool to the request: `--threads` means
    // the same thing here as `--workers` does for serve — one pool.
    if threads > 1 {
        Pool::configure_global(threads);
    }
    let format = args.optional("format").unwrap_or("tsv");
    if !matches!(format, "tsv" | "jsonl") {
        return Err(format!("unknown format `{format}` (tsv|jsonl)"));
    }
    let metric = match args.optional("metric") {
        None => None,
        Some("jaccard") => Some(Metric::Jaccard),
        Some("dice") => Some(Metric::Dice),
        Some("cosine") => Some(Metric::Cosine),
        Some("overlap") => Some(Metric::Overlap),
        Some(other) => return Err(format!("unknown metric `{other}` (jaccard|dice|cosine|overlap)")),
    };
    if !(tau > 0.0 && tau <= 1.0) {
        return Err(format!("--tau must be in (0, 1], got {tau}"));
    }
    let timeout: Option<f64> = match args.optional("timeout") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("--timeout: {e}"))?),
    };
    if let Some(t) = timeout {
        if !(t > 0.0 && t.is_finite()) {
            return Err(format!("--timeout must be a positive number of seconds, got {t}"));
        }
    }
    let limits = ExtractLimits {
        deadline: timeout.map(Duration::from_secs_f64),
        max_candidates: match args.optional("max-candidates") {
            None => None,
            Some(v) => Some(v.parse().map_err(|e| format!("--max-candidates: {e}"))?),
        },
        max_matches: match args.optional("max-matches") {
            None => None,
            Some(v) => Some(v.parse().map_err(|e| format!("--max-matches: {e}"))?),
        },
        ..ExtractLimits::UNLIMITED
    };
    let top_k: Option<usize> = match args.optional("top-k") {
        None => None,
        Some(v) => {
            let k: usize = v.parse().map_err(|e| format!("--top-k: {e}"))?;
            if k == 0 {
                return Err("--top-k must be at least 1".into());
            }
            if args.switch("best") {
                return Err("--top-k and --best are incompatible on the CLI; use the serve protocol to compose them".into());
            }
            if limits != ExtractLimits::UNLIMITED {
                return Err("--top-k is exact and incompatible with --timeout/--max-candidates/--max-matches budgets".into());
            }
            Some(k)
        }
    };

    // Streaming mode: read stdin chunk-wise, emit matches as they settle.
    if args.switch("stream") {
        for (flag, present) in [
            ("--docs", args.optional("docs").is_some()),
            ("--top-k", top_k.is_some()),
            ("--best", args.switch("best")),
            ("--metric", metric.is_some()),
            ("--timeout", timeout.is_some()),
            ("--max-candidates", limits.max_candidates.is_some()),
            ("--max-matches", limits.max_matches.is_some()),
            ("--threads", args.optional("threads").is_some()),
        ] {
            if present {
                return Err(format!("--stream reads one document from stdin and emits matches incrementally; {flag} does not apply"));
            }
        }
        return extract_stream(&open_engine(engine_path)?.snapshot(), tau, format);
    }

    let docs_path = args.required("docs")?;
    let engine = open_engine(engine_path)?.snapshot();
    let mut interner = engine.interner().clone();
    let tokenizer = Tokenizer::default();
    let docs: Vec<Document> = read_lines(docs_path)?.iter().map(|l| Document::parse(l, &tokenizer, &mut interner)).collect();

    // One fault-isolated batch answers every request shape; `--top-k` rows
    // come back ordered by score (best first) instead of by span.
    let opts = BatchOptions { threads, metric, top_k, limits, ..BatchOptions::default() };
    let mut truncated_docs = 0usize;
    let mut results = Vec::with_capacity(docs.len());
    for (i, r) in extract_batch_with(&*engine, &docs, tau, &opts).into_iter().enumerate() {
        let outcome = r.map_err(|e| format!("document {i}: {e}"))?;
        truncated_docs += outcome.truncated as usize;
        results.push(outcome.matches);
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut total = 0usize;
    for (doc_id, matches) in results.into_iter().enumerate() {
        let matches = if args.switch("best") { suppress_overlaps(matches) } else { matches };
        for m in matches {
            total += 1;
            let entity_raw = &engine.dictionary().record(m.entity).raw;
            let text = docs[doc_id].text_of(m.span).unwrap_or_default();
            match format {
                "jsonl" => {
                    let row = serde_json::json!({
                        "doc": doc_id,
                        "start": m.span.start,
                        "len": m.span.len,
                        "score": m.score,
                        "entity": m.entity.0,
                        "entity_text": entity_raw,
                        "matched_text": text,
                    });
                    writeln!(out, "{row}").map_err(|e| e.to_string())?;
                }
                _ => {
                    writeln!(out, "{doc_id}\t{}\t{}\t{:.4}\t{}\t{}", m.span.start, m.span.len, m.score, entity_raw, text)
                        .map_err(|e| e.to_string())?;
                }
            }
        }
    }
    eprintln!("{total} match(es) at τ = {tau} ({})", metric.unwrap_or(engine.config().metric));
    if truncated_docs > 0 {
        eprintln!("warning: {truncated_docs} document(s) hit a resource budget; results are partial");
        return Ok(EXIT_PARTIAL);
    }
    Ok(EXIT_OK)
}

/// `aeetes extract --stream`: treats stdin as one unbounded document, fed
/// to the incremental extractor in fixed-size byte chunks (split points
/// are arbitrary — the extractor carries partial UTF-8 sequences and
/// partial tokens across them). Matches print as soon as they *settle*
/// (no future input can extend or re-score them), so output is available
/// long before EOF; the final flush emits the tail. Match rows carry byte
/// offsets into the stream instead of the matched text — the stream is
/// not retained.
fn extract_stream(engine: &Generation, tau: f64, format: &str) -> Result<i32, String> {
    use std::io::Read;
    let tokenizer = Tokenizer::default();
    let interner = &mut engine.interner().clone();
    let mut stream = StreamExtractor::new(engine, tau);
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut buf = vec![0u8; 64 * 1024];
    let mut total = 0usize;
    loop {
        let n = match input.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("stdin: {e}")),
        };
        if n == 0 {
            break;
        }
        let matches = stream.feed(engine, &tokenizer, interner, &buf[..n]);
        total += matches.len();
        write_stream_matches(&mut out, engine, matches, format)?;
    }
    let matches = stream.finish(engine, &tokenizer, interner);
    total += matches.len();
    write_stream_matches(&mut out, engine, matches, format)?;
    eprintln!("{total} match(es) at τ = {tau} ({} chunk(s), {} token(s) streamed)", stream.chunks_fed(), stream.tokens_seen());
    Ok(EXIT_OK)
}

/// Prints one batch of settled stream matches and flushes, so a consumer
/// piping the output sees matches as they settle, not at EOF.
fn write_stream_matches(out: &mut impl Write, engine: &Generation, matches: &[StreamMatch], format: &str) -> Result<(), String> {
    for m in matches {
        let entity_raw = &engine.dictionary().record(m.entity).raw;
        match format {
            "jsonl" => {
                let row = serde_json::json!({
                    "start": m.start,
                    "len": m.len,
                    "score": m.score,
                    "entity": m.entity.0,
                    "entity_text": entity_raw,
                    "byte_start": m.byte_start,
                    "byte_end": m.byte_end,
                });
                writeln!(out, "{row}").map_err(|e| e.to_string())?;
            }
            _ => {
                writeln!(out, "{}\t{}\t{:.4}\t{}\t{}..{}", m.start, m.len, m.score, entity_raw, m.byte_start, m.byte_end)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    if !matches.is_empty() {
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `aeetes serve`: long-lived NDJSON extraction server (see `crate::serve`).
pub fn serve_cmd(argv: &[String]) -> Result<i32, String> {
    use crate::protocol::Ceilings;
    use crate::serve::{serve, ServeOptions};
    let args = Args::parse(
        argv,
        // `--frozen` is parsed and ignored (here and in `fleet`) only because
        // the benchmark harness, which this repository may not edit, still
        // passes it; every artifact is frozen.
        &["frozen"],
        &[
            "engine",
            "listen",
            "metrics-listen",
            "workers",
            "threads",
            "queue",
            "max-doc-bytes",
            "timeout-ceiling",
            "max-matches",
            "max-candidates",
            "drain",
            "idle-timeout",
            "max-conns",
            "wal",
        ],
    )?;
    let engine_path = args.required("engine")?;
    let defaults = ServeOptions::default();
    let timeout_ceiling: f64 = args.parse_or("timeout-ceiling", defaults.ceilings.max_timeout.as_secs_f64())?;
    let drain: f64 = args.parse_or("drain", defaults.drain.as_secs_f64())?;
    for (name, v) in [("timeout-ceiling", timeout_ceiling), ("drain", drain)] {
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("--{name} must be a positive number of seconds, got {v}"));
        }
    }
    // --idle-timeout 0 disables the idle close (a coordinator's long-lived
    // control connections want that), so zero is valid here.
    let idle_timeout: f64 = args.parse_or("idle-timeout", defaults.idle_timeout.as_secs_f64())?;
    if !(idle_timeout >= 0.0 && idle_timeout.is_finite()) {
        return Err(format!("--idle-timeout must be a non-negative number of seconds, got {idle_timeout}"));
    }
    let opts = ServeOptions {
        listen: args.optional("listen").map(str::to_string),
        metrics_listen: args.optional("metrics-listen").map(str::to_string),
        // `--threads` is an alias for `--workers`: both size the one
        // process-wide worker pool, same as `extract --threads`.
        workers: match args.optional("threads") {
            Some(v) => v.parse().map_err(|e| format!("--threads: {e}"))?,
            None => args.parse_or("workers", defaults.workers)?,
        },
        queue: args.parse_or("queue", defaults.queue)?,
        ceilings: Ceilings {
            max_doc_bytes: args.parse_or("max-doc-bytes", defaults.ceilings.max_doc_bytes)?,
            max_timeout: Duration::from_secs_f64(timeout_ceiling),
            max_matches: args.parse_or("max-matches", defaults.ceilings.max_matches)?,
            max_candidates: args.parse_or("max-candidates", defaults.ceilings.max_candidates)?,
        },
        drain: Duration::from_secs_f64(drain),
        idle_timeout: Duration::from_secs_f64(idle_timeout),
        max_conns: args.parse_or("max-conns", defaults.max_conns)?,
        wal: args.optional("wal").map(std::path::PathBuf::from),
    };
    serve(open_engine(engine_path)?, &opts)?;
    Ok(EXIT_OK)
}

/// `aeetes fleet`: coordinator over a replicated serve fleet.
pub fn fleet_cmd(argv: &[String]) -> Result<i32, String> {
    use aeetes_cluster::{run_fleet, FleetOptions, ReplicaSpec};
    let args = Args::parse(
        argv,
        &["frozen"],
        &[
            // Coordinator flags.
            "engine",
            "replicas",
            "replica",
            "listen",
            "retries",
            "request-timeout",
            "health-interval",
            "probe-timeout",
            "reload-timeout",
            "drain",
            "wal",
            "compact-threshold",
            // Serve flags forwarded verbatim to spawned replicas.
            "workers",
            "threads",
            "queue",
            "max-doc-bytes",
            "timeout-ceiling",
            "max-matches",
            "max-candidates",
            "max-conns",
        ],
    )?;
    let defaults = FleetOptions::default();
    let mut replicas: Vec<ReplicaSpec> = Vec::new();
    // --replica addr[,addr...] names externally managed serve processes.
    // Addresses are validated here, at parse time: a typo'd or duplicated
    // endpoint fails the command immediately instead of surfacing later as
    // an endless revive loop against a dead (or doubly-routed) slot.
    if let Some(list) = args.optional("replica") {
        let mut seen = std::collections::HashSet::new();
        for addr in list.split(',').map(str::trim).filter(|a| !a.is_empty()) {
            use std::net::ToSocketAddrs;
            match addr.to_socket_addrs() {
                Ok(mut resolved) => {
                    if resolved.next().is_none() {
                        return Err(format!("--replica {addr}: resolves to no address"));
                    }
                }
                Err(e) => return Err(format!("--replica {addr}: not a usable ADDR:PORT ({e})")),
            }
            if !seen.insert(addr.to_string()) {
                return Err(format!("--replica {addr}: duplicate address; each replica endpoint must be listed once"));
            }
            replicas.push(ReplicaSpec::Remote { addr: addr.to_string() });
        }
    }
    // --replicas N spawns N children (default 3 when nothing remote given).
    let spawn_default = if replicas.is_empty() { 3 } else { 0 };
    let spawn_count: usize = args.parse_or("replicas", spawn_default)?;
    if spawn_count > 0 {
        let engine = args.required("engine")?; // children need the artifact
        let program = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let mut child_args = vec![
            "--engine".to_string(),
            engine.to_string(),
            // The OS picks each child's port; the banner reports it.
            "--listen".to_string(),
            "127.0.0.1:0".to_string(),
            // The coordinator's data connection is idle between bursts and
            // must never be closed under it.
            "--idle-timeout".to_string(),
            "0".to_string(),
        ];
        for flag in [
            "workers",
            "threads",
            "queue",
            "max-doc-bytes",
            "timeout-ceiling",
            "max-matches",
            "max-candidates",
            "max-conns",
        ] {
            if let Some(v) = args.optional(flag) {
                child_args.push(format!("--{flag}"));
                child_args.push(v.to_string());
            }
        }
        for _ in 0..spawn_count {
            replicas.push(ReplicaSpec::Spawn { program: program.clone(), args: child_args.clone() });
        }
    }
    if replicas.is_empty() {
        return Err("a fleet needs at least one replica: pass --replicas N and/or --replica ADDR".into());
    }
    let secs = |name: &str, default: Duration| -> Result<Duration, String> {
        let v: f64 = args.parse_or(name, default.as_secs_f64())?;
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("--{name} must be a positive number of seconds, got {v}"));
        }
        Ok(Duration::from_secs_f64(v))
    };
    let wal = args.optional("wal").map(std::path::PathBuf::from);
    // Compaction rewrites the replicas' engine artifact, so it needs the
    // artifact path; with remote-only replicas and no --engine the log
    // still makes reloads durable, it just never compacts.
    let compactor: Option<aeetes_cluster::Compactor> = match (&wal, args.optional("engine")) {
        (Some(_), Some(engine_path)) => {
            let path = engine_path.to_string();
            Some(std::sync::Arc::new(move |deltas: &[serde_json::Value], base: u64, target: u64| {
                compact_artifact(&path, deltas, base, target)
            }))
        }
        _ => None,
    };
    let opts = FleetOptions {
        listen: args.optional("listen").unwrap_or("127.0.0.1:0").to_string(),
        replicas,
        // 0 = one attempt per replica (the coordinator's default).
        max_attempts: args.parse_or("retries", 0u32)?,
        request_timeout: secs("request-timeout", defaults.request_timeout)?,
        backoff: defaults.backoff,
        health_interval: secs("health-interval", defaults.health_interval)?,
        probe_timeout: secs("probe-timeout", defaults.probe_timeout)?,
        reload_timeout: secs("reload-timeout", defaults.reload_timeout)?,
        drain: secs("drain", defaults.drain)?,
        wal,
        compact_threshold: args.parse_or("compact-threshold", defaults.compact_threshold)?,
        compactor,
    };
    run_fleet(opts)?;
    Ok(EXIT_OK)
}

/// Folds logged deltas into the engine artifact: load, apply the suffix the
/// artifact has not yet seen, save at `target`, and atomically (and
/// durably) replace the file. Used by the fleet coordinator's compaction
/// and by `aeetes wal compact`. Delta `i` of `deltas` takes generation
/// `base + i` to `base + i + 1`.
fn compact_artifact(engine_path: &str, deltas: &[serde_json::Value], base: u64, target: u64) -> Result<(), String> {
    let engine = open_engine(engine_path)?;
    let tokenizer = Tokenizer::default();
    let artifact_gen = engine.generation_id();
    if artifact_gen < base || artifact_gen > target {
        return Err(format!(
            "{engine_path}: artifact is at generation {artifact_gen}, outside the log's [{base}, {target}] — wrong artifact?"
        ));
    }
    for (i, delta) in deltas.iter().enumerate().skip((artifact_gen - base) as usize) {
        let delta = crate::protocol::parse_delta(delta).map_err(|e| format!("{engine_path}: logged delta {i}: {e}"))?;
        let generation = engine
            .apply_update(&delta, &tokenizer)
            .map_err(|e| format!("{engine_path}: applying logged delta {i}: {e}"))?;
        let expected = base + i as u64 + 1;
        if generation.id() != expected {
            return Err(format!("{engine_path}: logged delta {i} rebuilt generation {}, expected {expected}", generation.id()));
        }
    }
    if engine.generation_id() != target {
        return Err(format!("{engine_path}: compaction ended at generation {}, wanted {target}", engine.generation_id()));
    }
    atomic_write(engine_path, &engine.freeze())
}

/// `aeetes wal`: inspect or compact a delta write-ahead log offline.
pub fn wal_cmd(argv: &[String]) -> Result<i32, String> {
    match argv.first().map(String::as_str) {
        Some("inspect") => wal_inspect(&argv[1..]),
        Some("compact") => wal_compact(&argv[1..]),
        Some(other) => Err(format!("unknown wal action `{other}` (inspect|compact)")),
        None => Err("usage: aeetes wal (inspect | compact) --wal FILE ...".into()),
    }
}

/// `aeetes wal inspect`: report the log's committed state. Opening performs
/// the same torn-tail repair recovery would (the discarded bytes were never
/// acknowledged), and reports how many bytes it dropped.
fn wal_inspect(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &["json", "records"], &["wal"])?;
    let path = args.required("wal")?;
    let (wal, replay) = aeetes_core::Wal::open(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let records: Vec<serde_json::Value> = replay
        .records
        .iter()
        .map(|r| {
            // Payloads are canonical delta JSON; a non-JSON payload is
            // reported as opaque rather than failing the inspection.
            let delta: serde_json::Value = std::str::from_utf8(&r.payload)
                .ok()
                .and_then(|text| serde_json::from_str(text).ok())
                .unwrap_or(serde_json::Value::Null);
            let count = |field: &str| delta.get(field).and_then(serde_json::Value::as_array).map_or(0, Vec::len);
            serde_json::json!({
                "generation": r.generation,
                "payload_bytes": r.payload.len(),
                "add_entities": count("add_entities"),
                "remove_entities": count("remove_entities"),
                "add_rules": count("add_rules"),
            })
        })
        .collect();
    if args.switch("json") {
        let out = serde_json::json!({
            "path": path,
            "base_generation": wal.base_generation(),
            "last_generation": wal.last_generation(),
            "records": wal.record_count(),
            "committed_bytes": wal.len_bytes(),
            "torn_bytes_truncated": replay.truncated_bytes,
            "record_details": records,
        });
        println!("{out}");
        return Ok(EXIT_OK);
    }
    println!("wal                  {path}");
    println!("base generation      {}", wal.base_generation());
    println!("last generation      {}", wal.last_generation());
    println!("committed records    {}", wal.record_count());
    println!("committed bytes      {}", wal.len_bytes());
    println!("torn bytes truncated {}", replay.truncated_bytes);
    if args.switch("records") {
        let field = |r: &serde_json::Value, name: &str| r.get(name).and_then(serde_json::Value::as_u64).unwrap_or(0);
        for r in &records {
            println!(
                "  generation {:>6}  {:>8} bytes  +{} entities  -{} entities  +{} rules",
                field(r, "generation"),
                field(r, "payload_bytes"),
                field(r, "add_entities"),
                field(r, "remove_entities"),
                field(r, "add_rules")
            );
        }
    }
    Ok(EXIT_OK)
}

/// `aeetes wal compact`: fold the log's deltas into the engine artifact
/// (rewritten durably at the log's last generation), then reset the log to
/// a fresh header at that generation. Restarting a server afterwards loads
/// the compacted artifact and replays nothing.
fn wal_compact(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &[], &["wal", "engine"])?;
    let path = args.required("wal")?;
    let engine_path = args.required("engine")?;
    let (mut wal, replay) = aeetes_core::Wal::open(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    if replay.records.is_empty() {
        eprintln!("{path}: no committed records; nothing to compact");
        return Ok(EXIT_OK);
    }
    let deltas: Vec<serde_json::Value> = replay
        .records
        .iter()
        .map(|r| {
            std::str::from_utf8(&r.payload)
                .map_err(|e| format!("{path}: generation {} record: payload is not UTF-8: {e}", r.generation))
                .and_then(|text| {
                    serde_json::from_str(text).map_err(|e| format!("{path}: generation {} record: payload is not JSON: {e}", r.generation))
                })
        })
        .collect::<Result<_, _>>()?;
    let (base, target) = (wal.base_generation(), wal.last_generation());
    compact_artifact(engine_path, &deltas, base, target)?;
    // The artifact now carries every logged delta; reset the log *after*
    // the artifact is durable. A crash between the two steps is safe:
    // recovery skips records at or below the artifact's generation.
    wal.reset(target).map_err(|e| format!("{path}: resetting after compaction: {e}"))?;
    eprintln!("compacted {} delta(s) into {engine_path} at generation {target}; {path} reset", deltas.len());
    Ok(EXIT_OK)
}

/// `aeetes stats`
pub fn stats(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &[], &["engine"])?;
    let path = args.required("engine")?;
    let engine = open_engine(path)?.snapshot();
    let st = engine.derive_stats();
    let range = engine.set_len_range();
    println!("entities            {}", engine.dictionary().len());
    println!("derived variants    {}", engine.variants());
    println!("interned tokens     {}", engine.interner().len());
    println!("index entries       {}", engine.index_entries());
    println!("index size (bytes)  {}", engine.index_size_bytes());
    println!("avg |A(e)|          {:.2}", st.avg_selected());
    println!("truncated entities  {}", st.truncated_entities);
    println!("min/max entity set  {:?} / {:?}", range.map(|r| r.0), range.map(|r| r.1));
    println!("tombstoned origins  {}", engine.removed().len());
    println!("persisted rules     {}", engine.rules().len());
    Ok(EXIT_OK)
}

/// `aeetes dict`: artifact metadata commands.
pub fn dict_cmd(argv: &[String]) -> Result<i32, String> {
    match argv.first().map(String::as_str) {
        Some("info") => dict_info(&argv[1..]),
        Some(other) => Err(format!("unknown dict action `{other}` (info)")),
        None => Err("usage: aeetes dict info FILE [--json]".into()),
    }
}

/// `aeetes dict info FILE`: headline artifact facts — version, generation,
/// entity/rule/token counts, each section's element width and size — from
/// an artifact the opener would adopt, without building an engine.
fn dict_info(argv: &[String]) -> Result<i32, String> {
    let (positional, flags): (Vec<&String>, Vec<&String>) = argv.iter().partition(|a| !a.starts_with("--"));
    let flags: Vec<String> = flags.into_iter().cloned().collect();
    let args = Args::parse(&flags, &["json"], &[])?;
    let path = match positional.as_slice() {
        [p] => p.as_str(),
        [] => return Err("usage: aeetes dict info FILE [--json]".into()),
        _ => return Err("dict info takes exactly one FILE".into()),
    };
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let info = aeetes_core::peek_info(&bytes).map_err(|e| format!("{path}: {e}"))?;
    if args.switch("json") {
        let sections: Vec<serde_json::Value> = info
            .sections
            .iter()
            .map(|s| serde_json::json!({ "kind": s.kind, "width": s.width, "bytes": s.len }))
            .collect();
        let out = serde_json::json!({
            "path": path,
            "version": info.version,
            "generation": info.generation,
            "entities": info.entities,
            "rules": info.rules,
            "tokens": info.tokens,
            "file_bytes": info.file_len,
            "sections": sections,
        });
        println!("{out}");
        return Ok(EXIT_OK);
    }
    println!("artifact            {path}");
    println!("format version      {} (frozen, mmap-able)", info.version);
    println!("generation          {}", info.generation);
    println!("entities            {}", info.entities);
    println!("rules               {}", info.rules);
    println!("tokens              {}", info.tokens);
    println!("file size (bytes)   {}", info.file_len);
    println!("sections:           width        bytes");
    for s in &info.sections {
        println!("  {:<18} {:>5} {:>12}", s.kind, s.width, s.len);
    }
    Ok(EXIT_OK)
}

/// `aeetes generate`: write a synthetic calibrated corpus as CLI-ready files.
pub fn generate_cmd(argv: &[String]) -> Result<i32, String> {
    use aeetes_datagen::{generate, write_files, DatasetProfile};
    let args = Args::parse(argv, &[], &["out", "scale", "seed", "profile"])?;
    let out = args.required("out")?;
    let scale: f64 = args.parse_or("scale", 0.05)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let profile = match args.optional("profile").unwrap_or("pubmed") {
        "pubmed" => DatasetProfile::pubmed_like(),
        "dbworld" => DatasetProfile::dbworld_like(),
        "usjob" => DatasetProfile::usjob_like(),
        other => return Err(format!("unknown profile `{other}` (pubmed|dbworld|usjob)")),
    };
    if scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    let data = generate(&profile.scaled(scale), seed);
    write_files(&data, std::path::Path::new(out)).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "wrote {out}/dict.txt ({} entities), rules.tsv ({} rules), docs.txt ({} docs), gold.tsv ({} mentions)",
        data.dictionary.len(),
        data.rules.len(),
        data.documents.len(),
        data.gold.len()
    );
    Ok(EXIT_OK)
}

/// Human-scale duration for the profile table.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// `aeetes profile`: runs every candidate-generation strategy over the same
/// documents and prints the per-stage timing breakdown recorded in the
/// extraction scratch, plus the work counters — the ablation view of the
/// paper's Figure 10/11, on your own engine and documents (or on a
/// deterministic synthetic corpus when no engine is given).
pub fn profile_cmd(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &[], &["engine", "doc", "profile", "scale", "seed", "tau", "runs", "warmup", "docs"])?;
    let tau: f64 = args.parse_or("tau", 0.8)?;
    if !(tau > 0.0 && tau <= 1.0) {
        return Err(format!("--tau must be in (0, 1], got {tau}"));
    }
    let runs: usize = args.parse_or("runs", 5)?;
    let warmup: usize = args.parse_or("warmup", 2)?;
    let max_docs: usize = args.parse_or("docs", 4)?;
    if runs == 0 || max_docs == 0 {
        return Err("--runs and --docs must be positive".into());
    }

    let tokenizer = Tokenizer::default();
    let (engine, doc_texts, source) = match args.optional("engine") {
        // A built artifact plus a document file (one document per line).
        Some(engine_path) => {
            let doc_path = args.required("doc")?;
            (open_engine(engine_path)?.snapshot(), read_lines(doc_path)?, format!("{engine_path} on {doc_path}"))
        }
        // No engine: a synthetic corpus, deterministic under --seed, so the
        // same invocation profiles the same workload run after run.
        None => {
            use aeetes_datagen::{generate, DatasetProfile};
            let scale: f64 = args.parse_or("scale", 0.02)?;
            let seed: u64 = args.parse_or("seed", 42)?;
            let profile_name = args.optional("profile").unwrap_or("pubmed");
            let profile = match profile_name {
                "pubmed" => DatasetProfile::pubmed_like(),
                "dbworld" => DatasetProfile::dbworld_like(),
                "usjob" => DatasetProfile::usjob_like(),
                other => return Err(format!("unknown profile `{other}` (pubmed|dbworld|usjob)")),
            };
            if scale <= 0.0 {
                return Err("--scale must be positive".into());
            }
            let data = generate(&profile.scaled(scale), seed);
            // Synthetic documents carry interned tokens, not raw text;
            // render them back so the tokenize stage has real work to time.
            let texts: Vec<String> = data.documents.iter().map(|d| data.interner.render(d.tokens())).collect();
            let engine = ShardedEngine::build(data.dictionary, &data.rules, &data.interner, AeetesConfig::default(), 1);
            (engine.snapshot(), texts, format!("synthetic {profile_name} (scale {scale}, seed {seed})"))
        }
    };
    let mut interner = engine.interner().clone();
    let texts: Vec<&String> = doc_texts.iter().take(max_docs).collect();
    if texts.is_empty() {
        return Err("no documents to profile".into());
    }

    let mut scratch = ExtractScratch::new();
    let mut table: Vec<(Strategy, StageSlots, u64, ExtractStats)> = Vec::new();
    for strategy in Strategy::ALL {
        let mut agg = StageSlots::default();
        let mut totals = ExtractStats::default();
        let mut wall_nanos = 0u64;
        for run in 0..warmup + runs {
            let measured = run >= warmup;
            for text in &texts {
                let started = std::time::Instant::now();
                let doc = Document::parse(text, &tokenizer, &mut interner);
                let tokenize_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let request = ExtractRequest {
                    strategy: Some(strategy),
                    metric: Some(Metric::Jaccard),
                    ..ExtractRequest::new(tau)
                };
                let out = engine.extract_request(&doc, &request, &mut scratch);
                if measured {
                    // The engine clears the scratch slots per document, so
                    // tokenize (timed out here, around the parse) and the
                    // engine-recorded slots merge into a command-local
                    // aggregate instead.
                    agg.merge(&out.stages);
                    agg.record(Stage::Tokenize, tokenize_nanos);
                    wall_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    totals += out.stats;
                }
            }
        }
        table.push((strategy, agg, wall_nanos, totals));
    }

    // Per-document averages over the measured runs.
    let per = (runs * texts.len()) as u64;
    println!("profile: {source}");
    println!("{} document(s) x {runs} run(s) (+{warmup} warmup), tau {tau}", texts.len());
    println!();
    print!("{:<15}", "stage");
    for (strategy, ..) in &table {
        print!("{:>12}", strategy.name());
    }
    println!();
    for stage in Stage::ALL {
        print!("{:<15}", stage.name());
        for (_, agg, ..) in &table {
            print!("{:>12}", fmt_nanos(agg.estimated_nanos(stage) / per));
        }
        println!();
    }
    print!("{:<15}", "wall");
    for (_, _, wall, _) in &table {
        print!("{:>12}", fmt_nanos(wall / per));
    }
    println!("\n");
    type StatField = fn(&ExtractStats) -> u64;
    let counters: [(&str, StatField); 4] = [
        ("accessed", |s| s.accessed_entries),
        ("candidates", |s| s.candidates),
        ("verifications", |s| s.verifications),
        ("matches", |s| s.matches),
    ];
    for (label, get) in counters {
        print!("{:<15}", label);
        for (_, _, _, totals) in &table {
            print!("{:>12}", get(totals) / runs as u64);
        }
        println!();
    }
    println!();
    println!("stage times are per-document estimates from sampled window positions;");
    println!("window_slide includes its per-position sub-stages (prefix_build,");
    println!("prefix_update, candidate_gen); wall is the measured end-to-end time.");
    Ok(EXIT_OK)
}

/// `aeetes demo`: the paper's Figure 1 scenario, no files needed.
pub fn demo() -> Result<i32, String> {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut dict = Dictionary::new();
    dict.push("University of Wisconsin Madison", &tokenizer, &mut interner);
    dict.push("Purdue University USA", &tokenizer, &mut interner);
    dict.push("UQ AU", &tokenizer, &mut interner);
    let mut rules = RuleSet::new();
    for (l, r) in [
        ("UQ", "University of Queensland"),
        ("USA", "United States"),
        ("AU", "Australia"),
        ("UW", "University of Wisconsin"),
    ] {
        rules.push_str(l, r, &tokenizer, &mut interner).expect("valid demo rule");
    }
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 1).snapshot();
    let doc = Document::parse(
        "PC members: Alice (UW Madison), Bob (Purdue University United States), \
         Carol (Purdue University USA), Dan (University of Queensland Australia).",
        &tokenizer,
        &mut interner,
    );
    println!("document: {}\n", doc.raw);
    for m in suppress_overlaps(engine.extract_all(&doc, 0.9)) {
        println!("  {:5.3}  \"{}\"  →  {}", m.score, doc.text_of(m.span).unwrap_or("<span>"), engine.dictionary().record(m.entity).raw);
    }
    Ok(EXIT_OK)
}
