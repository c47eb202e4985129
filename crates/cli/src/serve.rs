//! `aeetes serve` — a long-lived extraction server built for graceful
//! degradation.
//!
//! The engine is loaded once; requests arrive as newline-delimited JSON
//! (see [`crate::protocol`]) either on stdin (responses on stdout) or over
//! TCP (`--listen addr:port`, one protocol stream per connection). What a
//! request does is decided by a [`Session`] per connection (see
//! [`crate::session`]); this module is only the shell around it: the two
//! transports on the framing and accept loops `aeetes fleet` shares
//! ([`aeetes_cluster::read_requests`], [`aeetes_cluster::accept_loop`]),
//! the `--metrics-listen` HTTP endpoint, and the drain.
//!
//! **Graceful drain** — `{"type":"shutdown"}` (or stdin EOF) stops
//! admission, lets the pool finish the admitted backlog within the drain
//! deadline, then fires a [`aeetes_core::CancelToken`] that stops
//! still-running extractions mid-document. Unprocessed leftovers are
//! answered (`shedding`) rather than dropped, so counters always
//! reconcile: every admitted extract line is answered exactly once as
//! `served`, `shed`, or `failed`.

use crate::protocol::Ceilings;
use crate::session::{Reply, Server, Session};
use aeetes_cluster::{accept_loop, read_requests, ConnLimit, Ended, Sink};
use aeetes_pool::Pool;
use aeetes_shard::ShardedEngine;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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

/// Runs the server until shutdown/EOF, then drains. Returns the final
/// (served, shed, failed) counters.
pub fn serve(engine: ShardedEngine, opts: &ServeOptions) -> Result<(u64, u64, u64), String> {
    // One process-wide pool serves extraction and batches alike: `--workers`
    // sizes it (first configuration in the process wins), and its workers
    // own the long-lived extraction scratches.
    Pool::configure_global(opts.workers.max(1));
    let pool = Pool::global();
    let server = Server::new(engine, opts, pool.workers())?;
    pool.attach_metrics(&server.metrics.registry);
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
                spawn_metrics_server(listener, Arc::clone(&server));
            }
            let stdin = std::io::stdin();
            serve_connection(&server, &mut BufReader::new(stdin.lock()), &Sink::new(std::io::stdout()), Duration::ZERO);
            // stdin EOF (or a shutdown request) both end the stream: drain.
            server.draining.store(true, Ordering::Relaxed);
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
                spawn_metrics_server(listener, Arc::clone(&server));
            }
            let limit = ConnLimit {
                max: opts.max_conns.max(1),
                open: Arc::clone(&server.metrics.conns),
                rejected: Arc::clone(&server.metrics.conns_rejected),
            };
            let (for_conns, idle) = (Arc::clone(&server), opts.idle_timeout);
            accept_loop(&listener, &server.draining, Some(&limit), move |reader, sink| serve_connection(&for_conns, reader, sink, idle));
        }
    }

    drain(&server, opts.drain);
    let m = &server.metrics;
    let (served, shed, failed) = (m.served.value(), m.shed.value(), m.failed.value());
    eprintln!("serve: drained; served={served} shed={shed} failed={failed}");
    Ok((served, shed, failed))
}

/// Serves one protocol stream (a TCP connection or stdin) through a
/// session: control requests and stream verbs are answered inline, extract
/// jobs go to the pool. Returns `true` when a `shutdown` request asked the
/// whole server to drain.
fn serve_connection(server: &Arc<Server>, reader: &mut impl BufRead, sink: &Sink, idle: Duration) -> bool {
    // Dropping the session on ANY exit path — EOF, read error, idle timeout,
    // drain, shutdown — closes each stream it left open with its single
    // `closed` event and releases its admission slot.
    let mut session = Session::new(Arc::clone(server), sink.clone());
    let ended = read_requests(reader, server.line_cap(), idle, &server.draining, |request| match session.handle(request, Instant::now()) {
        Reply::Line(line) => {
            sink.respond(&line);
            false
        }
        Reply::Job(job) => {
            let sink = sink.clone();
            Pool::global().spawn(move |scratch| job.run(scratch, |line| sink.respond(line)));
            false
        }
        Reply::Shutdown(line) => {
            sink.respond(&line);
            true
        }
    });
    if ended == Ended::Idle {
        server.metrics.idle_closed.inc(1);
    }
    ended == Ended::Shutdown
}

/// Serves `/metrics` (Prometheus text exposition) and `/metrics.json` over
/// minimal HTTP/1.0, one connection at a time, on a detached thread.
/// Scrapes are rare and the bodies are small, so a single sequential loop
/// is enough; the thread dies with the process after the drain. A scraper
/// that sends garbage gets a 404 and a closed connection — it can never
/// reach the extraction path.
fn spawn_metrics_server(listener: TcpListener, server: Arc<Server>) {
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
            let snapshot = || server.scrape(Instant::now()).snapshot();
            let (status, content_type, body) = if path == "/metrics.json" {
                ("200 OK", "application/json", aeetes_obs::json(&snapshot()))
            } else if path == "/metrics" || path.starts_with("/metrics?") {
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", aeetes_obs::prometheus_text(&snapshot()))
            } else {
                ("404 Not Found", "text/plain; charset=utf-8", "not found; try /metrics or /metrics.json\n".to_string())
            };
            let response =
                format!("HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}", body.len());
            let _ = stream.write_all(response.as_bytes());
        }
    });
}

/// Waits for the admitted backlog to be answered. Within `deadline` the
/// pool finishes jobs normally; past it the cancel token fires, which stops
/// in-flight extractions mid-document and makes still-queued jobs
/// self-answer `shedding` — so `queued` always reaches zero and every
/// admitted line is answered exactly once. The pool itself is process-wide
/// and keeps running (idle) after the drain.
fn drain(server: &Server, deadline: Duration) {
    let started = Instant::now();
    while server.queued.load(Ordering::SeqCst) > 0 {
        if started.elapsed() >= deadline {
            server.cancel.cancel();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
