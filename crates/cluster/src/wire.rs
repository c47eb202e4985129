//! The NDJSON wire that `aeetes serve` and the fleet coordinator both
//! speak, written once: the error vocabulary, the framing loop that turns a
//! connection's bytes into request lines, the accept loop that gives each
//! connection a thread, and the writer every answer goes through.
//!
//! Error taxonomy (the `code` field), so clients can tell retryable from
//! fatal conditions:
//!
//! | code          | meaning                                   | retry? |
//! |---------------|-------------------------------------------|--------|
//! | `bad_request` | malformed JSON / unknown type / bad field | no     |
//! | `too_large`   | document or request line over the ceiling | no     |
//! | `timeout`     | request expired before a worker ran it    | yes    |
//! | `shedding`    | queue full or server draining             | yes    |
//! | `internal`    | extraction panicked (isolated; see logs)  | no     |
//! | `conflict`    | activate id ≠ prepared generation id      | no     |

use aeetes_obs::{Counter, Gauge, MetricRegistry};
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Structured error classes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, missing/ill-typed fields, unknown request type, or a
    /// pathological parameter (e.g. τ outside `(0, 1]`). Not retryable.
    BadRequest,
    /// The document (or the whole request line) exceeds a server ceiling.
    /// Not retryable without shrinking the payload.
    TooLarge,
    /// The request's deadline expired while it waited in the queue.
    /// Retryable.
    Timeout,
    /// Admission control refused the request: queue full or server
    /// draining. Retryable (elsewhere or after backoff).
    Shedding,
    /// Extraction panicked; the fault was isolated to this request.
    Internal,
    /// Two-phase state mismatch: an `activate` named a generation that is
    /// not the one prepared (or nothing is prepared). Not retryable — the
    /// identical request will keep failing; the caller must re-prepare.
    Conflict,
}

impl ErrorCode {
    /// Every variant, for exhaustive table-driven tests and docs.
    pub const ALL: [ErrorCode; 6] = [
        ErrorCode::BadRequest,
        ErrorCode::TooLarge,
        ErrorCode::Timeout,
        ErrorCode::Shedding,
        ErrorCode::Internal,
        ErrorCode::Conflict,
    ];

    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Shedding => "shedding",
            ErrorCode::Internal => "internal",
            ErrorCode::Conflict => "conflict",
        }
    }

    /// Parses the wire spelling back into a code (`None` for unknown
    /// spellings — a coordinator talking to a newer replica treats those
    /// as fatal rather than guessing retryability).
    pub fn parse_wire(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// Whether a client may retry the identical request and hope for a
    /// different answer. The coordinator fails over on exactly these.
    ///
    /// The mapping is deliberately an exhaustive `match` (no `_` arm): a
    /// new error code cannot compile without an explicit, reviewed
    /// retryability decision — coordinators build failover on top of this.
    pub fn retryable(self) -> bool {
        match self {
            // The request itself is defective; an identical retry cannot
            // succeed anywhere.
            ErrorCode::BadRequest => false,
            // The payload exceeds a server ceiling; retrying without
            // shrinking it fails identically.
            ErrorCode::TooLarge => false,
            // The deadline expired while queued: another (less loaded)
            // server, or the same one a moment later, may answer in time.
            ErrorCode::Timeout => true,
            // Admission control refused: queue full or draining. Elsewhere
            // or after backoff the same request is fine.
            ErrorCode::Shedding => true,
            // Extraction panicked on this input; the same input will very
            // likely panic again on any replica of the same build.
            ErrorCode::Internal => false,
            // Two-phase state mismatch; the caller must change the request
            // (re-prepare), not repeat it.
            ErrorCode::Conflict => false,
        }
    }
}

/// A request that could not be accepted, carrying everything needed to
/// build the error response.
#[derive(Debug)]
pub struct Reject {
    /// Echoed id (``null`` when the line was too broken to recover one).
    pub id: Value,
    /// Error class.
    pub code: ErrorCode,
    /// Human-oriented detail.
    pub message: String,
}

impl Reject {
    /// Refuses the request whose id is `id` (`null` when it has none).
    pub fn new(id: Value, code: ErrorCode, message: impl Into<String>) -> Self {
        Reject { id, code, message: message.into() }
    }

    /// The error response. Shedding gets its own top-level status so naive
    /// clients checking only `status` still back off.
    pub fn value(&self) -> Value {
        let status = if self.code == ErrorCode::Shedding { "shedding" } else { "error" };
        json!({
            "id": self.id,
            "status": status,
            "code": self.code.as_str(),
            "retryable": self.code.retryable(),
            "message": self.message,
        })
    }
}

/// Serializes an error (or shedding) response line.
pub fn error_line(reject: &Reject) -> String {
    reject.value().to_string()
}

/// The `{"type":"metrics"}` payload: the registry's JSON export, embedded as
/// a structured value rather than a string (rendered, then parsed back:
/// scrapes are rare, the double pass is irrelevant).
pub fn metrics_value(registry: &MetricRegistry) -> Value {
    serde_json::from_str(&aeetes_obs::json(&registry.snapshot())).unwrap_or(Value::Null)
}

/// Writes one NDJSON line — `line` plus its terminating newline — with a
/// single `write_all`, then flushes. One write, not two: on a socket with
/// Nagle's algorithm on, a separate one-byte `\n` write is held back until
/// the peer's delayed ACK of the line before it, a ~40 ms stall per reply.
pub(crate) fn write_line<W: Write + ?Sized>(w: &mut W, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)?;
    w.flush()
}

/// Where a connection's answers go (its socket's write half, or stdout),
/// shared with every thread that answers one of its requests and
/// serialized by a mutex so concurrent writers never interleave partial
/// lines.
#[derive(Clone)]
pub struct Sink(Arc<Mutex<Box<dyn Write + Send>>>);

impl Sink {
    /// A sink over `w`, the write half of one connection.
    pub fn new(w: impl Write + Send + 'static) -> Sink {
        Sink(Arc::new(Mutex::new(Box::new(w))))
    }

    /// Writes one response line. Write errors are swallowed: the client
    /// may have hung up, which must never take the process down.
    pub fn respond(&self, line: &str) {
        // A panicked writer still has a usable fd.
        let mut w = self.0.lock().unwrap_or_else(|p| p.into_inner());
        let _ = write_line(&mut **w, line);
    }
}

/// Outcome of reading one protocol line from a connection
/// ([`LineReader::next_line`]).
#[derive(Debug)]
enum LineRead {
    /// A complete line (without the trailing newline).
    Line(Vec<u8>),
    /// A line longer than the cap; the remainder was discarded up to the
    /// next newline so the stream stays in sync.
    Oversized,
    /// End of stream.
    Eof,
}

/// Incremental capped line reader. Never buffers more than `cap` bytes, so
/// a client streaming an endless line cannot balloon server memory, and
/// keeps partial-line progress across calls — a read timeout mid-line (the
/// drain poll on TCP connections) resumes exactly where it stopped instead
/// of corrupting the stream.
struct LineReader {
    cap: usize,
    buf: Vec<u8>,
    /// Inside an over-cap line, discarding bytes until the next newline.
    discarding: bool,
}

impl LineReader {
    /// A reader that never buffers more than `cap` bytes of one line.
    fn new(cap: usize) -> Self {
        LineReader { cap, buf: Vec::new(), discarding: false }
    }

    /// Reads the next line. A final unterminated fragment (truncated line
    /// before EOF) is returned as a line so it still gets a (likely
    /// `bad_request`) response. `Err(TimedOut | WouldBlock)` is resumable.
    fn next_line(&mut self, reader: &mut impl BufRead) -> std::io::Result<LineRead> {
        loop {
            let buf = reader.fill_buf()?;
            if buf.is_empty() {
                if self.discarding {
                    self.discarding = false;
                    return Ok(LineRead::Oversized);
                }
                return Ok(if self.buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line(std::mem::take(&mut self.buf))
                });
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            if self.discarding {
                match newline {
                    Some(pos) => {
                        reader.consume(pos + 1);
                        self.discarding = false;
                        return Ok(LineRead::Oversized);
                    }
                    None => {
                        let n = buf.len();
                        reader.consume(n);
                    }
                }
                continue;
            }
            match newline {
                Some(pos) => {
                    if self.buf.len() + pos <= self.cap {
                        self.buf.extend_from_slice(&buf[..pos]);
                        reader.consume(pos + 1);
                        return Ok(LineRead::Line(std::mem::take(&mut self.buf)));
                    }
                    reader.consume(pos + 1);
                    self.buf.clear();
                    return Ok(LineRead::Oversized);
                }
                None => {
                    let n = buf.len();
                    if self.buf.len() + n <= self.cap {
                        self.buf.extend_from_slice(buf);
                        reader.consume(n);
                    } else {
                        reader.consume(n);
                        self.buf.clear();
                        self.discarding = true;
                    }
                }
            }
        }
    }
}

/// Why [`read_requests`] stopped reading a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ended {
    /// End of stream, a broken connection, or the process draining.
    Closed,
    /// No complete line arrived within the idle timeout.
    Idle,
    /// The handler asked to stop: a `shutdown` request.
    Shutdown,
}

/// The framing loop: reads `reader` line by line (at most `cap` bytes a
/// line) and hands `handle` each request line, or the structured error for
/// a line that is not one — oversized (`too_large`) or not UTF-8
/// (`bad_request`), both with a `null` id. Blank lines are NDJSON
/// keep-alive noise and are skipped.
///
/// A TCP connection carries a short read timeout that turns its
/// blocking reads into polls: on each, the loop ends once `draining` is
/// set, or once no read has completed for `idle` (`Duration::ZERO` never
/// idles out). Only completed reads reset the idle clock, so a peer
/// trickling one byte per poll still idles out. Reading ends when `handle`
/// returns `true`.
pub fn read_requests(
    reader: &mut impl BufRead,
    cap: usize,
    idle: Duration,
    draining: &AtomicBool,
    mut handle: impl FnMut(Result<&str, Reject>) -> bool,
) -> Ended {
    let mut lines = LineReader::new(cap);
    let mut last_activity = Instant::now();
    loop {
        let read = match lines.next_line(reader) {
            Ok(r) => r,
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                if draining.load(Ordering::Relaxed) {
                    return Ended::Closed;
                }
                if idle > Duration::ZERO && last_activity.elapsed() >= idle {
                    return Ended::Idle;
                }
                continue;
            }
            Err(_) => return Ended::Closed, // connection died; nothing to answer
        };
        last_activity = Instant::now();
        let request = match &read {
            LineRead::Eof => return Ended::Closed,
            LineRead::Oversized => Err(Reject::new(Value::Null, ErrorCode::TooLarge, format!("request line exceeds {cap} bytes"))),
            LineRead::Line(bytes) => match std::str::from_utf8(bytes) {
                Err(_) => Err(Reject::new(Value::Null, ErrorCode::BadRequest, "request line is not valid UTF-8")),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => Ok(line),
            },
        };
        if handle(request) {
            return Ended::Shutdown;
        }
    }
}

/// Poll interval of a connection's reads: how soon an idle connection
/// notices a drain.
pub(crate) const READ_POLL: Duration = Duration::from_millis(100);

/// A cap on the connections [`accept_loop`] holds open at once. `open` is
/// the live handler count: raised by the acceptor itself (a handler raising
/// it would race the next accept past the cap) and lowered when the
/// handler returns.
pub struct ConnLimit {
    pub max: usize,
    pub open: Arc<Gauge>,
    /// Connections refused by the cap.
    pub rejected: Arc<Counter>,
}

/// Accepts connections until `draining` is set, each served on a thread of
/// its own by `serve(reader, sink)` with Nagle off (replies are small and
/// latency-bound) and a short read timeout. `serve` returns `true`
/// when its connection asked the process to shut down: the acceptor,
/// blocked in `accept`, is then woken by one self-connect, which it never
/// serves. A connection over `limit` is answered with one `shedding` line
/// and closed. Returns once every handler has finished.
pub fn accept_loop<F>(listener: &TcpListener, draining: &AtomicBool, limit: Option<&ConnLimit>, serve: F)
where
    F: Fn(&mut BufReader<TcpStream>, &Sink) -> bool + Send + Sync + 'static,
{
    let serve = Arc::new(serve);
    let mut handlers = Vec::new();
    for conn in listener.incoming() {
        if draining.load(Ordering::Relaxed) {
            break;
        }
        let Ok(mut stream) = conn else { continue }; // transient accept errors (e.g. ECONNABORTED)
        let _ = stream.set_nodelay(true);
        if let Some(limit) = limit {
            if limit.open.value() >= limit.max as i64 {
                limit.rejected.inc(1);
                let reject = Reject::new(Value::Null, ErrorCode::Shedding, format!("connection limit ({}) reached", limit.max));
                let _ = write_line(&mut stream, &error_line(&reject));
                continue; // dropping the stream closes it
            }
            limit.open.add(1);
        }
        let open = limit.map(|l| Arc::clone(&l.open));
        let serve = Arc::clone(&serve);
        handlers.push(std::thread::spawn(move || {
            serve_connection(stream, &*serve);
            if let Some(open) = open {
                open.add(-1);
            }
        }));
        handlers.retain(|h| !h.is_finished()); // reap finished handlers so the vec stays bounded
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn serve_connection(stream: TcpStream, serve: &dyn Fn(&mut BufReader<TcpStream>, &Sink) -> bool) {
    // The timeout turns blocking reads into a drain-flag poll; without it an
    // idle client would pin this thread (and the drain) forever.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else { return };
    let sink = Sink::new(write_half);
    let mut reader = BufReader::new(stream);
    if serve(&mut reader, &sink) {
        if let Ok(addr) = reader.get_ref().local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented retryability contract, written as its own exhaustive
    /// `match`: adding an `ErrorCode` variant fails to compile here (and in
    /// `retryable()` itself) until someone makes — and documents — an
    /// explicit retry decision for it. Coordinator failover is built on
    /// this mapping, so it must never change by accident or by default.
    #[test]
    fn every_error_code_has_an_explicit_retryable_mapping() {
        fn documented(code: ErrorCode) -> (bool, &'static str) {
            match code {
                ErrorCode::BadRequest => (false, "bad_request"),
                ErrorCode::TooLarge => (false, "too_large"),
                ErrorCode::Timeout => (true, "timeout"),
                ErrorCode::Shedding => (true, "shedding"),
                ErrorCode::Internal => (false, "internal"),
                ErrorCode::Conflict => (false, "conflict"),
            }
        }
        assert_eq!(ErrorCode::ALL.len(), 6, "ALL must enumerate every variant");
        for code in ErrorCode::ALL {
            let (retry, wire) = documented(code);
            assert_eq!(code.retryable(), retry, "{wire}: retryable() diverged from the documented contract");
            assert_eq!(code.as_str(), wire, "wire spelling diverged");
            assert_eq!(ErrorCode::parse_wire(wire), Some(code), "parse_wire must round-trip {wire}");
            // The serialized error line must agree with the enum, so wire
            // clients (the fleet coordinator) see the same contract.
            let line = error_line(&Reject::new(Value::Null, code, "x"));
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v.get("retryable").and_then(Value::as_bool), Some(retry), "{wire}");
            assert_eq!(v.get("code").and_then(Value::as_str), Some(wire));
        }
        for code in ["no_such_code", "", "reset"] {
            assert_eq!(ErrorCode::parse_wire(code), None, "{code}");
        }
    }

    #[test]
    fn error_line_shape() {
        let line = error_line(&Reject::new(Value::Null, ErrorCode::Shedding, "queue full"));
        assert_eq!(line, r#"{"id":null,"status":"shedding","code":"shedding","retryable":true,"message":"queue full"}"#);
        let line = error_line(&Reject::new(json!(7), ErrorCode::BadRequest, "nope"));
        assert_eq!(line, r#"{"id":7,"status":"error","code":"bad_request","retryable":false,"message":"nope"}"#);
    }

    fn lines_of(bytes: &[u8], cap: usize) -> Vec<String> {
        let mut reader = std::io::BufReader::new(bytes);
        let mut lr = LineReader::new(cap);
        let mut out = Vec::new();
        loop {
            match lr.next_line(&mut reader).unwrap() {
                LineRead::Eof => return out,
                LineRead::Oversized => out.push("<oversized>".into()),
                LineRead::Line(l) => out.push(String::from_utf8(l).unwrap()),
            }
        }
    }

    #[test]
    fn capped_line_reader_splits_lines() {
        assert_eq!(lines_of(b"one\ntwo\n", 100), ["one", "two"]);
    }

    #[test]
    fn capped_line_reader_returns_final_unterminated_fragment() {
        assert_eq!(lines_of(b"complete\ntruncat", 100), ["complete", "truncat"]);
    }

    #[test]
    fn capped_line_reader_discards_oversized_and_resyncs() {
        let mut input = vec![b'x'; 1000];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        assert_eq!(lines_of(&input, 10), ["<oversized>", "ok"]);
    }

    #[test]
    fn capped_line_reader_oversized_at_eof_without_newline() {
        assert_eq!(lines_of(&vec![b'y'; 1000], 10), ["<oversized>"]);
    }

    #[test]
    fn capped_line_reader_exact_cap_fits() {
        assert_eq!(lines_of(b"12345\n", 5), ["12345"]);
    }

    #[test]
    fn capped_line_reader_over_cap_by_one_is_oversized() {
        assert_eq!(lines_of(b"123456\nok\n", 5), ["<oversized>", "ok"]);
    }

    /// A timeout mid-line must not lose the partial prefix: simulate with a
    /// reader that errors between two chunks of one line.
    #[test]
    fn partial_line_survives_interrupted_read() {
        struct Interrupting {
            chunks: Vec<&'static [u8]>,
            next: usize,
            erred: bool,
        }
        impl std::io::Read for Interrupting {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.next == 1 && !self.erred {
                    self.erred = true;
                    return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "poll"));
                }
                if self.next >= self.chunks.len() {
                    return Ok(0);
                }
                let chunk = self.chunks[self.next];
                self.next += 1;
                buf[..chunk.len()].copy_from_slice(chunk);
                Ok(chunk.len())
            }
        }
        let mut reader = std::io::BufReader::new(Interrupting { chunks: vec![b"hel", b"lo\n"], next: 0, erred: false });
        let mut lr = LineReader::new(100);
        let first = lr.next_line(&mut reader);
        assert!(matches!(first, Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock), "{first:?}");
        let second = lr.next_line(&mut reader).unwrap();
        assert!(matches!(second, LineRead::Line(ref l) if l == b"hello"), "partial prefix must survive the interruption");
    }

    /// The framing loop hands over request lines, skips blank ones, turns
    /// oversized and non-UTF-8 lines into `null`-id errors, and stops when
    /// the handler asks it to.
    #[test]
    fn framing_loop_frames_requests_and_errors() {
        let input: &[u8] = b"one\n\n  \n\xff\xfe\n0123456789abc\ntwo\nstop\nnever\n";
        let mut seen = Vec::new();
        let ended = read_requests(&mut &input[..], 10, Duration::ZERO, &AtomicBool::new(false), |request| {
            let stop = request.as_ref().is_ok_and(|l| *l == "stop");
            seen.push(match request {
                Ok(line) => line.to_string(),
                Err(reject) => error_line(&reject),
            });
            stop
        });
        assert_eq!(ended, Ended::Shutdown);
        assert_eq!(
            seen,
            [
                "one",
                r#"{"id":null,"status":"error","code":"bad_request","retryable":false,"message":"request line is not valid UTF-8"}"#,
                r#"{"id":null,"status":"error","code":"too_large","retryable":false,"message":"request line exceeds 10 bytes"}"#,
                "two",
                "stop",
            ]
        );
        assert_eq!(read_requests(&mut &b"x\n"[..], 10, Duration::ZERO, &AtomicBool::new(false), |_| false), Ended::Closed);
    }
}
