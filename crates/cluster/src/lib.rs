//! Fault-tolerant coordination over a replicated fleet of `aeetes serve`
//! processes.
//!
//! The coordinator ([`run_fleet`]) speaks the same NDJSON protocol as a
//! single `aeetes serve` — clients do not change — and in front of N
//! replicas adds:
//!
//! - **load balancing**: extract requests round-robin over the routable
//!   (up, non-draining) replicas;
//! - **failover**: retryable failures (shedding, timeout, connection
//!   reset) retry on a *different* replica with capped exponential
//!   backoff and deterministic jitter ([`Backoff`]);
//! - **exactly-once answers**: every admitted request is answered exactly
//!   once — forwarded response, retry exhaustion, deadline expiry, or the
//!   drain sweep — enforced by the [`PendingTable`] ledger, with
//!   at-most-once extraction per replica as a corollary of its `tried`
//!   list;
//! - **fleet-wide reloads**: a client `reload` ships the dictionary delta
//!   two-phase (prepare everywhere, then activate), so the fleet never
//!   serves a mixed set of generations; replicas that die mid-swap are
//!   resynced from the coordinator's delta log when they rejoin;
//! - **supervision**: spawned replicas are respawned when they die,
//!   remote replicas are re-dialed, and hung replicas are detected by
//!   health-probe timeouts and cut loose;
//! - **durable deltas** ([`FleetOptions::wal`]): activated deltas are
//!   appended to a write-ahead log and fsynced before the client's ack, a
//!   restarted coordinator restores its generation math and resync log
//!   from disk, and a [`Compactor`] folds a grown log into a fresh engine
//!   artifact so both the log and the in-memory delta list stay bounded.
//!
//! The crate intentionally does not depend on `aeetes-cli`: it speaks the
//! wire protocol directly (the CLI depends on this crate for the `fleet`
//! subcommand, so the dependency can only point this way). The one piece
//! of protocol knowledge duplicated here is [`retryable_code`]; a test on
//! the CLI side pins it against `protocol::ErrorCode::retryable` so the
//! two can never drift silently.

mod backoff;
mod coordinator;
mod pending;
mod replica;

pub use backoff::Backoff;
pub use coordinator::{run_fleet, Compactor, FleetOptions, FleetSummary};
pub use pending::{FailOutcome, PendingTable};
pub use replica::{Replica, ReplicaSpec};

/// Whether an error code on the wire marks a failed attempt as safe to
/// retry on another replica. Mirrors `ErrorCode::retryable` in the CLI's
/// protocol module (pinned by a cross-crate test there): `timeout` and
/// `shedding` are transient per-replica conditions; everything else would
/// fail identically anywhere.
pub fn retryable_code(code: &str) -> bool {
    matches!(code, "timeout" | "shedding")
}

/// Writes one NDJSON line — `line` plus its terminating newline — with a
/// single `write_all`, then flushes. One write, not two: on a socket with
/// Nagle's algorithm on, a separate one-byte `\n` write is held back until
/// the peer's delayed ACK of the line before it, a ~40 ms stall per reply.
pub fn write_line<W: std::io::Write + ?Sized>(w: &mut W, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)?;
    w.flush()
}

/// Outcome of reading one protocol line from a connection
/// ([`LineReader::next_line`]).
#[derive(Debug)]
pub enum LineRead {
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
pub struct LineReader {
    cap: usize,
    buf: Vec<u8>,
    /// Inside an over-cap line, discarding bytes until the next newline.
    discarding: bool,
}

impl LineReader {
    /// A reader that never buffers more than `cap` bytes of one line.
    pub fn new(cap: usize) -> Self {
        LineReader { cap, buf: Vec::new(), discarding: false }
    }

    /// Reads the next line. A final unterminated fragment (truncated line
    /// before EOF) is returned as a line so it still gets a (likely
    /// `bad_request`) response. `Err(TimedOut | WouldBlock)` is resumable.
    pub fn next_line(&mut self, reader: &mut impl std::io::BufRead) -> std::io::Result<LineRead> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_codes_are_exactly_timeout_and_shedding() {
        assert!(retryable_code("timeout"));
        assert!(retryable_code("shedding"));
        for code in ["bad_request", "too_large", "internal", "conflict", "", "reset"] {
            assert!(!retryable_code(code), "{code} must not be retried");
        }
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
}
