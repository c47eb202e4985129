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
}
