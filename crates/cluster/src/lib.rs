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
//!   backoff and deterministic jitter;
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
//!   That log is a [`DeltaLog`], the one `aeetes serve --wal` and `aeetes
//!   wal compact` keep too.
//!
//! The crate intentionally does not depend on `aeetes-cli`: it speaks the
//! wire protocol directly (the CLI depends on this crate for the `fleet`
//! subcommand, so the dependency can only point this way). What both sides
//! of that wire share lives here, once: the error vocabulary
//! ([`ErrorCode`], [`Reject`], [`error_line`]), the framing loop
//! ([`read_requests`]), the accept loop ([`accept_loop`]) and the [`Sink`]
//! every answer is written through. `aeetes serve` runs on the same
//! functions, and `aeetes_cli::protocol` re-exports the vocabulary.

mod backoff;
mod coordinator;
mod delta_log;
mod pending;
mod replica;
mod wire;

pub use coordinator::{run_fleet, Compactor, FleetOptions, FleetSummary};
pub use delta_log::DeltaLog;
pub use pending::{FailOutcome, PendingTable};
pub use replica::ReplicaSpec;
pub use wire::{accept_loop, error_line, metrics_value, read_requests, ConnLimit, Ended, ErrorCode, Reject, Sink};
