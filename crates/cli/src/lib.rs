//! Library surface of the `aeetes` CLI (kept separate from `main` so the
//! subcommands are integration-testable).

pub mod args;
pub mod commands;
pub mod protocol;
pub mod serve;
pub mod session;
