//! Deterministic failpoint injection for the durability paths.
//!
//! The WAL and atomic-write code call `hit` at every write / fsync /
//! rename / read site. With the default feature set the call is a ZST
//! no-op that constant-folds to `None`; with `--features failpoints` a
//! process-wide registry (configurable programmatically via [`set`] /
//! [`configure`], or through the `AEETES_FAILPOINTS` environment variable
//! for spawned child processes) can force each site to:
//!
//! - return `EIO` ([`FailAction::Error`]),
//! - perform a short write of `n` bytes and then fail
//!   ([`FailAction::ShortWrite`]),
//! - or abort the process on the spot ([`FailAction::Crash`]), simulating
//!   a crash at exactly that point.
//!
//! The environment grammar is a semicolon-separated list of
//! `site=action` pairs, where `action` is `error`, `crash`, or `short:N`,
//! optionally suffixed `@K` to fire only on the K-th hit (1-based) of
//! that site: `wal.append.write=short:3;durable.rename.before=crash@2`.

/// What a triggered failpoint asks the call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Fail the operation with an I/O error (`EIO`-style).
    Error,
    /// Write only the first `n` bytes, then fail — a torn write.
    ShortWrite(usize),
    /// Abort the process immediately (simulated crash / power loss).
    Crash,
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::FailAction;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    struct Site {
        action: FailAction,
        /// Fire only on the `at`-th hit (1-based); 0 = every hit.
        at: u64,
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Site>> {
        static REG: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
        REG.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(spec) = std::env::var("AEETES_FAILPOINTS") {
                // A malformed env spec in a chaos harness should fail loudly,
                // not silently disable the fault it meant to inject.
                if let Err(e) = parse_into(&spec, &mut map) {
                    eprintln!("AEETES_FAILPOINTS: {e}");
                    std::process::exit(3);
                }
            }
            Mutex::new(map)
        })
    }

    fn parse_action(s: &str) -> Result<FailAction, String> {
        if s == "error" {
            Ok(FailAction::Error)
        } else if s == "crash" {
            Ok(FailAction::Crash)
        } else if let Some(n) = s.strip_prefix("short:") {
            n.parse::<usize>()
                .map(FailAction::ShortWrite)
                .map_err(|_| format!("bad short-write length in {s:?}"))
        } else {
            Err(format!("unknown failpoint action {s:?} (want error, crash, or short:N)"))
        }
    }

    fn parse_into(spec: &str, map: &mut HashMap<String, Site>) -> Result<(), String> {
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (site, rest) = part.split_once('=').ok_or_else(|| format!("missing `=` in failpoint {part:?}"))?;
            let (action, at) = match rest.split_once('@') {
                Some((a, k)) => (a, k.parse::<u64>().map_err(|_| format!("bad hit index in {part:?}"))?),
                None => (rest, 0),
            };
            map.insert(site.trim().to_string(), Site { action: parse_action(action.trim())?, at, hits: 0 });
        }
        Ok(())
    }

    /// Configures one site programmatically. `at` = `Some(k)` fires only on
    /// the k-th hit (1-based); `None` fires on every hit.
    pub fn set(site: &str, action: FailAction, at: Option<u64>) {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.insert(site.to_string(), Site { action, at: at.unwrap_or(0), hits: 0 });
    }

    /// Parses and installs a semicolon-separated `site=action` spec (the
    /// same grammar as `AEETES_FAILPOINTS`).
    pub fn configure(spec: &str) -> Result<(), String> {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        let mut staged = HashMap::new();
        parse_into(spec, &mut staged)?;
        reg.extend(staged);
        Ok(())
    }

    /// Removes every configured failpoint.
    pub fn clear() {
        registry().lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Called by instrumented sites. Counts the hit and returns the action
    /// to apply, if the site is armed and due. [`FailAction::Crash`] aborts
    /// here rather than returning, so call sites can't soften it.
    pub(crate) fn hit(site: &str) -> Option<FailAction> {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        let s = reg.get_mut(site)?;
        s.hits += 1;
        if s.at != 0 && s.hits != s.at {
            return None;
        }
        if s.action == FailAction::Crash {
            // `abort`, not `exit`: no atexit hooks, no buffered flushes —
            // the closest in-process stand-in for power loss.
            std::process::abort();
        }
        Some(s.action)
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::FailAction;

    /// No-op stub: with the feature off every hook folds to `None`.
    #[inline(always)]
    pub(crate) fn hit(_site: &str) -> Option<FailAction> {
        None
    }

    /// No-op stub.
    #[inline(always)]
    pub fn set(_site: &str, _action: FailAction, _at: Option<u64>) {}

    /// No-op stub; always succeeds.
    #[inline(always)]
    pub fn configure(_spec: &str) -> Result<(), String> {
        Ok(())
    }

    /// No-op stub.
    #[inline(always)]
    pub fn clear() {}
}

pub(crate) use imp::hit;
pub use imp::{clear, configure, set};

/// Maps a triggered failpoint to an `io::Error` for non-write sites
/// (fsync, rename, read), aborting on [`FailAction::Crash`].
pub(crate) fn io_site(site: &str) -> std::io::Result<()> {
    match hit(site) {
        None => Ok(()),
        // A short write makes no sense at a non-write site; treat as EIO.
        Some(FailAction::Error) | Some(FailAction::ShortWrite(_)) => Err(std::io::Error::other(format!("failpoint {site}: injected I/O error"))),
        // `hit` aborts on Crash before returning; unreachable, but keep
        // the arm so the match stays exhaustive if that ever changes.
        Some(FailAction::Crash) => std::process::abort(),
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn configure_set_and_hit() {
        clear();
        configure("t.a=error;t.b=short:5@2").unwrap();
        assert_eq!(hit("t.a"), Some(FailAction::Error));
        assert_eq!(hit("t.a"), Some(FailAction::Error), "no @k means every hit");
        assert_eq!(hit("t.b"), None, "first hit skipped");
        assert_eq!(hit("t.b"), Some(FailAction::ShortWrite(5)), "second hit fires");
        assert_eq!(hit("t.b"), None, "later hits skipped");
        assert_eq!(hit("t.unset"), None);
        clear();
        assert_eq!(hit("t.a"), None);
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(configure("nosign").is_err());
        assert!(configure("s=bogus").is_err());
        assert!(configure("s=short:x").is_err());
        assert!(configure("s=error@x").is_err());
    }
}
