//! The log of dictionary deltas since a base generation, and the durable
//! write-ahead log behind it.
//!
//! `aeetes serve --wal`, the fleet coordinator and `aeetes wal compact` all
//! log, restore and compact deltas through one [`DeltaLog`]. Delta `i`
//! takes generation `base + i` to `base + i + 1`; each is a delta body as
//! JSON, the payload of its [`Wal`] record. The log:
//!
//! * **restores** a log that survives on disk: the torn tail is truncated,
//!   every payload decoded, and the owner's replay run, timed into the
//!   recovery gauges;
//! * **starts** at a base generation when nothing was restored, creating
//!   the durable log there;
//! * **commits** a delta — in memory, then appended and fsynced — before
//!   its owner may acknowledge it, and latches *poisoned* on the first
//!   failed commit: durability can no longer be promised, so every later
//!   delta is refused while extraction carries on;
//! * **compacts**: the owner folds the deltas into a fresh artifact, then
//!   the durable log is reset to a bare header at the artifact's
//!   generation and becomes the new base.
//!
//! Only an owner that reads the deltas back — the fleet replays them to a
//! rejoining replica and compacts them, `aeetes wal compact` folds them —
//! keeps their bodies in memory ([`DeltaLog::new`]). `aeetes serve` reads
//! them only to replay on restore, so its log ([`DeltaLog::without_bodies`])
//! counts deltas and keeps none: a long-lived server holds no body per
//! reload.
//!
//! Every step is recorded in the [`WalMetrics`] the log holds.

use aeetes_core::{Wal, WalError, WalRecord};
use aeetes_obs::WalMetrics;
use serde_json::Value;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// The refusal of a delta once the log is poisoned.
const POISONED: &str = "write-ahead log failed on an earlier commit; reloads are disabled (extraction continues; restart with a healthy --wal path)";

/// The deltas since a base generation, made durable in a [`Wal`] when the
/// log has a path. Its owner serializes access (a mutex around it), which
/// also orders commits by generation.
pub struct DeltaLog {
    /// Where the durable log lives; `None` keeps the deltas in memory only.
    path: Option<PathBuf>,
    /// The open durable log, once restored or started.
    wal: Option<Wal>,
    /// The generation delta 0 applies to; `None` until restored or started.
    base: Option<u64>,
    /// How many deltas the log holds since the base.
    count: u64,
    /// Their bodies, in order, when the owner reads them back; `None` keeps
    /// none.
    bodies: Option<Vec<Value>>,
    /// Latched by a failed commit or reset.
    poisoned: bool,
    metrics: WalMetrics,
}

impl DeltaLog {
    /// A log that is neither restored nor started, recording into
    /// `metrics`, durable at `path` when one is given, and keeping every
    /// delta body for [`DeltaLog::deltas`] and [`DeltaLog::compact`].
    pub fn new(path: Option<PathBuf>, metrics: WalMetrics) -> DeltaLog {
        DeltaLog {
            path,
            wal: None,
            base: None,
            count: 0,
            bodies: Some(Vec::new()),
            poisoned: false,
            metrics,
        }
    }

    /// As [`DeltaLog::new`], but keeping no delta body once it is committed
    /// or replayed: for an owner that never reads the deltas back, whose
    /// [`DeltaLog::deltas`] stay empty and which cannot compact.
    pub fn without_bodies(path: Option<PathBuf>, metrics: WalMetrics) -> DeltaLog {
        DeltaLog { bodies: None, ..DeltaLog::new(path, metrics) }
    }

    /// Decodes one record's payload: the delta body, as JSON.
    pub fn decode(record: &WalRecord) -> Result<Value, String> {
        let text = std::str::from_utf8(&record.payload).map_err(|e| format!("generation {} record: payload is not UTF-8: {e}", record.generation))?;
        serde_json::from_str(text).map_err(|e| format!("generation {} record: payload is not JSON: {e}", record.generation))
    }

    /// Restores the durable log if its path holds one: the torn tail is
    /// truncated (it was never acknowledged), the log's base and deltas
    /// become this log's, and `replay(base, deltas)` brings the owner's
    /// state forward, returning how many deltas it applied. Returns whether
    /// a log was restored: a missing file, or the debris of a create that
    /// crashed before its header was whole, holds no committed delta and
    /// restores nothing. A corrupt log, an undecodable payload and a failed
    /// replay are errors.
    pub fn restore(&mut self, replay: impl FnOnce(u64, &[Value]) -> Result<u64, String>) -> Result<bool, String> {
        let Some(path) = &self.path else { return Ok(false) };
        let started = Instant::now();
        let (wal, recovered) = match Wal::open(path) {
            Ok(opened) => opened,
            Err(WalError::HeaderTorn) => return Ok(false),
            Err(WalError::Io(e)) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let in_path = |e: String| format!("{}: {e}", path.display());
        let deltas: Vec<Value> = recovered.records.iter().map(DeltaLog::decode).collect::<Result<_, _>>().map_err(in_path)?;
        let base = wal.base_generation();
        let replayed = replay(base, &deltas).map_err(in_path)?;
        let truncated = recovered.truncated_bytes;
        let m = &self.metrics;
        m.replayed_records.inc(replayed);
        m.truncated_bytes.inc(truncated);
        m.recovery_nanos
            .set(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX).min(i64::MAX as u64) as i64);
        wal.observe(m);
        if replayed > 0 || truncated > 0 {
            let generation = base + deltas.len() as u64;
            eprintln!(
                "{}: recovered to generation {generation} ({replayed} delta(s) replayed, {truncated} torn byte(s) truncated)",
                path.display()
            );
        }
        (self.wal, self.base, self.count) = (Some(wal), Some(base), deltas.len() as u64);
        if let Some(bodies) = &mut self.bodies {
            *bodies = deltas;
        }
        Ok(true)
    }

    /// Starts the log at `base` unless it was restored or started before,
    /// creating the durable log at its path. Returns whether it started now.
    pub fn start(&mut self, base: u64) -> Result<bool, String> {
        if self.base.is_some() {
            return Ok(false);
        }
        if let Some(path) = &self.path {
            let wal = Wal::create(path, base).map_err(|e| format!("{}: {e}", path.display()))?;
            wal.observe(&self.metrics);
            self.wal = Some(wal);
        }
        self.base = Some(base);
        Ok(true)
    }

    /// The generation delta 0 applies to (0 before the log is restored or
    /// started).
    pub fn base(&self) -> u64 {
        self.base.unwrap_or(0)
    }

    /// The deltas since the base, in order (none for a log
    /// [`DeltaLog::without_bodies`]).
    pub fn deltas(&self) -> &[Value] {
        self.bodies.as_deref().unwrap_or_default()
    }

    /// The generation the last delta takes the log to.
    pub fn generation(&self) -> u64 {
        self.base() + self.count
    }

    /// The refusal a delta gets once a failed commit or reset has poisoned
    /// the log; `None` while it is healthy.
    pub fn poisoned(&self) -> Option<&'static str> {
        self.poisoned.then_some(POISONED)
    }

    /// Records `delta` as the change to `generation`: in memory at once —
    /// the log follows what is served — then appended and fsynced, after
    /// which, and only after which, the owner may acknowledge it. A failure
    /// poisons the log: the delta stays applied, but a restart comes back
    /// without it.
    pub fn commit(&mut self, generation: u64, delta: Value) -> Result<(), String> {
        let committed = match &mut self.wal {
            None => Ok(()),
            Some(wal) => wal.commit(generation, delta.to_string().as_bytes(), &self.metrics).map_err(|e| {
                self.poisoned = true;
                format!("wal append for generation {generation} failed: {e}")
            }),
        };
        self.count += 1;
        if let Some(bodies) = &mut self.bodies {
            bodies.push(delta);
        }
        committed
    }

    /// Folds the log into a fresh artifact and starts over from it:
    /// `fold(deltas, base)` must write the artifact at
    /// [`DeltaLog::generation`] durably; then the durable log is reset to a
    /// bare header there, which becomes the base. A failed fold changes
    /// nothing. A failed reset poisons the log; recovery stays correct, as
    /// replay skips the records the artifact already holds. A log
    /// [`DeltaLog::without_bodies`] has nothing to fold and refuses.
    pub fn compact(&mut self, fold: impl FnOnce(&[Value], u64) -> Result<(), String>) -> Result<(), String> {
        let target = self.generation();
        let Some(bodies) = &self.bodies else {
            return Err("this delta log keeps no delta bodies to compact".into());
        };
        fold(bodies, self.base())?;
        if let Some(wal) = &mut self.wal {
            if let Err(e) = wal.reset(target) {
                self.poisoned = true;
                return Err(format!("{}: resetting after compaction: {e}", wal.path().display()));
            }
            wal.observe(&self.metrics);
        }
        self.bodies = Some(Vec::new());
        self.count = 0;
        self.base = Some(target);
        self.metrics.compactions.inc(1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeetes_obs::MetricRegistry;
    use serde_json::json;
    use std::path::Path;
    use std::sync::Arc;

    fn log_at(path: &Path) -> (DeltaLog, WalMetrics) {
        let registry = Arc::new(MetricRegistry::new());
        (DeltaLog::new(Some(path.to_path_buf()), WalMetrics::register(&registry)), WalMetrics::register(&registry))
    }

    fn tmp(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("aeetes-delta-log-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn commits_restore_and_compact_to_a_bare_header() {
        let path = tmp("cycle");
        let (mut log, _) = log_at(&path);
        assert!(!log.restore(|_, _| panic!("nothing to replay")).unwrap(), "a missing file restores nothing");
        assert!(log.start(4).unwrap());
        assert!(!log.start(9).unwrap(), "a started log keeps its base");
        log.commit(5, json!({"add_entities": ["a"]})).unwrap();
        log.commit(6, json!({"add_entities": ["b"]})).unwrap();

        let (mut log, metrics) = log_at(&path);
        assert!(log.restore(|base, deltas| Ok(base - 3 + deltas.len() as u64)).unwrap());
        assert_eq!((log.base(), log.generation()), (4, 6));
        assert_eq!(log.deltas()[1], json!({"add_entities": ["b"]}));
        assert_eq!(metrics.replayed_records.value(), 3, "the replay's own count is recorded");

        let mut folded = None;
        log.compact(|deltas, base| {
            folded = Some((deltas.len(), base));
            Ok(())
        })
        .unwrap();
        assert_eq!(folded, Some((2, 4)));
        assert_eq!((log.base(), log.deltas().len()), (6, 0));
        assert_eq!(metrics.bytes.value(), std::fs::metadata(&path).unwrap().len() as i64, "a reset log holds its header");
        assert_eq!(metrics.records.value(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_log_without_bodies_counts_generations_and_keeps_no_delta() {
        const N: u64 = 50;
        let path = tmp("bodiless");
        let registry = Arc::new(MetricRegistry::new());
        let mut kept = DeltaLog::new(None, WalMetrics::register(&registry));
        let mut bodiless = DeltaLog::without_bodies(Some(path.clone()), WalMetrics::register(&registry));
        for log in [&mut kept, &mut bodiless] {
            log.start(3).unwrap();
            for g in 4..4 + N {
                log.commit(g, json!({"add_entities": [format!("entity {g}")]})).unwrap();
            }
        }
        assert_eq!(kept.deltas().len() as u64, N);
        assert!(bodiless.deltas().is_empty() && bodiless.bodies.is_none(), "no body is retained");
        assert_eq!((bodiless.base(), bodiless.generation()), (kept.base(), kept.generation()));
        assert_eq!(bodiless.generation(), 3 + N);
        assert!(bodiless.compact(|_, _| Ok(())).is_err(), "nothing to fold");

        // Restored, it hands the replay every durable body and keeps none.
        let mut restored = DeltaLog::without_bodies(Some(path.clone()), WalMetrics::register(&registry));
        let mut replayed = 0;
        assert!(restored
            .restore(|_, deltas| {
                replayed = deltas.len();
                Ok(deltas.len() as u64)
            })
            .unwrap());
        assert_eq!((replayed as u64, restored.generation()), (N, 3 + N));
        assert!(restored.deltas().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_commit_poisons_and_a_failed_fold_changes_nothing() {
        let path = tmp("poison");
        let (mut log, metrics) = log_at(&path);
        log.start(1).unwrap();
        assert!(log.compact(|_, _| Err("no artifact".into())).is_err());
        assert_eq!((log.base(), log.poisoned()), (1, None), "a failed fold leaves the log as it was");
        assert!(log.commit(7, json!({})).is_err(), "out of sequence");
        assert!(log.poisoned().is_some_and(|refusal| refusal.contains("disabled")));
        assert_eq!(metrics.append_failures.value(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_debris_is_recreated_but_a_corrupt_header_fails() {
        let path = tmp("debris");
        std::fs::write(&path, b"AWAL").unwrap(); // a create that crashed mid-header
        let (mut log, _) = log_at(&path);
        assert!(!log.restore(|_, _| Ok(0)).unwrap(), "debris restores nothing");
        assert!(log.start(7).unwrap());
        assert_eq!(Wal::open(&path).unwrap().0.base_generation(), 7);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xFF; // inside the base generation, under the header CRC
        std::fs::write(&path, &bytes).unwrap();
        let err = log_at(&path).0.restore(|_, _| Ok(0)).unwrap_err();
        assert!(err.contains("corrupt"), "corruption must not be recreated: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_undecodable_payload_fails_the_restore() {
        let path = tmp("opaque");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(2, b"\xff").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let err = log_at(&path).0.restore(|_, _| Ok(0)).unwrap_err();
        assert!(err.contains("generation 2 record") && err.contains("not UTF-8"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
