//! Fault-injection coverage for the durability layer, driven through the
//! `failpoints` feature: every write / fsync / rename / read site can be
//! forced to fail or tear, and the WAL / atomic-replace invariants must
//! hold at each one. Crash (`abort`) actions are exercised from the CLI's
//! child-process recovery suite; this file covers the error and
//! short-write actions in-process.
//!
//! The failpoint registry is process-wide, so every test takes the same
//! lock and clears the registry on entry and exit.

#![cfg(feature = "failpoints")]

use aeetes_core::failpoint::{self, FailAction};
use aeetes_core::{atomic_replace, Wal, WalError};
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner());
    failpoint::clear();
    guard
}

fn tmp_path(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("aeetes-fp-{tag}-{}-{n}", std::process::id()))
}

/// A failed append rolls the file back to the committed prefix: the log
/// stays appendable and a replay never sees the aborted record.
#[test]
fn append_write_error_rolls_back_and_log_stays_appendable() {
    let _g = serial();
    let path = tmp_path("append-eio");
    let mut wal = Wal::create(&path, 0).unwrap();
    wal.append(1, b"committed").unwrap();
    wal.sync().unwrap();
    let committed = wal.len_bytes();

    failpoint::set("wal.append.write", FailAction::Error, None);
    assert!(matches!(wal.append(2, b"doomed"), Err(WalError::Io(_))));
    failpoint::clear();

    assert_eq!(wal.len_bytes(), committed, "failed append must not advance the committed length");
    assert_eq!(wal.last_generation(), 1);
    wal.append(2, b"retry").unwrap();
    wal.sync().unwrap();
    drop(wal);

    let (_, replay) = Wal::open(&path).unwrap();
    let got: Vec<(u64, Vec<u8>)> = replay.records.iter().map(|r| (r.generation, r.payload.clone())).collect();
    assert_eq!(got, vec![(1, b"committed".to_vec()), (2, b"retry".to_vec())]);
    fs::remove_file(&path).unwrap();
}

/// A short (torn) append is erased on the spot; if the rollback itself
/// were to fail the log marks itself broken — here rollback succeeds, so
/// replay after the tear sees only the committed prefix.
#[test]
fn short_append_write_is_erased_not_replayed() {
    let _g = serial();
    let path = tmp_path("append-short");
    let mut wal = Wal::create(&path, 5).unwrap();
    wal.append(6, b"keep-me").unwrap();
    wal.sync().unwrap();
    let committed = wal.len_bytes();

    for torn_len in [0, 1, 7, 15] {
        failpoint::set("wal.append.write", FailAction::ShortWrite(torn_len), None);
        assert!(wal.append(7, b"torn-payload-torn-payload").is_err(), "short:{torn_len} must fail the append");
        failpoint::clear();
        assert_eq!(fs::metadata(&path).unwrap().len(), committed, "short:{torn_len} debris must be truncated away");
    }

    wal.append(7, b"after-tears").unwrap();
    wal.sync().unwrap();
    drop(wal);
    let (_, replay) = Wal::open(&path).unwrap();
    let gens: Vec<u64> = replay.records.iter().map(|r| r.generation).collect();
    assert_eq!(gens, vec![6, 7]);
    fs::remove_file(&path).unwrap();
}

/// A failed fsync surfaces to the caller (who must then *not* ack). The
/// record bytes may or may not be durable — either is correct, because
/// nothing was acknowledged — and the log keeps working once fsync heals.
#[test]
fn sync_failure_is_surfaced_and_recoverable() {
    let _g = serial();
    let path = tmp_path("sync-eio");
    let mut wal = Wal::create(&path, 0).unwrap();
    wal.append(1, b"x").unwrap();
    failpoint::set("wal.append.sync", FailAction::Error, None);
    assert!(matches!(wal.sync(), Err(WalError::Io(_))));
    failpoint::clear();
    wal.sync().unwrap();
    drop(wal);
    let (_, replay) = Wal::open(&path).unwrap();
    assert_eq!(replay.records.len(), 1);
    fs::remove_file(&path).unwrap();
}

/// Create failures (header write or its fsync) are reported and leave no
/// record behind: the debris is a torn create (the write failed) or an
/// empty log (its fsync failed), and the log is recreated cleanly once the
/// fault clears.
#[test]
fn create_failures_leave_recreatable_debris() {
    let _g = serial();
    for site in ["wal.create.write", "wal.create.sync"] {
        let path = tmp_path("create-eio");
        failpoint::set(site, FailAction::Error, None);
        assert!(Wal::create(&path, 3).is_err(), "{site} must fail the create");
        failpoint::clear();
        match Wal::open(&path) {
            Err(WalError::HeaderTorn) => {}
            Ok((_, replay)) => assert!(replay.records.is_empty(), "{site}: a failed create holds no record"),
            Err(e) => panic!("{site}: the debris must be a torn create or an empty log, not {e}"),
        }
        let wal = Wal::create(&path, 3).unwrap();
        assert_eq!(wal.base_generation(), 3, "{site}: recreate must succeed after the fault clears");
        fs::remove_file(&path).unwrap();
    }
}

/// A torn header write (short write mid-header) is exactly the
/// `HeaderTorn` case a delta log recreates.
#[test]
fn torn_header_write_is_recreated() {
    let _g = serial();
    let path = tmp_path("create-short");
    failpoint::set("wal.create.write", FailAction::ShortWrite(7), None);
    assert!(Wal::create(&path, 9).is_err());
    failpoint::clear();
    assert_eq!(fs::metadata(&path).unwrap().len(), 7, "exactly the short prefix must be on disk");
    assert!(matches!(Wal::open(&path), Err(WalError::HeaderTorn)));
    let wal = Wal::create(&path, 9).unwrap();
    assert_eq!(wal.base_generation(), 9);
    fs::remove_file(&path).unwrap();
}

/// Read failure during open surfaces as an I/O error, never a panic.
#[test]
fn open_read_error_is_an_error() {
    let _g = serial();
    let path = tmp_path("open-eio");
    let mut wal = Wal::create(&path, 0).unwrap();
    wal.append(1, b"x").unwrap();
    wal.sync().unwrap();
    drop(wal);
    failpoint::set("wal.open.read", FailAction::Error, None);
    assert!(matches!(Wal::open(&path), Err(WalError::Io(_))));
    failpoint::clear();
    assert!(Wal::open(&path).is_ok());
    fs::remove_file(&path).unwrap();
}

/// `atomic_replace` failures at every pre-rename site leave the target
/// byte-identical; only a completed rename exposes the new content.
#[test]
fn atomic_replace_failures_never_damage_the_target() {
    let _g = serial();
    let dir = tmp_path("ar");
    fs::create_dir_all(&dir).unwrap();
    let target = dir.join("engine.bin");
    fs::write(&target, b"old-content").unwrap();

    for (site, action) in [
        ("durable.write", FailAction::Error),
        ("durable.write", FailAction::ShortWrite(3)),
        ("durable.sync_file", FailAction::Error),
        ("durable.rename.before", FailAction::Error),
    ] {
        failpoint::set(site, action, None);
        assert!(atomic_replace(&target, b"new-content").is_err(), "{site} {action:?} must fail the replace");
        failpoint::clear();
        assert_eq!(fs::read(&target).unwrap(), b"old-content", "{site} {action:?} must leave the target untouched");
    }

    // Failure *after* the rename means the data is already in place; the
    // caller sees an error (directory entry durability is unproven) but
    // the content is the new one — the "either old or new, never neither"
    // contract.
    failpoint::set("durable.rename.after", FailAction::Error, None);
    assert!(atomic_replace(&target, b"new-content").is_err());
    failpoint::clear();
    assert_eq!(fs::read(&target).unwrap(), b"new-content");

    fs::remove_dir_all(&dir).unwrap();
}

/// `Wal::reset` (compaction) rides on `atomic_replace`: a failed reset
/// leaves the old log fully intact and appendable.
#[test]
fn failed_reset_preserves_the_old_log() {
    let _g = serial();
    let path = tmp_path("reset-eio");
    let mut wal = Wal::create(&path, 0).unwrap();
    for g in 1..=3 {
        wal.append(g, format!("d{g}").as_bytes()).unwrap();
    }
    wal.sync().unwrap();

    failpoint::set("durable.rename.before", FailAction::Error, None);
    assert!(wal.reset(3).is_err());
    failpoint::clear();
    drop(wal);

    let (mut wal, replay) = Wal::open(&path).unwrap();
    assert_eq!(replay.records.len(), 3, "failed compaction must not lose the log");
    wal.append(4, b"still-appendable").unwrap();
    wal.sync().unwrap();
    drop(wal);
    fs::remove_file(&path).unwrap();
}

/// The `@K` hit-count selector works end-to-end: only the K-th append
/// fails, everything before and after commits.
#[test]
fn hit_count_selector_targets_one_append() {
    let _g = serial();
    let path = tmp_path("at-k");
    let mut wal = Wal::create(&path, 0).unwrap();
    failpoint::set("wal.append.write", FailAction::Error, Some(2));
    wal.append(1, b"first").unwrap();
    assert!(wal.append(2, b"second").is_err(), "second append hits @2");
    wal.append(2, b"second-retry").unwrap();
    wal.sync().unwrap();
    failpoint::clear();
    drop(wal);
    let (_, replay) = Wal::open(&path).unwrap();
    let got: Vec<Vec<u8>> = replay.records.iter().map(|r| r.payload.clone()).collect();
    assert_eq!(got, vec![b"first".to_vec(), b"second-retry".to_vec()]);
    fs::remove_file(&path).unwrap();
}
