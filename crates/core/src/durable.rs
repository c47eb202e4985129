//! Crash-safe file primitives: fsync-correct atomic replace and directory
//! syncing, shared by the engine-artifact save path and the WAL.
//!
//! A bare `write` + `rename` is atomic against concurrent readers but not
//! against power loss: the rename can become durable before the file data,
//! leaving a complete-looking path with garbage (or zero-length) contents,
//! and the rename itself lives in the directory, which has its own page
//! cache. [`atomic_replace`] therefore (1) writes to a same-directory temp
//! file, (2) `sync_all`s it, (3) renames over the target, and (4) fsyncs
//! the parent directory — the sequence after which either the old or the
//! complete new contents survive any crash point.
//!
//! Every step carries a [`crate::failpoint`] hook (`durable.write`,
//! `durable.sync_file`, `durable.rename.before`, `durable.rename.after`,
//! `durable.sync_dir`) so the recovery suites can force torn writes, EIO,
//! and crash-at-rename deterministically.

use crate::failpoint::{self, FailAction};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Writes `buf` to `file`, honoring a `ShortWrite`/`Error` failpoint armed
/// on `site` (a short write persists its prefix, then fails — exactly the
/// artifact a crash mid-write leaves behind).
pub(crate) fn write_all_at_site(file: &mut File, buf: &[u8], site: &str) -> io::Result<()> {
    match failpoint::hit(site) {
        None => file.write_all(buf),
        Some(FailAction::ShortWrite(n)) => {
            let n = n.min(buf.len());
            file.write_all(&buf[..n])?;
            Err(io::Error::other(format!("failpoint {site}: short write of {n}/{} bytes", buf.len())))
        }
        Some(FailAction::Error) => Err(io::Error::other(format!("failpoint {site}: injected I/O error"))),
        Some(FailAction::Crash) => std::process::abort(),
    }
}

/// Fsyncs a directory so a rename or file creation inside it is durable.
/// Directories open read-only on every Unix; on platforms where that
/// fails the error propagates rather than silently skipping the sync.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    failpoint::io_site("durable.sync_dir")?;
    File::open(dir)?.sync_all()
}

/// The parent directory of `path`, defaulting to `.` for bare file names.
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Atomically and durably replaces `path` with `bytes`: temp file in the
/// same directory, `sync_all`, rename over the target, parent-directory
/// fsync. After this returns, the new contents survive power loss; if it
/// fails or the process dies mid-way, the previous contents (or absence)
/// of `path` are untouched.
pub fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = parent_dir(path);
    let tmp = {
        let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_else(|| "artifact".into());
        name.push(format!(".tmp.{}", std::process::id()));
        dir.join(name)
    };
    let result = (|| {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        write_all_at_site(&mut f, bytes, "durable.write")?;
        failpoint::io_site("durable.sync_file")?;
        f.sync_all()?;
        drop(f);
        failpoint::io_site("durable.rename.before")?;
        fs::rename(&tmp, path)?;
        failpoint::io_site("durable.rename.after")?;
        fsync_dir(&dir)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("aeetes-durable-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn replace_creates_and_overwrites() {
        let path = tmp_path("basic");
        atomic_replace(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_replace(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        fs::remove_file(&path).unwrap();
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_faults_leave_target_intact() {
        let path = tmp_path("faults");
        atomic_replace(&path, b"stable").unwrap();
        for (site, action) in [
            ("durable.write", FailAction::Error),
            ("durable.write", FailAction::ShortWrite(2)),
            ("durable.sync_file", FailAction::Error),
            ("durable.rename.before", FailAction::Error),
        ] {
            failpoint::clear();
            failpoint::set(site, action, None);
            let err = atomic_replace(&path, b"replacement").unwrap_err();
            assert!(err.to_string().contains("failpoint"), "{site}: {err}");
            assert_eq!(fs::read(&path).unwrap(), b"stable", "target damaged by {site}");
            // The temp file must not linger either.
            let dir = path.parent().unwrap();
            let leftovers = fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(&*path.file_name().unwrap().to_string_lossy()))
                .count();
            assert_eq!(leftovers, 1, "{site} leaked a temp file");
        }
        failpoint::clear();
        atomic_replace(&path, b"replacement").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"replacement");
        fs::remove_file(&path).unwrap();
    }
}
