//! Write-ahead log for dictionary deltas.
//!
//! Serving nodes and the fleet coordinator append each accepted delta here
//! *before* acknowledging it, then replay the log over the last engine
//! snapshot on restart to rebuild the exact pre-crash generation. The
//! payloads are opaque bytes to this layer (the callers store canonical
//! JSON delta bodies), so `aeetes-core` stays ignorant of the delta schema.
//!
//! ## On-disk format
//!
//! ```text
//! header  (20 bytes): magic "AWAL" | version u32 = 1 | base_generation u64
//!                     | CRC-32 of the preceding 16 bytes
//! record  (16+n):     payload-len u32 | generation u64
//!                     | CRC-32 of the payload | payload bytes
//! ```
//!
//! Everything is little-endian. Record `i` (0-based) must carry generation
//! `base + i + 1`: applying it takes the engine from generation `base + i`
//! to `base + i + 1`, and the monotonic check turns any out-of-sequence
//! record into a detected corruption instead of a silently wrong replay.
//!
//! ## Durability contract
//!
//! [`Wal::append`] writes the record; [`Wal::sync`] makes every appended
//! record durable (`File::sync_all`). Callers acknowledge a delta only
//! after `sync` returns, so at any crash point the set of *acknowledged*
//! deltas is a prefix of the fully-written records. [`Wal::create`] and
//! [`Wal::reset`] additionally fsync the parent directory, making the
//! log's existence (and compacted replacement) itself durable.
//!
//! ## Torn-tail recovery
//!
//! [`Wal::open`] scans records from the front and stops at the first
//! invalid one — incomplete header, implausible length, short payload, CRC
//! mismatch, or out-of-sequence generation — then truncates the file back
//! to the end of the last valid record. Because acknowledgement implies
//! fsync of the whole preceding log, everything at or after the first
//! invalid record is necessarily unacknowledged, so dropping it never
//! loses an acked delta; the byte count removed is reported in
//! [`WalReplay::truncated_bytes`] for the caller to log.

use crate::durable::{fsync_dir, write_all_at_site};
use crate::failpoint;
use crate::persist::crc32;
use aeetes_obs::WalMetrics;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

const WAL_MAGIC: &[u8; 4] = b"AWAL";
const WAL_VERSION: u32 = 1;
const HEADER_LEN: u64 = 20;
const RECORD_HEADER_LEN: usize = 16;
/// Sanity cap on one record's payload; a length field above this is treated
/// as tail garbage, bounding allocations during replay of a damaged log.
const MAX_WAL_PAYLOAD: u32 = 1 << 30;

/// Errors raised by WAL operations.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure (open, read, write, fsync, rename).
    Io(io::Error),
    /// The file does not start with the `AWAL` magic.
    BadMagic,
    /// The header names a format version this library doesn't understand.
    UnsupportedVersion(u32),
    /// The file is shorter than a complete header. A header is written and
    /// fsynced before any record, so this can only be the debris of a
    /// crashed `create`: nothing in it was ever acknowledged, so the
    /// caller may create the log afresh.
    HeaderTorn,
    /// The header is present but fails its CRC or is otherwise inconsistent.
    Corrupt(String),
    /// An append would break the monotonic generation sequence.
    NonMonotonic {
        /// The generation the log requires next (`last + 1`).
        expected: u64,
        /// The generation the caller tried to append.
        got: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::BadMagic => write!(f, "not an Aeetes WAL file (bad magic)"),
            WalError::UnsupportedVersion(v) => write!(f, "unsupported wal format version {v}"),
            WalError::HeaderTorn => write!(f, "wal file is shorter than its header (torn create)"),
            WalError::Corrupt(msg) => write!(f, "corrupt wal file: {msg}"),
            WalError::NonMonotonic { expected, got } => {
                write!(f, "wal append out of sequence: expected generation {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One committed record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The generation this delta produces when applied.
    pub generation: u64,
    /// The caller-defined delta payload.
    pub payload: Vec<u8>,
}

/// The result of replaying a log: the longest committed record prefix plus
/// how much tail debris (if any) was truncated away.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Committed records in append order; record `i` carries generation
    /// `base + i + 1`.
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt tail removed during recovery (0 on a clean
    /// log). Anything removed was never acknowledged.
    pub truncated_bytes: u64,
}

/// An open write-ahead log positioned for appending.
pub struct Wal {
    file: File,
    path: PathBuf,
    base: u64,
    last: u64,
    records: u64,
    /// Committed file length: header plus every fully-appended record.
    len: u64,
    /// Set when an append failed *and* the torn tail could not be erased;
    /// the log refuses further appends rather than bury a new record
    /// behind garbage where replay would never find it.
    broken: bool,
}

fn header_bytes(base: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..4].copy_from_slice(WAL_MAGIC);
    h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&base.to_le_bytes());
    let crc = crc32(&h[..16]);
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    h
}

impl Wal {
    /// Creates a fresh log at `path` (truncating any existing file) whose
    /// replay starts from engine generation `base`. The header is written,
    /// the file fsynced, and the parent directory fsynced before this
    /// returns, so a created log survives power loss.
    pub fn create(path: &Path, base: u64) -> Result<Wal, WalError> {
        let mut file = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        write_all_at_site(&mut file, &header_bytes(base), "wal.create.write")?;
        failpoint::io_site("wal.create.sync")?;
        file.sync_all()?;
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fsync_dir(dir)?;
        } else {
            fsync_dir(Path::new("."))?;
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            base,
            last: base,
            records: 0,
            len: HEADER_LEN,
            broken: false,
        })
    }

    /// Opens an existing log, recovers the longest committed record prefix
    /// (truncating any torn tail back to it), and returns the log
    /// positioned for appending plus the recovered records.
    pub fn open(path: &Path) -> Result<(Wal, WalReplay), WalError> {
        failpoint::io_site("wal.open.read")?;
        let bytes = fs::read(path)?;
        if bytes.len() < HEADER_LEN as usize {
            return Err(WalError::HeaderTorn);
        }
        if &bytes[..4] != WAL_MAGIC {
            return Err(WalError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != WAL_VERSION {
            return Err(WalError::UnsupportedVersion(version));
        }
        let expected = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let actual = crc32(&bytes[..16]);
        if expected != actual {
            return Err(WalError::Corrupt(format!("header checksum mismatch (expected {expected:#010x}, got {actual:#010x})")));
        }
        let base = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));

        let mut replay = WalReplay::default();
        let mut pos = HEADER_LEN as usize;
        let mut last = base;
        loop {
            let rest = &bytes[pos..];
            if rest.len() < RECORD_HEADER_LEN {
                break; // incomplete record header: torn tail (or clean EOF)
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            if len > MAX_WAL_PAYLOAD {
                break; // implausible length: tail garbage
            }
            let len = len as usize;
            if rest.len() - RECORD_HEADER_LEN < len {
                break; // payload runs past EOF: torn tail
            }
            let generation = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
            let crc = u32::from_le_bytes(rest[12..16].try_into().expect("4 bytes"));
            let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
            if crc32(payload) != crc {
                break; // damaged record
            }
            if generation != last + 1 {
                break; // out-of-sequence: not a record we ever acked here
            }
            replay.records.push(WalRecord { generation, payload: payload.to_vec() });
            last = generation;
            pos += RECORD_HEADER_LEN + len;
        }

        let committed = pos as u64;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if (bytes.len() as u64) > committed {
            replay.truncated_bytes = bytes.len() as u64 - committed;
            file.set_len(committed)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let records = replay.records.len() as u64;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                base,
                last,
                records,
                len: committed,
                broken: false,
            },
            replay,
        ))
    }

    /// Appends one record without syncing. `generation` must be exactly
    /// `last_generation() + 1`. On a write failure the torn tail is erased
    /// (so the log stays appendable); if even that fails the log marks
    /// itself broken and refuses further appends.
    pub fn append(&mut self, generation: u64, payload: &[u8]) -> Result<(), WalError> {
        if self.broken {
            return Err(WalError::Corrupt("wal is broken after a failed append".into()));
        }
        if generation != self.last + 1 {
            return Err(WalError::NonMonotonic { expected: self.last + 1, got: generation });
        }
        if payload.len() as u64 > u64::from(MAX_WAL_PAYLOAD) {
            return Err(WalError::Corrupt(format!("payload of {} bytes exceeds the wal record cap", payload.len())));
        }
        let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&generation.to_le_bytes());
        rec.extend_from_slice(&crc32(payload).to_le_bytes());
        rec.extend_from_slice(payload);
        if let Err(e) = write_all_at_site(&mut self.file, &rec, "wal.append.write") {
            // Roll the file back to the committed prefix so the next append
            // (or replay) doesn't trip over a half-written record.
            if self.file.set_len(self.len).is_err() || self.file.seek(SeekFrom::End(0)).is_err() {
                self.broken = true;
            }
            return Err(e.into());
        }
        self.len += rec.len() as u64;
        self.last = generation;
        self.records += 1;
        Ok(())
    }

    /// Makes every appended record durable. Callers must not acknowledge a
    /// delta before this returns for it.
    pub fn sync(&mut self) -> Result<(), WalError> {
        failpoint::io_site("wal.append.sync")?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Appends one record and makes it durable — the commit a caller may
    /// acknowledge after — and counts it in `metrics`: the fsync latency,
    /// the append, its bytes and the log's new size; or the failure.
    pub fn commit(&mut self, generation: u64, payload: &[u8], metrics: &WalMetrics) -> Result<(), WalError> {
        let result = self.append(generation, payload).and_then(|()| {
            let started = Instant::now();
            self.sync()?;
            metrics.fsync_nanos.observe_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            Ok(())
        });
        match result {
            Ok(()) => {
                metrics.appends.inc(1);
                metrics.append_bytes.inc(payload.len() as u64);
                self.observe(metrics);
            }
            Err(_) => metrics.append_failures.inc(1),
        }
        result
    }

    /// Sets `metrics`' gauges of the log's committed records and bytes.
    pub fn observe(&self, metrics: &WalMetrics) {
        metrics.records.set(self.records.min(i64::MAX as u64) as i64);
        metrics.bytes.set(self.len.min(i64::MAX as u64) as i64);
    }

    /// Replaces the log with a fresh empty one based at `new_base`
    /// (post-compaction: the snapshot now embeds every logged delta). The
    /// replacement is built as a temp file and renamed over the old log
    /// with file and directory fsyncs, so a crash leaves either the old
    /// complete log or the new empty one — never neither.
    pub fn reset(&mut self, new_base: u64) -> Result<(), WalError> {
        crate::durable::atomic_replace(&self.path, &header_bytes(new_base))?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.base = new_base;
        self.last = new_base;
        self.records = 0;
        self.len = HEADER_LEN;
        self.broken = false;
        Ok(())
    }

    /// The engine generation replay starts from.
    pub fn base_generation(&self) -> u64 {
        self.base
    }

    /// The generation the most recent record produces (= base when empty).
    pub fn last_generation(&self) -> u64 {
        self.last
    }

    /// Number of committed records in the log.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Committed length of the log file in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("aeetes-wal-{tag}-{}-{n}.wal", std::process::id()))
    }

    #[test]
    fn create_append_reopen_round_trip() {
        let path = tmp_path("roundtrip");
        let mut wal = Wal::create(&path, 5).unwrap();
        assert_eq!(wal.base_generation(), 5);
        assert_eq!(wal.last_generation(), 5);
        wal.append(6, b"alpha").unwrap();
        wal.append(7, b"").unwrap();
        wal.append(8, b"gamma-payload").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(wal.base_generation(), 5);
        assert_eq!(wal.last_generation(), 8);
        assert_eq!(wal.record_count(), 3);
        assert_eq!(replay.truncated_bytes, 0);
        let got: Vec<(u64, &[u8])> = replay.records.iter().map(|r| (r.generation, r.payload.as_slice())).collect();
        assert_eq!(got, vec![(6, b"alpha".as_slice()), (7, b"".as_slice()), (8, b"gamma-payload".as_slice())]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_monotonic_append_rejected() {
        let path = tmp_path("mono");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(2, b"x").unwrap();
        assert!(matches!(wal.append(2, b"y"), Err(WalError::NonMonotonic { expected: 3, got: 2 })));
        assert!(matches!(wal.append(5, b"y"), Err(WalError::NonMonotonic { expected: 3, got: 5 })));
        wal.append(3, b"y").unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let path = tmp_path("torn");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(2, b"first").unwrap();
        wal.append(3, b"second").unwrap();
        wal.sync().unwrap();
        let committed = wal.len_bytes();
        drop(wal);
        // Simulate a crash mid-append: half a record of garbage at the tail.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAB; 9]);
        fs::write(&path, &bytes).unwrap();

        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.truncated_bytes, 9);
        assert_eq!(wal.last_generation(), 3);
        assert_eq!(fs::metadata(&path).unwrap().len(), committed, "torn tail must be physically removed");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appending_after_recovery_extends_the_committed_prefix() {
        let path = tmp_path("extend");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(2, b"keep").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"torn-debris");
        fs::write(&path, &bytes).unwrap();

        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(3, b"after-recovery").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        let gens: Vec<u64> = replay.records.iter().map(|r| r.generation).collect();
        assert_eq!(gens, vec![2, 3]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_damage_is_a_hard_error_not_a_recreate() {
        let path = tmp_path("header");
        let mut wal = Wal::create(&path, 1).unwrap();
        wal.append(2, b"x").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = fs::read(&path).unwrap();
        bytes[9] ^= 0xFF; // inside base_generation, guarded by the header CRC
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(Wal::open(&path), Err(WalError::Corrupt(_))), "corruption is not torn-create debris");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_create_debris_is_torn_and_recreatable() {
        let path = tmp_path("debris");
        fs::write(&path, b"AWAL").unwrap(); // crashed before the header completed
        assert!(matches!(Wal::open(&path), Err(WalError::HeaderTorn)));
        let wal = Wal::create(&path, 7).unwrap();
        assert_eq!(wal.base_generation(), 7);
        let (_, replay) = Wal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_compacts_to_empty_log_at_new_base() {
        let path = tmp_path("reset");
        let mut wal = Wal::create(&path, 1).unwrap();
        for g in 2..=6 {
            wal.append(g, format!("delta-{g}").as_bytes()).unwrap();
        }
        wal.sync().unwrap();
        wal.reset(6).unwrap();
        assert_eq!(wal.base_generation(), 6);
        assert_eq!(wal.record_count(), 0);
        wal.append(7, b"post-compact").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(wal.base_generation(), 6);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].generation, 7);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let path = tmp_path("magic");
        fs::write(&path, b"AEETxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(Wal::open(&path), Err(WalError::BadMagic)));
        let mut h = header_bytes(1);
        h[4..8].copy_from_slice(&9u32.to_le_bytes());
        let crc = crc32(&h[..16]);
        h[16..20].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, h).unwrap();
        assert!(matches!(Wal::open(&path), Err(WalError::UnsupportedVersion(9))));
        fs::remove_file(&path).unwrap();
    }
}
