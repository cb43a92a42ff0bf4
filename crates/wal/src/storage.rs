//! The WAL's storage seam: every byte the log reads or writes goes
//! through [`WalStorage`], a small VFS over named segments.
//!
//! Production uses [`FsStorage`] — plain `std::fs` files under the
//! configured directory. Tests and the simulation testkit wrap it in
//! [`FaultyStorage`], which injects a deterministic fault schedule
//! ([`FaultSpec`]): transient append errors, a permanent `fsync`
//! failure that *drops the un-synced suffix* (the way a kernel
//! discards dirty pages after `EIO` — the "fsyncgate" semantics), a
//! byte-capacity `ENOSPC` device, and sector-granular corruption of
//! sealed segments. Because the schedule is counted in storage
//! operations and the simulator serializes all tasks, a `(spec, seed)`
//! coordinate replays the exact same fault × interleaving every time.
//!
//! Errors are pre-classified by [`StorageError`] so the log's policy
//! layer (retry / poison / degrade) never has to guess what an
//! `io::Error` meant.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A classified storage failure. The taxonomy is the policy contract:
/// the WAL retries `Transient`, fail-stops on `FsyncFailed` (never
/// retry a failed fsync — the page cache state is unknowable), and
/// escalates GC pressure on `NoSpace` before refusing writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// A retry may succeed (interrupted syscall, momentary contention).
    Transient(String),
    /// `fsync` failed. Dirty pages may have been silently dropped;
    /// nothing written since the last successful sync can be trusted.
    FsyncFailed(String),
    /// The device is full. `written` bytes of the append landed before
    /// the refusal (0 for an all-or-nothing backend).
    NoSpace {
        /// Bytes of the refused append that reached the device.
        written: u64,
    },
    /// A permanent, unclassifiable failure.
    Permanent(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Transient(e) => write!(f, "transient i/o error: {e}"),
            StorageError::FsyncFailed(e) => write!(f, "fsync failed: {e}"),
            StorageError::NoSpace { written } => {
                write!(
                    f,
                    "device full (ENOSPC, {written} bytes of the append landed)"
                )
            }
            StorageError::Permanent(e) => write!(f, "permanent i/o error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// The VFS the log runs on: a flat namespace of numbered segments.
///
/// Implementations must be safe to call from several sessions at once
/// (the flusher, a GC unlink, a crash's tamper) through `&self`.
pub trait WalStorage: Send + Sync + std::fmt::Debug {
    /// Creates the backing namespace (directory) if absent.
    fn init(&self) -> StorageResult<()>;

    /// Segment ids present, ascending.
    fn list(&self) -> StorageResult<Vec<u64>>;

    /// Opens a segment and returns its full contents (recovery-time
    /// only; the hot path never reads).
    fn open(&self, seg: u64) -> StorageResult<Vec<u8>>;

    /// Appends bytes to a segment, creating it on first append.
    fn append(&self, seg: u64, bytes: &[u8]) -> StorageResult<()>;

    /// Durably syncs a segment's appended bytes to the device.
    fn fsync(&self, seg: u64) -> StorageResult<()>;

    /// Truncates a segment to `len` bytes and syncs the cut (recovery
    /// uses this to remove torn tails).
    fn truncate(&self, seg: u64, len: u64) -> StorageResult<()>;

    /// Marks a segment sealed: no more appends will ever target it.
    /// Advisory — [`FsStorage`] ignores it.
    fn seal(&self, seg: u64) -> StorageResult<()>;

    /// Removes a segment.
    fn unlink(&self, seg: u64) -> StorageResult<()>;

    /// Moves a corrupt sealed segment aside (out of the log namespace,
    /// kept for forensics) instead of deleting it.
    fn quarantine(&self, seg: u64) -> StorageResult<()>;

    /// Size of a segment in bytes (0 when absent).
    fn size(&self, seg: u64) -> StorageResult<u64>;
}

fn classify(e: std::io::Error) -> StorageError {
    // ENOSPC is raw errno 28 on every unix the workspace targets;
    // `ErrorKind::StorageFull` is not yet stable on the pinned
    // toolchain so match the raw code.
    if e.raw_os_error() == Some(28) {
        return StorageError::NoSpace { written: 0 };
    }
    match e.kind() {
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock => {
            StorageError::Transient(e.to_string())
        }
        _ => StorageError::Permanent(e.to_string()),
    }
}

/// The production backend: one `{id:08}.wal` file per segment under a
/// directory, written with `std::fs`.
#[derive(Debug)]
pub struct FsStorage {
    dir: PathBuf,
    /// The tail segment's open `O_APPEND` handle, kept across appends.
    /// Each write lands at the file's end, so a `truncate` through
    /// another handle needs no coordination.
    tail: Mutex<Option<(u64, File)>>,
}

impl FsStorage {
    /// A filesystem backend rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FsStorage {
            dir: dir.into(),
            tail: Mutex::new(None),
        }
    }

    /// Path of a segment file.
    pub fn segment_path(&self, seg: u64) -> PathBuf {
        segment_file(&self.dir, seg)
    }

    fn lock_tail(&self) -> MutexGuard<'_, Option<(u64, File)>> {
        self.tail.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Segment file naming, shared with the quarantine rename.
pub(crate) fn segment_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:08}.wal"))
}

impl WalStorage for FsStorage {
    fn init(&self) -> StorageResult<()> {
        std::fs::create_dir_all(&self.dir).map_err(classify)
    }

    fn list(&self) -> StorageResult<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(classify)? {
            let entry = entry.map_err(classify)?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".wal") {
                if let Ok(id) = stem.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn open(&self, seg: u64) -> StorageResult<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(self.segment_path(seg))
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(classify)?;
        Ok(bytes)
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> StorageResult<()> {
        let mut tail = self.lock_tail();
        let f = match &mut *tail {
            Some((s, f)) if *s == seg => f,
            slot => {
                let f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.segment_path(seg))
                    .map_err(classify)?;
                &mut slot.insert((seg, f)).1
            }
        };
        f.write_all(bytes).map_err(classify)
    }

    fn fsync(&self, seg: u64) -> StorageResult<()> {
        // fsync is per inode, not per descriptor: a segment other than
        // the cached tail is opened just for the sync.
        match &*self.lock_tail() {
            Some((s, f)) if *s == seg => f.sync_data(),
            _ => File::open(self.segment_path(seg)).and_then(|f| f.sync_data()),
        }
        .map_err(|e| StorageError::FsyncFailed(e.to_string()))
    }

    fn truncate(&self, seg: u64, len: u64) -> StorageResult<()> {
        let f = OpenOptions::new()
            .write(true)
            .open(self.segment_path(seg))
            .map_err(classify)?;
        f.set_len(len).map_err(classify)?;
        f.sync_data()
            .map_err(|e| StorageError::FsyncFailed(e.to_string()))
    }

    fn seal(&self, _seg: u64) -> StorageResult<()> {
        Ok(())
    }

    fn unlink(&self, seg: u64) -> StorageResult<()> {
        // A later append must recreate the file, not write to the
        // unlinked inode through the cached handle.
        self.lock_tail().take_if(|(s, _)| *s == seg);
        std::fs::remove_file(self.segment_path(seg)).map_err(classify)
    }

    fn quarantine(&self, seg: u64) -> StorageResult<()> {
        self.lock_tail().take_if(|(s, _)| *s == seg);
        let from = self.segment_path(seg);
        let to = self.dir.join(format!("{seg:08}.quarantine"));
        std::fs::rename(from, to).map_err(classify)
    }

    fn size(&self, seg: u64) -> StorageResult<u64> {
        match std::fs::metadata(self.segment_path(seg)) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(classify(e)),
        }
    }
}

/// Sector size the corruption injector flips bytes at.
pub const SECTOR_BYTES: usize = 512;

/// A deterministic fault schedule, counted in storage operations.
/// `None`/`0` fields inject nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Appends `[at, at + burst)` (0-based, counted across all
    /// segments) fail with [`StorageError::Transient`] and write
    /// nothing; bounded retry must absorb them.
    pub transient_append_at: Option<(u64, u32)>,
    /// The `at`-th fsync (0-based) fails with
    /// [`StorageError::FsyncFailed`] **and drops the segment's
    /// un-synced suffix** — modeling a kernel that discards dirty
    /// pages on `EIO`, so a later fsync "succeeds" with the data gone.
    /// This is what makes retry-after-fsync-fail observable as silent
    /// loss.
    pub fsync_fail_at: Option<u64>,
    /// Device capacity in bytes; an append that would exceed it fails
    /// with [`StorageError::NoSpace`] and writes nothing. Unlinking
    /// segments frees their bytes, so retirement can make room.
    pub capacity: Option<u64>,
    /// Reads of this segment fail with [`StorageError::Permanent`] —
    /// an unreadable sealed segment for the recovery scrub to refuse
    /// or quarantine.
    pub open_fail_seg: Option<u64>,
}

#[derive(Debug, Default)]
struct FaultyState {
    appends: u64,
    fsyncs: u64,
    /// Bytes known synced per segment; an injected fsync failure cuts
    /// the inner file back to this.
    synced: HashMap<u64, u64>,
}

/// A [`WalStorage`] wrapper that injects the [`FaultSpec`] schedule
/// deterministically. Appends write through to the inner backend (so
/// `fsync: false` configurations still persist), but the injected
/// fsync failure *removes* the un-synced suffix from the inner image —
/// exactly the disk a post-`EIO` crash would leave.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: Arc<dyn WalStorage>,
    spec: FaultSpec,
    st: Mutex<FaultyState>,
}

impl FaultyStorage {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: Arc<dyn WalStorage>, spec: FaultSpec) -> Self {
        FaultyStorage {
            inner,
            spec,
            st: Mutex::new(FaultyState::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FaultyState> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total bytes currently occupied on the inner device.
    fn used(&self) -> StorageResult<u64> {
        let mut total = 0;
        for id in self.inner.list()? {
            total += self.inner.size(id)?;
        }
        Ok(total)
    }

    /// Flips every byte of one [`SECTOR_BYTES`]-sized sector of a
    /// segment — bit rot for the recovery scrub to find. The sector
    /// index is clamped to the segment's last sector; absent or empty
    /// segments are left untouched and `false` is returned.
    pub fn corrupt_sector(&self, seg: u64, sector: u32) -> StorageResult<bool> {
        let mut bytes = match self.inner.open(seg) {
            Ok(b) if !b.is_empty() => b,
            _ => return Ok(false),
        };
        let sectors = bytes.len().div_ceil(SECTOR_BYTES);
        let s = (sector as usize).min(sectors - 1);
        let start = s * SECTOR_BYTES;
        let end = (start + SECTOR_BYTES).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b = !*b;
        }
        self.inner.truncate(seg, 0)?;
        self.inner.append(seg, &bytes)?;
        let mut st = self.lock();
        st.synced.insert(seg, bytes.len() as u64);
        Ok(true)
    }
}

impl WalStorage for FaultyStorage {
    fn init(&self) -> StorageResult<()> {
        self.inner.init()
    }

    fn list(&self) -> StorageResult<Vec<u64>> {
        self.inner.list()
    }

    fn open(&self, seg: u64) -> StorageResult<Vec<u8>> {
        if self.spec.open_fail_seg == Some(seg) {
            return Err(StorageError::Permanent(format!(
                "injected open failure on segment {seg}"
            )));
        }
        self.inner.open(seg)
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> StorageResult<()> {
        {
            let mut st = self.lock();
            let op = st.appends;
            st.appends += 1;
            if let Some((at, burst)) = self.spec.transient_append_at {
                if op >= at && op < at + u64::from(burst) {
                    return Err(StorageError::Transient(format!(
                        "injected transient append failure (op {op})"
                    )));
                }
            }
        }
        if let Some(cap) = self.spec.capacity {
            if self.used()? + bytes.len() as u64 > cap {
                return Err(StorageError::NoSpace { written: 0 });
            }
        }
        self.inner.append(seg, bytes)
    }

    fn fsync(&self, seg: u64) -> StorageResult<()> {
        let fail = {
            let mut st = self.lock();
            let op = st.fsyncs;
            st.fsyncs += 1;
            self.spec.fsync_fail_at == Some(op)
        };
        if fail {
            // Drop the dirty suffix like a kernel discarding pages on
            // EIO: the next fsync will "succeed" with the data gone.
            let synced = *self.lock().synced.get(&seg).unwrap_or(&0);
            self.inner.truncate(seg, synced)?;
            return Err(StorageError::FsyncFailed(
                "injected fsync failure (dirty pages dropped)".into(),
            ));
        }
        self.inner.fsync(seg)?;
        let len = self.inner.size(seg)?;
        self.lock().synced.insert(seg, len);
        Ok(())
    }

    fn truncate(&self, seg: u64, len: u64) -> StorageResult<()> {
        self.inner.truncate(seg, len)?;
        self.lock().synced.insert(seg, len);
        Ok(())
    }

    fn seal(&self, seg: u64) -> StorageResult<()> {
        self.inner.seal(seg)
    }

    fn unlink(&self, seg: u64) -> StorageResult<()> {
        self.inner.unlink(seg)?;
        self.lock().synced.remove(&seg);
        Ok(())
    }

    fn quarantine(&self, seg: u64) -> StorageResult<()> {
        self.inner.quarantine(seg)?;
        self.lock().synced.remove(&seg);
        Ok(())
    }

    fn size(&self, seg: u64) -> StorageResult<u64> {
        self.inner.size(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "deltx-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fs_roundtrip_list_append_open_unlink() {
        let dir = tmp("fs");
        let s = FsStorage::new(&dir);
        s.init().unwrap();
        assert_eq!(s.list().unwrap(), Vec::<u64>::new());
        s.append(3, b"abc").unwrap();
        s.append(3, b"def").unwrap();
        s.append(7, b"x").unwrap();
        assert_eq!(s.list().unwrap(), vec![3, 7]);
        assert_eq!(s.open(3).unwrap(), b"abcdef");
        assert_eq!(s.size(3).unwrap(), 6);
        s.truncate(3, 4).unwrap();
        assert_eq!(s.open(3).unwrap(), b"abcd");
        s.unlink(7).unwrap();
        assert_eq!(s.size(7).unwrap(), 0);
        s.quarantine(3).unwrap();
        assert_eq!(s.list().unwrap(), Vec::<u64>::new());
        assert!(dir.join("00000003.quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_unlink_of_the_cached_segment_recreates_it() {
        let dir = tmp("tail-unlink");
        let s = FsStorage::new(&dir);
        s.init().unwrap();
        s.append(5, b"old").unwrap(); // 5 is now the cached tail
        s.unlink(5).unwrap();
        assert_eq!(s.list().unwrap(), Vec::<u64>::new());
        s.append(5, b"new").unwrap();
        assert_eq!(s.open(5).unwrap(), b"new", "no bytes of the unlinked file");
        s.fsync(5).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_truncate_of_the_cached_segment_lands_at_the_cut() {
        let dir = tmp("tail-truncate");
        let s = FsStorage::new(&dir);
        s.init().unwrap();
        s.append(2, b"keep-torn").unwrap();
        s.truncate(2, 4).unwrap();
        s.append(2, b"+more").unwrap();
        assert_eq!(s.open(2).unwrap(), b"keep+more");
        assert_eq!(s.size(2).unwrap(), 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_sees_the_cached_tail_and_appends_after_it() {
        let dir = tmp("tail-reopen");
        let s = FsStorage::new(&dir);
        s.init().unwrap();
        s.append(0, b"a").unwrap();
        s.append(1, b"b").unwrap();
        s.append(0, b"c").unwrap(); // back to a segment whose handle was replaced
        s.fsync(0).unwrap();
        s.fsync(1).unwrap();
        drop(s);
        let s = FsStorage::new(&dir);
        assert_eq!(s.list().unwrap(), vec![0, 1]);
        assert_eq!(s.open(0).unwrap(), b"ac");
        s.append(1, b"d").unwrap();
        assert_eq!(s.open(1).unwrap(), b"bd");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_transient_burst_then_success() {
        let dir = tmp("transient");
        let fs = Arc::new(FsStorage::new(&dir));
        fs.init().unwrap();
        let f = FaultyStorage::new(
            fs,
            FaultSpec {
                transient_append_at: Some((1, 2)),
                ..FaultSpec::default()
            },
        );
        f.append(0, b"ok").unwrap();
        assert!(matches!(
            f.append(0, b"no"),
            Err(StorageError::Transient(_))
        ));
        assert!(matches!(
            f.append(0, b"no"),
            Err(StorageError::Transient(_))
        ));
        f.append(0, b"yes").unwrap();
        assert_eq!(f.open(0).unwrap(), b"okyes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_fsync_failure_drops_dirty_suffix() {
        let dir = tmp("fsyncgate");
        let fs = Arc::new(FsStorage::new(&dir));
        fs.init().unwrap();
        let f = FaultyStorage::new(
            fs,
            FaultSpec {
                fsync_fail_at: Some(1),
                ..FaultSpec::default()
            },
        );
        f.append(0, b"durable").unwrap();
        f.fsync(0).unwrap(); // op 0: succeeds, marks 7 bytes synced
        f.append(0, b"lost").unwrap();
        assert!(matches!(f.fsync(0), Err(StorageError::FsyncFailed(_))));
        // The dirty suffix is gone and a retried fsync "succeeds".
        assert_eq!(f.open(0).unwrap(), b"durable");
        f.fsync(0).unwrap();
        assert_eq!(f.open(0).unwrap(), b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_capacity_enospc_frees_on_unlink() {
        let dir = tmp("enospc");
        let fs = Arc::new(FsStorage::new(&dir));
        fs.init().unwrap();
        let f = FaultyStorage::new(
            fs,
            FaultSpec {
                capacity: Some(8),
                ..FaultSpec::default()
            },
        );
        f.append(0, b"12345").unwrap();
        assert!(matches!(
            f.append(1, b"6789X"),
            Err(StorageError::NoSpace { .. })
        ));
        f.unlink(0).unwrap();
        f.append(1, b"6789X").unwrap();
        assert_eq!(f.open(1).unwrap(), b"6789X");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sector_flips_bytes_in_place() {
        let dir = tmp("rot");
        let fs = Arc::new(FsStorage::new(&dir));
        fs.init().unwrap();
        let f = FaultyStorage::new(fs, FaultSpec::default());
        let data = vec![0xAAu8; SECTOR_BYTES + 10];
        f.append(0, &data).unwrap();
        assert!(f.corrupt_sector(0, 1).unwrap());
        let got = f.open(0).unwrap();
        assert_eq!(&got[..SECTOR_BYTES], &data[..SECTOR_BYTES]);
        assert!(got[SECTOR_BYTES..].iter().all(|&b| b == 0x55));
        // Absent segment: nothing to corrupt.
        assert!(!f.corrupt_sector(9, 0).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
