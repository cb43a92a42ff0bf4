//! A `WalStorage` that writes through to real files but *records*
//! each fsync instead of issuing it.
//!
//! Appends reach the segment file, so recovery reads real bytes; an
//! fsync only notes "this segment is durable up to its current
//! length". The `durable` workload therefore measures the WAL
//! protocol (encode, hand-off, group commit, durable wait) and not
//! this sandbox's disk — and the crash check can do what a kill
//! cannot: [`RecordingStorage::freeze`] fails every later call, and
//! [`RecordingStorage::discard_unsynced`] cuts every file back to the
//! last recorded sync, exactly the bytes a power loss would keep.

use crate::spans::{Name, Span, NO_PARENT};
use deltx_wal::{FsStorage, StorageError, StorageResult, WalStorage};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// What the wrapper has seen; all counts since construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub appends: u64,
    pub bytes_appended: u64,
    pub fsyncs: u64,
    pub unlinks: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Per segment: `(bytes appended, bytes covered by a recorded fsync)`.
    segments: BTreeMap<u64, (u64, u64)>,
    frozen: bool,
    counters: Counters,
    spans: Vec<Span>,
}

#[derive(Debug)]
pub struct RecordingStorage {
    inner: FsStorage,
    /// Held across each forwarded call, so a freeze is atomic with
    /// respect to the call it interrupts. The WAL's writer is the only
    /// hot caller; there is nothing to contend with.
    state: Mutex<State>,
    /// `Some` in a traced phase: calls are timed against this epoch
    /// and kept as spans.
    trace_epoch: Option<Instant>,
}

impl RecordingStorage {
    pub fn new(dir: impl Into<PathBuf>, trace_epoch: Option<Instant>) -> Self {
        RecordingStorage {
            inner: FsStorage::new(dir),
            state: Mutex::new(State {
                // Preallocated: a traced phase must not reallocate
                // under the lock the WAL writer is waiting on.
                spans: Vec::with_capacity(if trace_epoch.is_some() { 1 << 18 } else { 0 }),
                ..State::default()
            }),
            trace_epoch,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a storage call panicked mid-update")
    }

    fn live(&self) -> StorageResult<MutexGuard<'_, State>> {
        let st = self.lock();
        if st.frozen {
            Err(StorageError::Permanent("frozen by the crash check".into()))
        } else {
            Ok(st)
        }
    }

    fn now_ns(&self) -> u64 {
        self.trace_epoch
            .map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    fn span(&self, st: &mut State, name: Name, start_ns: u64) {
        if self.trace_epoch.is_some() {
            st.spans.push(Span {
                name,
                start_ns,
                end_ns: self.now_ns(),
                parent: NO_PARENT,
                txn: 0,
            });
        }
    }

    pub fn counters(&self) -> Counters {
        self.lock().counters.clone()
    }

    /// Storage spans so far, in call order (one writer thread, so also
    /// in start order and non-overlapping).
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }

    /// The crash instant: every later call fails permanently.
    pub fn freeze(&self) {
        self.lock().frozen = true;
    }

    /// After [`RecordingStorage::freeze`]: cuts every segment file back
    /// to its last recorded sync and returns the bytes discarded.
    pub fn discard_unsynced(&self) -> std::io::Result<u64> {
        let st = self.lock();
        assert!(st.frozen, "discarding under a live log would corrupt it");
        let mut discarded = 0;
        for (&seg, &(appended, synced)) in &st.segments {
            if synced < appended {
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(self.inner.segment_path(seg))?;
                f.set_len(synced)?;
                discarded += appended - synced;
            }
        }
        Ok(discarded)
    }
}

impl WalStorage for RecordingStorage {
    fn init(&self) -> StorageResult<()> {
        let _st = self.live()?;
        self.inner.init()
    }

    fn list(&self) -> StorageResult<Vec<u64>> {
        let _st = self.live()?;
        self.inner.list()
    }

    fn open(&self, seg: u64) -> StorageResult<Vec<u8>> {
        let _st = self.live()?;
        self.inner.open(seg)
    }

    fn append(&self, seg: u64, bytes: &[u8]) -> StorageResult<()> {
        let mut st = self.live()?;
        let start = self.now_ns();
        self.inner.append(seg, bytes)?;
        st.counters.appends += 1;
        st.counters.bytes_appended += bytes.len() as u64;
        st.segments.entry(seg).or_default().0 += bytes.len() as u64;
        self.span(&mut st, Name::StorageAppend, start);
        Ok(())
    }

    fn fsync(&self, seg: u64) -> StorageResult<()> {
        let mut st = self.live()?;
        let start = self.now_ns();
        let lens = st.segments.entry(seg).or_default();
        lens.1 = lens.0;
        st.counters.fsyncs += 1;
        self.span(&mut st, Name::StorageFsync, start);
        Ok(())
    }

    fn truncate(&self, seg: u64, len: u64) -> StorageResult<()> {
        let mut st = self.live()?;
        self.inner.truncate(seg, len)?;
        st.segments.insert(seg, (len, len));
        Ok(())
    }

    fn seal(&self, seg: u64) -> StorageResult<()> {
        let _st = self.live()?;
        self.inner.seal(seg)
    }

    fn unlink(&self, seg: u64) -> StorageResult<()> {
        let mut st = self.live()?;
        self.inner.unlink(seg)?;
        st.segments.remove(&seg);
        st.counters.unlinks += 1;
        Ok(())
    }

    fn quarantine(&self, seg: u64) -> StorageResult<()> {
        let mut st = self.live()?;
        self.inner.quarantine(seg)?;
        st.segments.remove(&seg);
        Ok(())
    }

    fn size(&self, seg: u64) -> StorageResult<u64> {
        let _st = self.live()?;
        self.inner.size(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = crate::out_dir().join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn discard_cuts_each_segment_to_its_recorded_sync() {
        let dir = scratch("recording");
        let s = RecordingStorage::new(&dir, None);
        s.init().unwrap();
        s.append(0, b"synced-").unwrap();
        s.fsync(0).unwrap();
        s.append(0, b"lost").unwrap();
        s.append(1, b"never synced").unwrap();
        s.append(2, b"whole").unwrap();
        s.fsync(2).unwrap();
        assert_eq!(
            s.counters(),
            Counters {
                appends: 4,
                bytes_appended: 7 + 4 + 12 + 5,
                fsyncs: 2,
                unlinks: 0,
            }
        );

        s.freeze();
        assert!(matches!(s.append(0, b"x"), Err(StorageError::Permanent(_))));
        assert!(matches!(s.fsync(0), Err(StorageError::Permanent(_))));
        assert!(matches!(s.list(), Err(StorageError::Permanent(_))));
        assert_eq!(s.discard_unsynced().unwrap(), 4 + 12);

        // What a reopen on the plain filesystem finds.
        let fs = FsStorage::new(&dir);
        assert_eq!(fs.open(0).unwrap(), b"synced-");
        assert_eq!(fs.open(1).unwrap(), b"");
        assert_eq!(fs.open(2).unwrap(), b"whole");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_calls_leave_parentless_spans() {
        let dir = scratch("recording-spans");
        let s = RecordingStorage::new(&dir, Some(Instant::now()));
        s.init().unwrap();
        s.append(0, b"abc").unwrap();
        s.fsync(0).unwrap();
        let spans = s.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, Name::StorageAppend);
        assert_eq!(spans[1].name, Name::StorageFsync);
        assert!(spans.iter().all(|s| s.parent == NO_PARENT));
        assert!(spans[0].end_ns <= spans[1].start_ns);
        assert!(s.take_spans().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
