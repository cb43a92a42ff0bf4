//! The segmented write-ahead log: group commit, segment retirement by
//! supersession, crash-point and disk-fault injection, and the
//! recovery scrub.
//!
//! # Group commit
//!
//! Sessions call [`Wal::submit_commit`] while still holding the shard
//! locks of their commit, so the append order of commit records equals
//! the serialization order of conflicting transactions. The call only
//! enqueues bytes and returns the record's LSN. After releasing its
//! locks the session calls [`Wal::wait_durable`] with its LSN, and
//! there is no writer thread: a waiter that finds records pending and
//! no flush running **becomes the flusher** — it takes the whole
//! pending batch, writes and syncs it with no log lock held, advances
//! the durable LSN and wakes the others. Waiters that arrive while a
//! flush runs queue behind it, and the first of them to wake leads the
//! next batch, so one fsync acknowledges everything that queued during
//! the previous one. Flushes are serialized and in LSN order, so a
//! durable later record implies every earlier record is durable too.
//! [`Wal::close`] drains what is still queued on the caller's thread.
//!
//! # The disk can say no
//!
//! All file IO goes through the [`WalStorage`] VFS, and the flusher
//! applies a per-error-class policy (see [`StorageError`]):
//!
//! * **Transient** append errors retry with bounded exponential
//!   backoff on the [`Runtime`] clock (virtual under simulation, real
//!   in production). Budget exhausted ⇒ fail-stop.
//! * **`fsync` failure poisons the log, fail-stop, no retry.** After a
//!   failed fsync the page cache contents are unknowable — many
//!   kernels *drop* the dirty pages, so a retried fsync "succeeds"
//!   with the data gone (the "fsyncgate" failure mode). The only safe
//!   acknowledgement is none: every waiter gets
//!   [`WalError::Poisoned`], the health flips to
//!   [`WalHealth::Poisoned`], and the engine runs loudly degraded
//!   (reads fine, writes refused) until the log is re-opened.
//! * **`ENOSPC` degrades gracefully before refusing.** The flusher
//!   hands its unwritten chunks back to the queue, raises
//!   [`Wal::space_pressure`] and releases the flush; the waiters wait
//!   out a longer backoff before one of them retries. Only if the
//!   device stays full through the whole escalation window does the
//!   log fail-stop with [`WalError::NoSpace`]. Nothing the engine does
//!   frees log space: a segment retires in the flush that makes its
//!   supersessors durable (below).
//!
//! # Supersession is the checkpoint
//!
//! Each segment counts the entities whose newest logged write it holds
//! ([`SegmentMeta::live`]), kept at submit and re-derived by
//! recovery's scan. A sealed segment whose count reaches zero holds
//! nothing recovery needs: every entity it wrote has a newer record
//! elsewhere. It is unlinked once those newer records are durable —
//! each segment tracks a **superseded ceiling**, the highest LSN of
//! any record that took over one of its entities, and the unlink waits
//! until `durable_lsn` passes it (otherwise a crash between the unlink
//! and the supersessors' flush would lose BOTH copies of an entity's
//! current value). So retirement happens in the flush that makes the
//! last supersessor durable, and the log needs no word from the
//! engine: the conflict graph may delete a transaction whose record
//! still holds a current value, and that record stays. No separate
//! checkpoint writer exists, and the log stays proportional to the
//! entities written, not to history.
//!
//! # Crash points
//!
//! [`Wal::arm_crash`] plants a [`CrashPoint`]; the next `submit_commit`
//! executes it instead of appending: the WAL refuses all further work,
//! un-flushed batches are discarded (their sessions were never acked),
//! and the active segment's tail is tampered through the VFS to match
//! the scenario. Recovery ([`Wal::open`]) then sees exactly the disk a
//! real kill at that point would leave.
//!
//! # Recovery scrubbing
//!
//! Recovery decodes **every** segment, then classifies damage by
//! position. Invalid bytes with no valid records anywhere after them
//! are a torn *tail* — the expected crash artifact — and are cut back
//! to the valid prefix. Invalid bytes in a sealed *mid-log* segment
//! (valid records exist later) are corruption the crash protocol
//! cannot produce: acknowledged commits are missing while later state
//! survives. That is never silently dropped — under the default
//! [`RecoverPolicy::Strict`] the open refuses loudly; under
//! [`RecoverPolicy::Quarantine`] the whole segment is moved aside and
//! the lost LSN range is reported per segment in
//! [`RecoveryScan::quarantined`].

use crate::record::{decode, encode_commit, CommitRecord, DecodeError};
use crate::storage::{FsStorage, StorageError, StorageResult, WalStorage};
use deltx_model::{EntityId, TxnId};
use deltx_runtime::{Backoff, OsRuntime, RtEvent, Runtime};
use deltx_storage::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// What recovery does when it finds corruption in a sealed mid-log
/// segment — damage that cannot be a crash artifact (valid records
/// exist *after* it, so acknowledged commits are missing while later
/// state survives).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoverPolicy {
    /// Refuse to open. The error names the segment and the lost LSN
    /// range; nothing on disk is modified. The default: silent loss is
    /// never acceptable without an explicit opt-in.
    #[default]
    Strict,
    /// Quarantine the damaged segment (move it out of the log
    /// namespace, keep it for forensics) and open with the surviving
    /// records, reporting exactly which LSN ranges are gone in
    /// [`RecoveryScan::quarantined`]. The whole segment is dropped —
    /// keeping its valid prefix in memory only would lose those
    /// records again on the next crash.
    Quarantine,
}

/// Configuration for the durability layer.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the log segments (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment once the active one exceeds this many
    /// bytes. Small segments make retirement finer-grained.
    pub segment_bytes: u64,
    /// Issue `fsync` after each batch write. Turning this off trades
    /// crash safety for speed (useful in benches and bounded-log
    /// tests); the group-commit protocol is unchanged.
    pub fsync: bool,
    /// The storage backend. `None` uses the real filesystem
    /// ([`FsStorage`] under `dir`); tests inject a
    /// [`crate::FaultyStorage`] here to drive disk-fault schedules.
    pub storage: Option<Arc<dyn WalStorage>>,
    /// What recovery does about mid-log corruption (see
    /// [`RecoverPolicy`]). Torn tails are always cut regardless.
    pub recover: RecoverPolicy,
}

impl DurabilityConfig {
    /// Durable log under `dir` with default segment size (64 KiB),
    /// fsync on, the real filesystem, and strict recovery.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 64 * 1024,
            fsync: true,
            storage: None,
            recover: RecoverPolicy::Strict,
        }
    }
}

/// Where in the commit protocol a simulated crash strikes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before the record reaches the log buffer: nothing on disk.
    BeforeAppend,
    /// The record was appended to the in-memory log buffer but the
    /// machine died before the flush: the page cache is lost, nothing
    /// durable.
    AfterAppendBeforeFlush,
    /// The flush was cut mid-record: a torn half record is durable at
    /// the tail.
    MidFlushTorn,
    /// The flush died after exactly this many bytes of the record had
    /// reached the disk: a torn tail cut at an arbitrary offset. The
    /// offset is clamped to the record length; cutting at the full
    /// length behaves like
    /// [`CrashPoint::AfterFlushBeforeVisibility`], at zero like
    /// [`CrashPoint::BeforeAppend`]. Offsets under 8 tear inside the
    /// `[len][crc]` header itself.
    TornWriteAt(u32),
    /// The record is fully durable but the crash hits before the
    /// session is acknowledged or the write becomes visible.
    AfterFlushBeforeVisibility,
}

/// Every parameter-free crash point, for matrix-style harnesses
/// (sweep [`CrashPoint::TornWriteAt`] offsets explicitly — they are a
/// family, not a point).
pub const ALL_CRASH_POINTS: [CrashPoint; 4] = [
    CrashPoint::BeforeAppend,
    CrashPoint::AfterAppendBeforeFlush,
    CrashPoint::MidFlushTorn,
    CrashPoint::AfterFlushBeforeVisibility,
];

/// Errors surfaced to sessions by the durability layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The WAL crashed (injected or real I/O failure); the record was
    /// not acknowledged and may or may not be durable.
    Crashed,
    /// The WAL was closed.
    Closed,
    /// An I/O error the retry policy could not absorb.
    Io(String),
    /// An `fsync` failed, poisoning the log fail-stop. Nothing written
    /// since the last successful sync can be trusted (the kernel may
    /// have dropped the dirty pages), and retrying the fsync would
    /// risk acknowledging lost data — so the log refuses all further
    /// work until re-opened.
    Poisoned(String),
    /// The device stayed full through the entire `ENOSPC` escalation
    /// window; the log is fail-stop until re-opened with space
    /// available.
    NoSpace,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Crashed => write!(f, "wal crashed before acknowledging the record"),
            WalError::Closed => write!(f, "wal closed"),
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Poisoned(e) => {
                write!(
                    f,
                    "wal poisoned by fsync failure (fail-stop, no retry): {e}"
                )
            }
            WalError::NoSpace => write!(
                f,
                "wal device full: ENOSPC persisted through the escalation window"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Coarse health of the log, readable lock-free (the engine's commit
/// path gates on this before touching the graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalHealth {
    /// Accepting and flushing records.
    Ok,
    /// An injected or real crash stopped the log.
    Crashed,
    /// An `fsync` failure poisoned the log (see [`WalError::Poisoned`]).
    Poisoned,
    /// The device stayed full through the `ENOSPC` escalation window.
    NoSpace,
    /// A non-transient I/O failure stopped the log.
    Failed,
}

impl WalHealth {
    fn from_u8(v: u8) -> WalHealth {
        match v {
            0 => WalHealth::Ok,
            1 => WalHealth::Crashed,
            2 => WalHealth::Poisoned,
            3 => WalHealth::NoSpace,
            _ => WalHealth::Failed,
        }
    }
}

/// A sealed segment the recovery scrub moved aside because it held
/// mid-log corruption, with the precise LSN range that is gone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuarantinedSegment {
    /// The quarantined segment's id.
    pub segment: u64,
    /// The last surviving LSN before the gap (0 when the log starts
    /// inside the quarantined segment).
    pub lost_after: u64,
    /// The first surviving LSN after the gap (0 when nothing valid
    /// follows — the segment was unreadable at the log's tail).
    pub resume_at: u64,
}

/// What the recovery scan found on disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryScan {
    /// Segment files present when the scan started.
    pub segments_scanned: u64,
    /// Segments discarded: quarantined, or holding no commits.
    pub segments_dropped: u64,
    /// Bytes cut from the log (torn tails plus dropped segments).
    pub bytes_discarded: u64,
    /// Whether a torn or corrupt tail was found and truncated.
    pub torn_tail: bool,
    /// Highest LSN surviving the scan (0 when the log was empty).
    pub max_lsn: u64,
    /// Sealed mid-log segments quarantined under
    /// [`RecoverPolicy::Quarantine`], each with its lost LSN range.
    /// Empty under [`RecoverPolicy::Strict`] (corruption refuses the
    /// open instead) and on every clean or merely-torn log.
    pub quarantined: Vec<QuarantinedSegment>,
}

/// Upper bounds (nanoseconds) of the [`WalStats::flush_hist`] latency
/// buckets; the last bucket is unbounded.
pub const FLUSH_BUCKET_UPPER_NANOS: [u64; 8] = [
    50_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    20_000_000,
    u64::MAX,
];

/// A point-in-time snapshot of WAL activity counters.
#[derive(Clone, Debug, Default)]
pub struct WalStats {
    /// Batched flush operations, each led by one waiting session.
    pub flushes: u64,
    /// Records made durable.
    pub records: u64,
    /// Records-per-flush histogram; buckets `1, 2, 3, 4, ≤8, ≤16,
    /// ≤32, >32` (the engine's subset-size buckets).
    pub batch_hist: [u64; 8],
    /// Segments rolled since open.
    pub segments_created: u64,
    /// Segments removed because later records superseded every entity
    /// they held.
    pub segments_truncated: u64,
    /// Highest acknowledged (durable) LSN.
    pub durable_lsn: u64,
    /// Segments currently on disk.
    pub segments_live: u64,
    /// Transient append errors absorbed by the bounded-backoff retry.
    pub append_retries: u64,
    /// Per-flush latency histogram over
    /// [`FLUSH_BUCKET_UPPER_NANOS`] — feeds p50/p99 flush-latency
    /// estimates in `engine_stress --fsync`.
    pub flush_hist: [u64; 8],
}

impl WalStats {
    /// Mean records per flush (batch size the group commit achieved).
    pub fn mean_batch(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.records as f64 / self.flushes as f64
        }
    }

    /// Estimated flush-latency quantile `q` in nanoseconds, read from
    /// the bucket upper bounds (the last bucket reports its lower
    /// bound). 0 when no flushes happened.
    pub fn flush_quantile_nanos(&self, q: f64) -> u64 {
        let total: u64 = self.flush_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.flush_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 7 {
                    FLUSH_BUCKET_UPPER_NANOS[6]
                } else {
                    FLUSH_BUCKET_UPPER_NANOS[i]
                };
            }
        }
        FLUSH_BUCKET_UPPER_NANOS[6]
    }
}

/// Bucket index for a batch of `n` records (mirrors the engine's
/// subset-size histogram bounds).
fn batch_bucket(n: u64) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3 => 2,
        4 => 3,
        5..=8 => 4,
        9..=16 => 5,
        17..=32 => 6,
        _ => 7,
    }
}

/// Bucket index for a flush that took `nanos`.
fn flush_bucket(nanos: u64) -> usize {
    FLUSH_BUCKET_UPPER_NANOS
        .iter()
        .position(|&hi| nanos <= hi)
        .unwrap_or(7)
}

struct SegmentMeta {
    /// Entities whose newest logged write lies in this segment. Sealed
    /// segments with `live == 0` are removed once their superseded
    /// ceiling is durable.
    live: usize,
    sealed: bool,
    /// Bytes enqueued to this segment (durable or pending).
    bytes: u64,
    /// Bytes flushed and synced.
    durable: u64,
    /// Highest LSN of any commit that superseded an entity last
    /// written in this segment. When `live` reaches zero, every
    /// supersessor is at or below this ceiling, so the segment may
    /// only be unlinked once `durable_lsn` passes it, or a crash
    /// between the unlink and their flush would lose BOTH copies.
    superseded_ceiling: u64,
}

impl SegmentMeta {
    /// A segment of `bytes` durable bytes with no entity counted yet:
    /// sealed when recovered, the fresh active segment when empty.
    fn new(sealed: bool, bytes: u64) -> Self {
        SegmentMeta {
            live: 0,
            sealed,
            bytes,
            durable: bytes,
            superseded_ceiling: 0,
        }
    }
}

/// Consecutive records bound for one segment, appended in one call.
struct Chunk {
    seg: u64,
    bytes: Vec<u8>,
    /// LSN of the last record in `bytes`: durable once the chunk is.
    last_lsn: u64,
    recs: u64,
}

#[derive(Default)]
struct WalState {
    segments: BTreeMap<u64, SegmentMeta>,
    active: u64,
    /// The segment holding each entity's newest write.
    current_writer: HashMap<EntityId, u64>,
    /// Encoded records awaiting a flusher, coalesced per segment.
    pending: Vec<Chunk>,
    /// LSN the next record gets; the newest enqueued is one below.
    next_lsn: u64,
    durable_lsn: u64,
    /// Segments the running flush appends to or syncs: non-empty
    /// exactly while a waiter flushes a batch.
    writing: HashSet<u64>,
    /// The parked append's `ENOSPC` budget and the runtime instant
    /// before which no waiter retries it; `Some` exactly while
    /// [`Wal::space_pressure`] is raised.
    parked: Option<(Backoff, Duration)>,
    armed: Option<CrashPoint>,
    /// Why the log stopped — an injected crash, a poisoned fsync,
    /// exhausted `ENOSPC` or transient retries; `Some` exactly once it
    /// has.
    fail: Option<WalError>,
    /// `close()` has begun: no record is accepted any more.
    closing: bool,
}

impl WalState {
    /// A waiter is flushing a batch; the others wait for it.
    fn flushing(&self) -> bool {
        !self.writing.is_empty()
    }

    /// Makes `seg` the current writer of each entity in `writes`: it
    /// counts the entity, and a segment that loses one stops counting
    /// it and learns it is superseded up to `lsn`.
    fn supersede(&mut self, writes: &[(EntityId, Value)], lsn: u64, seg: u64) {
        for (e, _) in writes {
            let prev = self.current_writer.insert(*e, seg);
            if prev == Some(seg) {
                continue;
            }
            if let Some(m) = self.segments.get_mut(&seg) {
                m.live += 1;
            }
            if let Some(m) = prev.and_then(|p| self.segments.get_mut(&p)) {
                m.live -= 1;
                m.superseded_ceiling = m.superseded_ceiling.max(lsn);
            }
        }
    }
}

#[derive(Default)]
struct WalCounters {
    flushes: AtomicU64,
    records: AtomicU64,
    batch_hist: [AtomicU64; 8],
    segments_created: AtomicU64,
    segments_truncated: AtomicU64,
    append_retries: AtomicU64,
    flush_hist: [AtomicU64; 8],
}

/// The write-ahead log. One instance per engine; cheap to share via
/// `Arc`.
pub struct Wal {
    cfg: DurabilityConfig,
    /// All file IO goes through here; production is [`FsStorage`],
    /// tests inject fault schedules.
    storage: Arc<dyn WalStorage>,
    /// Host runtime: times flushes, paces the retry backoff, and backs
    /// the eventcount below. Virtual under the simulation testkit.
    rt: Arc<dyn Runtime>,
    state: Mutex<WalState>,
    /// Wakes waiters when a flush ends (`durable_lsn` advanced, an
    /// append parked on `ENOSPC`, or the log stopped), the log
    /// crashes, or `close()` begins.
    durable_ev: Arc<dyn RtEvent>,
    /// Mirror of the log's state machine for lock-free reads
    /// ([`WalHealth`] as `u8`).
    health: AtomicU8,
    stats: WalCounters,
}

impl Wal {
    fn lock(&self) -> MutexGuard<'_, WalState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_health(&self, h: WalHealth) {
        self.health.store(h as u8, Ordering::Release);
    }

    /// Fail-stop: every record not yet durable is dropped, its session
    /// sees the precise error (never a false ack), and health flips.
    fn stop(&self, st: &mut WalState, e: WalError) {
        self.set_health(match &e {
            WalError::Poisoned(_) => WalHealth::Poisoned,
            WalError::NoSpace => WalHealth::NoSpace,
            WalError::Crashed => WalHealth::Crashed,
            _ => WalHealth::Failed,
        });
        st.fail = Some(e);
        st.pending.clear();
        st.parked = None;
    }
}

/// Removes every sealed segment that holds no entity's newest write,
/// whose superseded ceiling is durable (no newer record needs to be),
/// and that no in-flight, parked or pending write still references.
fn collect_dead(st: &mut WalState, wal: &Wal) {
    let dead: Vec<u64> = st
        .segments
        .iter()
        .filter(|(id, m)| {
            m.sealed
                && m.live == 0
                && st.durable_lsn >= m.superseded_ceiling
                && **id != st.active
                && !st.writing.contains(id)
                && !st.pending.iter().any(|c| c.seg == **id)
        })
        .map(|(id, _)| *id)
        .collect();
    for id in dead {
        if st.segments.remove(&id).is_some() {
            let _ = wal.storage.unlink(id);
            wal.stats.segments_truncated.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn io_err(e: StorageError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// One segment's decode result during the recovery scrub.
struct SegScrub {
    id: u64,
    /// Decoded records with their end byte offsets, valid prefix only.
    recs: Vec<(CommitRecord, u64)>,
    /// Byte length of the valid record prefix.
    valid_len: u64,
    /// Bytes on disk.
    total_len: u64,
    /// Invalid bytes follow the valid prefix (decode error, trailing
    /// garbage, or an LSN-monotonicity violation).
    bad: bool,
    /// The segment could not be read at all.
    open_err: Option<String>,
}

impl Wal {
    /// Opens (or creates) the log under `cfg.dir`, scrubbing any
    /// surviving segments.
    ///
    /// Returns the log ready for new appends, the commit records that
    /// survived in LSN order (for the engine to replay), and a summary
    /// of what the scrub found. A torn *tail* is cut back to its valid
    /// prefix; corruption in a sealed *mid-log* segment refuses the
    /// open under [`RecoverPolicy::Strict`] or quarantines the segment
    /// (reporting the lost LSN range) under
    /// [`RecoverPolicy::Quarantine`].
    pub fn open(cfg: DurabilityConfig) -> std::io::Result<(Wal, Vec<CommitRecord>, RecoveryScan)> {
        Wal::open_on(cfg, OsRuntime::shared())
    }

    /// Like [`Wal::open`] but on an explicit [`Runtime`]. The engine
    /// passes its own runtime so the flush timing, the retry backoff,
    /// and every waiter wakeup run under the host scheduler — virtual
    /// and deterministic under the simulation testkit.
    pub fn open_on(
        cfg: DurabilityConfig,
        rt: Arc<dyn Runtime>,
    ) -> std::io::Result<(Wal, Vec<CommitRecord>, RecoveryScan)> {
        let storage: Arc<dyn WalStorage> = match &cfg.storage {
            Some(s) => Arc::clone(s),
            None => Arc::new(FsStorage::new(&cfg.dir)),
        };
        storage.init().map_err(io_err)?;
        let ids = storage.list().map_err(io_err)?;

        let mut scan = RecoveryScan {
            segments_scanned: ids.len() as u64,
            ..Default::default()
        };

        // ── Scrub phase 1: decode every segment fully (no global
        // halt — damage is classified by position, below).
        let mut scrubs: Vec<SegScrub> = Vec::with_capacity(ids.len());
        for &id in &ids {
            match storage.open(id) {
                Err(e) => scrubs.push(SegScrub {
                    id,
                    recs: Vec::new(),
                    valid_len: 0,
                    total_len: storage.size(id).unwrap_or(0),
                    bad: true,
                    open_err: Some(e.to_string()),
                }),
                Ok(bytes) => {
                    let mut recs = Vec::new();
                    let mut off = 0usize;
                    let bad = loop {
                        match decode(&bytes[off..]) {
                            Ok(None) => break false,
                            Ok(Some((rec, used))) => {
                                off += used;
                                recs.push((rec, off as u64));
                            }
                            Err(DecodeError::Torn | DecodeError::BadCrc | DecodeError::Corrupt) => {
                                break true
                            }
                        }
                    };
                    scrubs.push(SegScrub {
                        id,
                        recs,
                        valid_len: off as u64,
                        total_len: bytes.len() as u64,
                        bad,
                        open_err: None,
                    });
                }
            }
        }

        // ── Scrub phase 2: enforce strictly-increasing LSNs across
        // the whole log; stale or replayed bytes end a segment's valid
        // prefix exactly like a decode error.
        let mut last_lsn = 0u64;
        for s in &mut scrubs {
            let mut keep = s.recs.len();
            for (i, (rec, _)) in s.recs.iter().enumerate() {
                if rec.lsn <= last_lsn {
                    keep = i;
                    break;
                }
                last_lsn = rec.lsn;
            }
            if keep < s.recs.len() {
                s.bad = true;
                s.valid_len = if keep == 0 { 0 } else { s.recs[keep - 1].1 };
                s.recs.truncate(keep);
            }
        }

        // ── Scrub phase 3: classify and apply. A bad segment with
        // valid records after it is mid-log corruption (refuse or
        // quarantine); a bad segment with nothing valid after it is a
        // torn tail (cut). An unreadable segment is always treated as
        // corruption — there is no prefix to keep.
        let mut commits: Vec<CommitRecord> = Vec::new();
        let mut st = WalState::default();
        let mut max_lsn = 0u64;
        for i in 0..scrubs.len() {
            let (s, later) = scrubs[i..].split_first_mut().expect("i < len");
            if s.open_err.is_some() || (s.bad && later.iter().any(|t| !t.recs.is_empty())) {
                let lost_after = max_lsn;
                let resume_at = later
                    .iter()
                    .find_map(|t| t.recs.first().map(|(r, _)| r.lsn))
                    .unwrap_or(0);
                let detail = match &s.open_err {
                    Some(e) => format!("unreadable ({e})"),
                    None => format!("corrupt at byte {}", s.valid_len),
                };
                if cfg.recover == RecoverPolicy::Strict {
                    return Err(std::io::Error::other(format!(
                        "wal: sealed mid-log segment {:08} is {detail}; LSNs after {lost_after} \
                         and before {resume_at} are lost. Refusing to open under \
                         RecoverPolicy::Strict — set RecoverPolicy::Quarantine to move the \
                         segment aside and open with the surviving records",
                        s.id
                    )));
                }
                storage.quarantine(s.id).map_err(io_err)?;
                scan.segments_dropped += 1;
                scan.bytes_discarded += s.total_len;
                scan.quarantined.push(QuarantinedSegment {
                    segment: s.id,
                    lost_after,
                    resume_at,
                });
                continue;
            }
            if s.bad {
                // Torn tail: cut the file back to its valid prefix.
                scan.torn_tail = true;
                scan.bytes_discarded += s.total_len - s.valid_len;
                storage.truncate(s.id, s.valid_len).map_err(io_err)?;
            }
            if s.recs.is_empty() {
                // Emptied or zero-length segment: nothing to replay,
                // nothing to keep.
                scan.segments_dropped += 1;
                scan.bytes_discarded += s.valid_len;
                storage.unlink(s.id).map_err(io_err)?;
                continue;
            }
            st.segments
                .insert(s.id, SegmentMeta::new(true, s.valid_len));
            for (rec, _) in s.recs.drain(..) {
                max_lsn = rec.lsn;
                st.supersede(&rec.writes, rec.lsn, s.id);
                commits.push(rec);
            }
        }
        scan.max_lsn = max_lsn;

        st.active = ids.last().map_or(0, |m| m + 1);
        st.segments.insert(st.active, SegmentMeta::new(false, 0));
        st.next_lsn = max_lsn + 1;
        st.durable_lsn = max_lsn;

        let wal = Wal {
            cfg,
            storage,
            durable_ev: rt.event(),
            rt,
            state: Mutex::new(st),
            health: AtomicU8::new(WalHealth::Ok as u8),
            stats: WalCounters::default(),
        };
        Ok((wal, commits, scan))
    }

    /// Enqueues a commit record and returns its LSN.
    ///
    /// Call while still holding the commit's shard locks so the log
    /// order of conflicting commits matches their serialization order;
    /// the record is *not* durable until [`Wal::wait_durable`] returns
    /// for the LSN. If a [`CrashPoint`] is armed, the crash executes
    /// here instead and `Err(Crashed)` is returned.
    pub fn submit_commit(
        &self,
        txn: TxnId,
        writes: &[(EntityId, Value)],
        shards: &[u32],
    ) -> Result<u64, WalError> {
        let mut st = self.lock();
        if let Some(e) = &st.fail {
            return Err(e.clone());
        }
        if st.closing {
            return Err(WalError::Closed);
        }
        let lsn = st.next_lsn;
        let bytes = encode_commit(lsn, txn, writes, shards);
        if let Some(cp) = st.armed.take() {
            self.execute_crash(st, cp, &bytes);
            return Err(WalError::Crashed);
        }
        st.next_lsn += 1;
        let seg = self.enqueue(&mut st, lsn, bytes);
        // The previous writers' segments learn they are superseded up
        // to this LSN, which holds their unlink once they are all dead.
        st.supersede(writes, lsn, seg);
        Ok(lsn)
    }

    /// Appends the encoded record `lsn` to the active segment, rolling
    /// first if the segment is full. Returns the segment charged.
    fn enqueue(&self, st: &mut WalState, lsn: u64, bytes: Vec<u8>) -> u64 {
        let len = bytes.len() as u64;
        let seg_bytes = st.segments.get(&st.active).map_or(0, |m| m.bytes);
        if seg_bytes > 0 && seg_bytes + len > self.cfg.segment_bytes {
            if let Some(m) = st.segments.get_mut(&st.active) {
                m.sealed = true;
            }
            let _ = self.storage.seal(st.active);
            st.active += 1;
            st.segments.insert(st.active, SegmentMeta::new(false, 0));
            self.stats.segments_created.fetch_add(1, Ordering::Relaxed);
        }
        let seg = st.active;
        if let Some(m) = st.segments.get_mut(&seg) {
            m.bytes += len;
        }
        match st.pending.last_mut() {
            Some(c) if c.seg == seg => {
                c.bytes.extend_from_slice(&bytes);
                c.last_lsn = lsn;
                c.recs += 1;
            }
            _ => st.pending.push(Chunk {
                seg,
                bytes,
                last_lsn: lsn,
                recs: 1,
            }),
        }
        seg
    }

    /// Blocks until the record at `lsn` is durable (its batch was
    /// flushed). An error means the record was never acknowledged:
    /// [`WalError::Poisoned`] / [`WalError::NoSpace`] / [`WalError::Io`]
    /// name the disk fault that stopped the log, [`WalError::Crashed`]
    /// is an injected or unclassified crash, and [`WalError::Closed`]
    /// means the log was closed before covering the record (a shutdown
    /// raced the submission). The waiter never hangs.
    /// The caller may lead the flush itself (see the module docs).
    pub fn wait_durable(&self, lsn: u64) -> Result<(), WalError> {
        loop {
            let key = self.durable_ev.prepare();
            let st = self.lock();
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if let Some(e) = &st.fail {
                return Err(e.clone());
            }
            if st.closing && !st.flushing() && st.pending.is_empty() {
                // Nothing left to flush, and nothing more will come.
                return Err(WalError::Closed);
            }
            if !st.flushing() && !st.pending.is_empty() {
                match st.parked {
                    Some((_, retry_at)) if self.rt.now() < retry_at => {
                        drop(st);
                        let now = self.rt.now();
                        if now < retry_at {
                            self.rt.sleep(retry_at - now);
                        }
                    }
                    _ => flush(self, st),
                }
                continue;
            }
            drop(st);
            self.durable_ev.wait(key);
        }
    }

    /// Arms a crash: the next `submit_commit` executes `cp` instead of
    /// appending, after which every call fails with
    /// [`WalError::Crashed`] until the log is re-opened.
    pub fn arm_crash(&self, cp: CrashPoint) {
        self.lock().armed = Some(cp);
    }

    /// Coarse health, readable without the state lock. Anything but
    /// [`WalHealth::Ok`] means the log accepts no further records and
    /// the engine should serve reads only.
    pub fn health(&self) -> WalHealth {
        WalHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    /// Why the log stopped, once it has ([`Wal::health`] ≠ `Ok`).
    pub fn fail_reason(&self) -> Option<WalError> {
        self.lock().fail.clone()
    }

    /// True while an append is parked on `ENOSPC` backoff waiting for
    /// space.
    pub fn space_pressure(&self) -> bool {
        self.lock().parked.is_some()
    }

    /// Runs the armed crash scenario: stop the log, discard un-flushed
    /// batches, tamper the active segment's tail through the VFS so the
    /// disk matches what a real kill at `cp` would leave.
    fn execute_crash(&self, mut st: MutexGuard<'_, WalState>, cp: CrashPoint, record: &[u8]) {
        st.fail = Some(WalError::Crashed);
        drop(st);
        self.set_health(WalHealth::Crashed);
        // Let an in-flight flush finish: those records were written
        // before the crash point and their sessions will be acked,
        // which is correct — they are durable. A flush never waits on
        // shard locks, which we hold here (see `park`).
        let mut st = loop {
            let key = self.durable_ev.prepare();
            let g = self.lock();
            if !g.flushing() {
                break g;
            }
            drop(g);
            self.durable_ev.wait(key);
        };
        // Batches no flush completed die in the page cache; their
        // sessions get `Crashed` — or the more precise fault an
        // in-flight flush hit meanwhile — never an ack.
        let cause = st.fail.take().expect("set when the crash began");
        self.stop(&mut st, cause);
        let active = st.active;
        let durable = match st.segments.get(&active) {
            Some(m) => m.durable,
            None => {
                drop(st);
                self.durable_ev.notify();
                return;
            }
        };
        drop(st);
        let storage = &self.storage;
        let tamper = || -> StorageResult<()> {
            let cut = match cp {
                CrashPoint::BeforeAppend => return Ok(()),
                CrashPoint::AfterAppendBeforeFlush => {
                    // Appended, never flushed: the bytes existed only
                    // in the page cache. Write then cut back to the
                    // durable prefix — net effect, nothing survives.
                    storage.append(active, record)?;
                    return storage.truncate(active, durable);
                }
                CrashPoint::MidFlushTorn => record.len() / 2,
                CrashPoint::TornWriteAt(off) => (off as usize).min(record.len()),
                CrashPoint::AfterFlushBeforeVisibility => record.len(),
            };
            // The flush died after `cut` bytes of the record: a durable
            // torn tail for recovery to cut off — inside the
            // `[len][crc]` header, one byte short of intact, or anywhere
            // between — or, at the full length, a record durable but
            // never acknowledged, which recovery must replay exactly once.
            storage.append(active, &record[..cut])?;
            storage.fsync(active)
        };
        // A tamper failure leaves the disk at the durable prefix,
        // which is itself a valid crash image.
        let _ = tamper();
        self.durable_ev.notify();
    }

    /// Snapshot of the activity counters.
    pub fn stats(&self) -> WalStats {
        let s = &self.stats;
        let mut out = WalStats {
            flushes: s.flushes.load(Ordering::Relaxed),
            records: s.records.load(Ordering::Relaxed),
            batch_hist: [0; 8],
            segments_created: s.segments_created.load(Ordering::Relaxed),
            segments_truncated: s.segments_truncated.load(Ordering::Relaxed),
            durable_lsn: 0,
            segments_live: 0,
            append_retries: s.append_retries.load(Ordering::Relaxed),
            flush_hist: [0; 8],
        };
        for (i, b) in s.batch_hist.iter().enumerate() {
            out.batch_hist[i] = b.load(Ordering::Relaxed);
        }
        for (i, b) in s.flush_hist.iter().enumerate() {
            out.flush_hist[i] = b.load(Ordering::Relaxed);
        }
        let st = self.lock();
        out.durable_lsn = st.durable_lsn;
        out.segments_live = st.segments.len() as u64;
        out
    }

    /// Drains pending records on the caller's thread and closes the
    /// log. Called by the engine on shutdown; idempotent. Waiters on
    /// records the final drain covers are acked `Ok`; anything that
    /// can no longer be flushed surfaces as [`WalError::Closed`] or as
    /// the error that stopped the log, never a hang.
    pub fn close(&self) {
        let last = {
            let mut st = self.lock();
            st.closing = true;
            st.next_lsn - 1
        };
        // Wake waiters on records never submitted: they see the close.
        self.durable_ev.notify();
        let _ = self.wait_durable(last);
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.close();
    }
}

// ── Flush-side retry policy ─────────────────────────────────────────
// Transient errors get a short budget: they either clear in
// microseconds or they are not transient. ENOSPC gets a longer one,
// eight rounds, because the cure (space freed outside the log) takes
// longer to arrive.
const TRANSIENT_BASE: Duration = Duration::from_micros(200);
const TRANSIENT_MAX: Duration = Duration::from_millis(2);
const TRANSIENT_ATTEMPTS: u32 = 4;
const SPACE_BASE: Duration = Duration::from_micros(500);
const SPACE_MAX: Duration = Duration::from_millis(8);
const SPACE_ATTEMPTS: u32 = 8;

/// Appends one coalesced chunk, absorbing transient errors under
/// bounded backoff. `ENOSPC` returns [`WalError::NoSpace`] for the
/// flusher to park on; any other error is terminal for the log.
fn append_with_retry(wal: &Wal, seg: u64, bytes: &[u8]) -> Result<(), WalError> {
    let mut transient = Backoff::new(TRANSIENT_BASE, TRANSIENT_MAX, TRANSIENT_ATTEMPTS);
    loop {
        match wal.storage.append(seg, bytes) {
            Ok(()) => return Ok(()),
            Err(StorageError::Transient(e)) => {
                wal.stats.append_retries.fetch_add(1, Ordering::Relaxed);
                let Some(d) = transient.next_delay() else {
                    return Err(WalError::Io(format!(
                        "transient append error persisted past the retry budget: {e}"
                    )));
                };
                if wal.lock().fail.is_some() {
                    return Err(WalError::Crashed);
                }
                wal.rt.sleep(d);
            }
            Err(StorageError::NoSpace { .. }) => return Err(WalError::NoSpace),
            Err(StorageError::FsyncFailed(e)) => return Err(WalError::Poisoned(e)),
            Err(StorageError::Permanent(e)) => return Err(WalError::Io(e)),
        }
    }
}

/// Syncs every segment a batch touched. **Never retries a failed
/// fsync**: after the failure the page cache is unknowable (dirty
/// pages may already be dropped), so a "successful" retry could
/// acknowledge data that is gone — the fsyncgate failure mode. The
/// planted `retry_after_fsync_fail` bug exists precisely to prove the
/// test battery catches anyone reintroducing that retry.
fn fsync_batch(wal: &Wal, segs: &[u64]) -> Result<(), WalError> {
    for &seg in segs {
        if let Err(e) = wal.storage.fsync(seg) {
            #[cfg(feature = "planted")]
            {
                if crate::planted::retry_after_fsync_fail_bug() && wal.storage.fsync(seg).is_ok() {
                    // BUG (planted): treating the retried fsync as
                    // success acknowledges records whose bytes the
                    // kernel already dropped — silent data loss the
                    // disk-fault battery must detect.
                    continue;
                }
            }
            return Err(WalError::Poisoned(e.to_string()));
        }
    }
    Ok(())
}

/// Leads one flush: claims it and the whole pending queue, writes and
/// syncs with no log lock held, then publishes the outcome (durable,
/// [`park`]ed on `ENOSPC`, or stopped) and wakes every waiter. The
/// chunks appended before an `ENOSPC` are synced and made durable like
/// a whole batch: that can retire the segments they supersede, which
/// frees the bytes the parked rest needs.
fn flush(wal: &Wal, mut st: MutexGuard<'_, WalState>) {
    let mut chunks = std::mem::take(&mut st.pending);
    st.writing.extend(chunks.iter().map(|c| c.seg));
    drop(st);
    let t0 = wal.rt.now();
    let mut done = 0;
    let mut io = chunks.iter().try_for_each(|c| {
        append_with_retry(wal, c.seg, &c.bytes)?;
        done += 1;
        Ok(())
    });
    if wal.cfg.fsync && done > 0 && matches!(io, Ok(()) | Err(WalError::NoSpace)) {
        // In segment order: a segment repeats only back to back.
        let mut segs: Vec<u64> = chunks[..done].iter().map(|c| c.seg).collect();
        segs.dedup();
        if let Err(e) = fsync_batch(wal, &segs) {
            io = Err(e);
        }
    }
    let flush_nanos = wal.rt.now().saturating_sub(t0).as_nanos() as u64;

    let mut st = wal.lock();
    st.writing.clear();
    let durable = match io {
        Ok(()) | Err(WalError::NoSpace) => done,
        Err(_) => 0,
    };
    let unwritten = chunks.split_off(durable);
    match io {
        Ok(()) => st.parked = None,
        // A crash executed meanwhile: what stopped the batch is the
        // crash, and the crash discards the rest.
        Err(WalError::NoSpace) if st.fail.is_some() => wal.stop(&mut st, WalError::Crashed),
        Err(WalError::NoSpace) => {
            if durable > 0 {
                // Each chunk gets the whole escalation window: an
                // append that went through restarts the budget.
                st.parked = None;
            }
            park(wal, &mut st, unwritten);
        }
        Err(e) => wal.stop(&mut st, e),
    }
    if let Some(last) = chunks.last() {
        let nrec: u64 = chunks.iter().map(|c| c.recs).sum();
        for c in &chunks {
            if let Some(m) = st.segments.get_mut(&c.seg) {
                m.durable += c.bytes.len() as u64;
            }
        }
        st.durable_lsn = last.last_lsn;
        wal.stats.flushes.fetch_add(1, Ordering::Relaxed);
        wal.stats.records.fetch_add(nrec, Ordering::Relaxed);
        wal.stats.batch_hist[batch_bucket(nrec)].fetch_add(1, Ordering::Relaxed);
        wal.stats.flush_hist[flush_bucket(flush_nanos)].fetch_add(1, Ordering::Relaxed);
        collect_dead(&mut st, wal);
    }
    drop(st);
    wal.durable_ev.notify();
}

/// Parks the chunks the device refused at the head of the queue, for
/// a waiter to retry once the backoff has passed. The flush is
/// released before its leader sleeps out the backoff (an armed crash
/// waits for the running flush under shard locks), so the two cannot
/// deadlock.
fn park(wal: &Wal, st: &mut WalState, unwritten: Vec<Chunk>) {
    let mut budget = st.parked.map_or_else(
        || Backoff::new(SPACE_BASE, SPACE_MAX, SPACE_ATTEMPTS),
        |(budget, _)| budget,
    );
    let Some(d) = budget.next_delay() else {
        return wal.stop(st, WalError::NoSpace);
    };
    st.parked = Some((budget, wal.rt.now() + d));
    st.pending.splice(0..0, unwritten);
}
