//! `deltx-wal` — durability for the deletion-centric engine.
//!
//! A segmented write-ahead log that checkpoints by supersession and
//! takes no orders from the conflict graph. Three ideas, all in the
//! `log` module:
//!
//! - **Group commit** ([`Wal::submit_commit`] / [`Wal::wait_durable`]):
//!   commit records are enqueued under the committing session's shard
//!   locks (log order = serialization order for conflicting commits)
//!   and flushed in batches by the first waiter to find no flush
//!   running — there is no writer thread; a session's commit
//!   backpressure is exactly "wait for the fsync covering my LSN".
//! - **Supersession is the checkpoint**: each segment counts the
//!   entities whose newest logged write it holds, updated at submit. A
//!   sealed segment whose count reaches zero is removed once every
//!   record that superseded its writes is durable (its superseded
//!   ceiling). The log stays bounded by the entities written —
//!   recovery is `O(entities)`, not `O(history)` — whatever the engine
//!   deletes from its graph, current writers included.
//! - **Crash-point fault injection** ([`Wal::arm_crash`],
//!   [`CrashPoint`]): a planted crash executes inside the commit path,
//!   discards un-flushed batches, and tampers the on-disk tail to
//!   match the scenario, so recovery tests exercise exactly the disk
//!   images real kills produce.
//!
//! The `record` module holds the one on-disk record type,
//! [`CommitRecord`], and its framing; `storage` holds the
//! [`WalStorage`] seam every byte goes through, with the
//! [`FaultyStorage`] fault injector.
//!
//! Why retirement is safe: a segment goes only when every entity it
//! wrote has a newer durable record elsewhere, so every entity's
//! newest record survives in some segment. Replaying the surviving
//! records in LSN order therefore rebuilds the exact final value of
//! every entity; overwritten intermediate values are lost, and the
//! engine's store keeps none either (one value per entity).

mod log;
mod record;
mod storage;

pub use crate::log::{
    CrashPoint, DurabilityConfig, QuarantinedSegment, RecoverPolicy, RecoveryScan, Wal, WalError,
    WalHealth, WalStats, ALL_CRASH_POINTS, FLUSH_BUCKET_UPPER_NANOS,
};
pub use crate::record::{crc32, decode, encode_commit, CommitRecord, DecodeError};
pub use crate::storage::{
    FaultSpec, FaultyStorage, FsStorage, StorageError, StorageResult, WalStorage, SECTOR_BYTES,
};

/// Deliberately-buggy variants of WAL internals, compiled only under
/// the `planted` feature. They exist to prove the disk-fault battery
/// has teeth: flipping one on must make a documented test fail.
#[cfg(feature = "planted")]
pub mod planted {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RETRY_AFTER_FSYNC_FAIL: AtomicBool = AtomicBool::new(false);

    /// Plants (or clears) the "retry after a failed fsync" bug: the
    /// flusher retries the fsync once and, if the retry reports
    /// success, acknowledges the batch. On a device that dropped its
    /// dirty pages at the first failure (the fsyncgate semantics the
    /// `FaultyStorage` injector models), this silently loses every
    /// record since the last good sync — exactly what the fail-stop
    /// poisoning policy forbids.
    pub fn set_retry_after_fsync_fail_bug(on: bool) {
        RETRY_AFTER_FSYNC_FAIL.store(on, Ordering::SeqCst);
    }

    /// Whether the retry-after-fsync-fail bug is active.
    pub fn retry_after_fsync_fail_bug() -> bool {
        RETRY_AFTER_FSYNC_FAIL.load(Ordering::Relaxed)
    }
}
