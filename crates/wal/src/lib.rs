//! `deltx-wal` — durability for the deletion-centric engine.
//!
//! A segmented write-ahead log whose checkpointing *is* the paper's
//! deletion machinery. Three ideas, all in the `log` module:
//!
//! - **Group commit** ([`Wal::submit_commit`] /
//!   [`Wal::wait_durable_with`]): commit records are enqueued under the
//!   committing session's shard locks (log order = serialization order
//!   for conflicting commits) and flushed in batches by the first
//!   waiter to find no flush running — there is no writer thread; a
//!   session's commit backpressure is exactly "wait for the fsync
//!   covering my LSN".
//! - **GC-driven checkpointing** ([`Wal::note_deleted`]): when the
//!   engine's noncurrent rule deletes a transaction `D(G,N)`
//!   and truncates its versions, the WAL decrements that commit's
//!   segment live count; a sealed all-dead segment is removed once
//!   every commit that superseded its writes is durable (its
//!   superseded ceiling). The log stays bounded by the live graph —
//!   recovery is `O(live)`, not `O(history)`, the durability analogue
//!   of Theorem 2.
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
//! Why truncation is safe: the noncurrent deletion policy never
//! deletes the *current* writer of any entity (Corollary 1's test),
//! so every entity's current-value commit record survives in some
//! live segment. Replaying the surviving records in LSN order
//! therefore rebuilds the exact final value of every entity;
//! overwritten intermediate values are lost, which is precisely the
//! contract of `Store::truncate_versions_in`.

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
