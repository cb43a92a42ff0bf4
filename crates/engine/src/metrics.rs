//! Engine metrics: lock-free counters sampled into snapshots.
//!
//! Counters are plain relaxed atomics — they order nothing, they only
//! count — and a [`MetricsSnapshot`] is a consistent-enough read for
//! dashboards and tests. Graph-size *gauges* (`live_txns`) are
//! maintained by the engine under its shard locks, so the live-graph
//! bound the paper promises is directly observable.

use deltx_sched::StateSize;
use deltx_wal::WalStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Duration;

/// Relaxed-ordering counter cell.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Locks a registry stripe, counting the times the lock was already
/// held (the registry-slot contention signal: how often two operations
/// actually collided on the striped span registry).
pub(crate) fn lock_counted<'a, T>(m: &'a Mutex<T>, contended: &Counter) -> MutexGuard<'a, T> {
    match m.try_lock() {
        Ok(g) => g,
        Err(TryLockError::WouldBlock) => {
            contended.add(1);
            m.lock().unwrap()
        }
        Err(TryLockError::Poisoned(_)) => m.lock().unwrap(),
    }
}

/// Number of buckets in the escalated-subset-size histogram.
pub const SUBSET_HIST_BUCKETS: usize = 8;

/// Upper bounds (inclusive) of the subset-size histogram buckets:
/// 1, 2, 3, 4, 5–8, 9–16, 17–32, 33+.
const SUBSET_HIST_BOUNDS: [usize; SUBSET_HIST_BUCKETS - 1] = [1, 2, 3, 4, 8, 16, 32];

/// Histogram bucket index for a subset/closure of `locked` shards —
/// one bucketing rule shared by the escalation and GC histograms.
fn subset_bucket(locked: usize) -> usize {
    SUBSET_HIST_BOUNDS
        .iter()
        .position(|&hi| locked <= hi)
        .unwrap_or(SUBSET_HIST_BUCKETS - 1)
}

/// Number of buckets in the summary-update latency histogram.
pub const SUMMARY_HIST_BUCKETS: usize = 8;

/// Upper bounds (inclusive, nanoseconds) of the summary-update
/// histogram buckets: ≤250ns, ≤1µs, ≤4µs, ≤16µs, ≤64µs, ≤256µs,
/// ≤1ms, >1ms.
const SUMMARY_HIST_BOUNDS_NANOS: [u64; SUMMARY_HIST_BUCKETS - 1] =
    [250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000];

fn summary_bucket(nanos: u64) -> usize {
    SUMMARY_HIST_BOUNDS_NANOS
        .iter()
        .position(|&hi| nanos <= hi)
        .unwrap_or(SUMMARY_HIST_BUCKETS - 1)
}

/// The engine's metric registry (one per engine, shared by every
/// session).
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    pub commits: Counter,
    pub aborts_scheduler: Counter,
    pub aborts_voluntary: Counter,
    pub reads: Counter,
    pub entities_written: Counter,
    pub fast_path_ops: Counter,
    pub escalated_ops: Counter,
    pub escalated_partial: Counter,
    pub escalation_fallbacks: Counter,
    pub escalated_locks_taken: Counter,
    pub escalated_subset_hist: [Counter; SUBSET_HIST_BUCKETS],
    pub boundary_underflows: Counter,
    pub gc_sweeps: Counter,
    pub gc_deletions: Counter,
    pub gc_ghosts: Counter,
    pub gc_source_deletions: Counter,
    pub gc_pause_nanos: Counter,
    pub gc_partial_sweeps: Counter,
    pub gc_closure_locks_taken: Counter,
    pub gc_closure_hist: [Counter; SUBSET_HIST_BUCKETS],
    /// Total nanoseconds spent flushing batched boundary-summary
    /// propagation, and the latency histogram over those flush spans.
    pub summary_update_nanos: Counter,
    pub summary_updates: Counter,
    pub summary_update_hist: [Counter; SUMMARY_HIST_BUCKETS],
    /// Times a registry stripe was found already locked.
    pub registry_slot_contention: Counter,
    /// Widest any shard's boundary-txn index has grown (slots).
    pub boundary_index_hwm: AtomicU64,
    /// Distinct live transactions across all shards (gauge; updated
    /// under shard locks).
    pub live_txns: Counter,
    /// High-water mark of `live_txns`.
    pub peak_live_txns: AtomicU64,
    /// Writing commits rejected because the WAL is no longer healthy
    /// (degraded read-only mode).
    pub degraded_commit_rejections: Counter,
    /// Session-path shard-lock acquisitions that found the lock held,
    /// by the phase that got it: spinning, yielding, or parked.
    pub shard_lock_spun: Counter,
    pub shard_lock_yielded: Counter,
    pub shard_lock_parked: Counter,
}

impl EngineMetrics {
    /// Records one escalated lock acquisition of `locked` of `total`
    /// shard locks (histogram + partial/full split).
    pub(crate) fn record_escalation(&self, locked: usize, total: usize) {
        self.escalated_locks_taken.add(locked as u64);
        if locked < total {
            self.escalated_partial.add(1);
        }
        self.escalated_subset_hist[subset_bucket(locked)].add(1);
    }

    /// Records one multi-shard GC lock acquisition of `locked` of
    /// `total` shard locks (closure histogram + partial counter).
    pub(crate) fn record_gc_closure(&self, locked: usize, total: usize) {
        self.gc_closure_locks_taken.add(locked as u64);
        if locked < total {
            self.gc_partial_sweeps.add(1);
        }
        self.gc_closure_hist[subset_bucket(locked)].add(1);
    }

    /// Records one summary flush span.
    pub(crate) fn record_summary_update(&self, nanos: u64) {
        self.summary_update_nanos.add(nanos);
        self.summary_updates.add(1);
        self.summary_update_hist[summary_bucket(nanos)].add(1);
    }

    /// Folds one shard's boundary-index high-water mark into the
    /// engine-wide gauge.
    pub(crate) fn note_boundary_index_hwm(&self, slots: usize) {
        self.boundary_index_hwm
            .fetch_max(slots as u64, Ordering::Relaxed);
    }

    pub(crate) fn txn_became_live(&self) {
        let now = self.live_txns.0.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_live_txns.fetch_max(now, Ordering::Relaxed);
    }

    pub(crate) fn txns_left(&self, n: u64) {
        self.live_txns.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, graph: StateSize, wal: Option<WalStats>) -> MetricsSnapshot {
        MetricsSnapshot {
            commits: self.commits.get(),
            aborts_scheduler: self.aborts_scheduler.get(),
            aborts_voluntary: self.aborts_voluntary.get(),
            reads: self.reads.get(),
            entities_written: self.entities_written.get(),
            fast_path_ops: self.fast_path_ops.get(),
            escalated_ops: self.escalated_ops.get(),
            escalated_partial: self.escalated_partial.get(),
            escalation_fallbacks: self.escalation_fallbacks.get(),
            escalated_locks_taken: self.escalated_locks_taken.get(),
            escalated_subset_hist: std::array::from_fn(|i| self.escalated_subset_hist[i].get()),
            boundary_underflows: self.boundary_underflows.get(),
            gc_sweeps: self.gc_sweeps.get(),
            gc_deletions: self.gc_deletions.get(),
            gc_ghosts: self.gc_ghosts.get(),
            gc_source_deletions: self.gc_source_deletions.get(),
            gc_partial_sweeps: self.gc_partial_sweeps.get(),
            gc_closure_locks_taken: self.gc_closure_locks_taken.get(),
            gc_closure_hist: std::array::from_fn(|i| self.gc_closure_hist[i].get()),
            summary_update_nanos: self.summary_update_nanos.get(),
            summary_updates: self.summary_updates.get(),
            summary_update_hist: std::array::from_fn(|i| self.summary_update_hist[i].get()),
            registry_slot_contention: self.registry_slot_contention.get(),
            boundary_index_hwm: self.boundary_index_hwm.load(Ordering::Relaxed),
            gc_pause: Duration::from_nanos(self.gc_pause_nanos.get()),
            live_txns: self.live_txns.get(),
            peak_live_txns: self.peak_live_txns.load(Ordering::Relaxed),
            degraded_commit_rejections: self.degraded_commit_rejections.get(),
            shard_lock_spun: self.shard_lock_spun.get(),
            shard_lock_yielded: self.shard_lock_yielded.get(),
            shard_lock_parked: self.shard_lock_parked.get(),
            wal,
            graph,
        }
    }
}

/// A point-in-time reading of the engine's counters and gauges.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted by cycle rejection.
    pub aborts_scheduler: u64,
    /// Transactions rolled back by the client (or dropped sessions).
    pub aborts_voluntary: u64,
    /// Read operations served.
    pub reads: u64,
    /// Entities installed by commits.
    pub entities_written: u64,
    /// Operations that ran under a single shard lock with the
    /// shard-local cycle check: the per-operation gate found the
    /// transaction sealed (its shard has no boundary node, or its own
    /// node reaches none).
    pub fast_path_ops: u64,
    /// Operations that could not take the fast path — the transaction
    /// spans shards, is a boundary node, or reaches one — and ran the
    /// union cycle check under escalated lock acquisitions (own
    /// shards, grown and retaken after a fallback).
    pub escalated_ops: u64,
    /// Escalated lock acquisitions that locked a **strict subset** of
    /// the shards: the operation's own shards (the ones it touches plus
    /// the transaction's registered span).
    pub escalated_partial: u64,
    /// Escalated operations whose first lock set turned out too small
    /// under the held locks (the registered span had grown, or the
    /// cycle-check BFS met twins in unlocked shards): the set was grown
    /// by the missing shards and retaken, once or more — counted once.
    pub escalation_fallbacks: u64,
    /// Total shard locks taken across escalated acquisitions (a
    /// fallback counts every one of its acquisitions); divided by the
    /// histogram's total count this is the mean lock-set size.
    pub escalated_locks_taken: u64,
    /// Histogram of escalated lock-set sizes. Buckets: 1, 2, 3, 4,
    /// 5–8, 9–16, 17–32, 33+ locks per acquisition.
    pub escalated_subset_hist: [u64; SUBSET_HIST_BUCKETS],
    /// Nodes of registered (multi-shard) transactions that carried no
    /// boundary mark when an abort or a multi-shard deletion removed
    /// them: the registry and the marks disagreed. Always 0 unless
    /// there is a bookkeeping bug.
    pub boundary_underflows: u64,
    /// Standalone runs of the multi-shard pass — by the committer that
    /// brought the pending set to its threshold, or by an explicit
    /// [`crate::Engine::gc_sweep`] (recovery's included). Deletions
    /// made at the source, under a commit's own locks, are not sweeps.
    pub gc_sweeps: u64,
    /// Completed transactions deleted from the live graph.
    pub gc_deletions: u64,
    /// Ghost nodes materialized for cross-shard bridges.
    pub gc_ghosts: u64,
    /// Of `gc_deletions`, the single-shard transactions deleted
    /// because they had no predecessor (Lemma 1); the rest went by
    /// Corollary 1's noncurrent test.
    pub gc_source_deletions: u64,
    /// Multi-shard GC acquisitions that locked a **strict subset** of
    /// the shards (a lead candidate's own span).
    pub gc_partial_sweeps: u64,
    /// Total shard locks taken across multi-shard GC acquisitions;
    /// divided by the closure histogram's total count this is the mean
    /// GC closure size.
    pub gc_closure_locks_taken: u64,
    /// Histogram of multi-shard GC lock-closure sizes. Buckets: 1, 2,
    /// 3, 4, 5–8, 9–16, 17–32, 33+ locks per acquisition.
    pub gc_closure_hist: [u64; SUBSET_HIST_BUCKETS],
    /// Total nanoseconds spent flushing batched summary propagation —
    /// the maintenance tax escalated operations and GC pay for the
    /// fast-path gate, measured directly (sealed fast-path operations
    /// have nothing to flush).
    pub summary_update_nanos: u64,
    /// Number of summary flush spans measured (one per shard whose
    /// batch had work queued).
    pub summary_updates: u64,
    /// Latency histogram of those spans. Buckets: ≤250ns, ≤1µs, ≤4µs,
    /// ≤16µs, ≤64µs, ≤256µs, ≤1ms, >1ms.
    pub summary_update_hist: [u64; SUMMARY_HIST_BUCKETS],
    /// Times a stripe of the span registry was found already locked.
    pub registry_slot_contention: u64,
    /// High-water mark of any shard's boundary-txn index, in slots:
    /// the widest a reach bitmask has had to grow.
    pub boundary_index_hwm: u64,
    /// Total wall-clock time GC spent holding shard locks.
    pub gc_pause: Duration,
    /// Distinct live transactions in the conflict graph right now.
    pub live_txns: u64,
    /// High-water mark of `live_txns`.
    pub peak_live_txns: u64,
    /// Writing commits rejected at the degraded-mode gate: the WAL
    /// had already stopped (fsync poisoning, crash, terminal ENOSPC,
    /// I/O failure) so the commit was refused with
    /// [`crate::EngineError::Durability`] before touching any shard.
    pub degraded_commit_rejections: u64,
    /// Session-path shard-lock acquisitions that found the lock held
    /// and got it while spinning (see `EngineInner::lock_shard`).
    /// Uncontended acquisitions count nowhere, so the three
    /// `shard_lock_*` fields sum to the collisions.
    pub shard_lock_spun: u64,
    /// Contended session-path acquisitions that got the lock in the
    /// yield phase, after the spins ran out.
    pub shard_lock_yielded: u64,
    /// Contended session-path acquisitions that outlasted both phases
    /// and parked in the blocking `lock()`.
    pub shard_lock_parked: u64,
    /// WAL activity counters (`None` when durability is off): flushes,
    /// group-commit batch sizes, segments created/truncated.
    pub wal: Option<WalStats>,
    /// Union-graph size (nodes include ghosts; arcs include bridges).
    pub graph: StateSize,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "commits {} | sched-aborts {} | client-aborts {} | reads {}",
            self.commits, self.aborts_scheduler, self.aborts_voluntary, self.reads
        )?;
        writeln!(
            f,
            "fast-path {} | escalated {} | live txns {} (peak {}) | graph {} nodes / {} arcs",
            self.fast_path_ops,
            self.escalated_ops,
            self.live_txns,
            self.peak_live_txns,
            self.graph.nodes,
            self.graph.arcs
        )?;
        let acquisitions: u64 = self.escalated_subset_hist.iter().sum();
        let mean = if acquisitions == 0 {
            0.0
        } else {
            self.escalated_locks_taken as f64 / acquisitions as f64
        };
        writeln!(
            f,
            "escalation: {} own-shards / {} acquisitions (mean {:.1} locks, fallbacks {}), \
             lock-set hist [1|2|3|4|≤8|≤16|≤32|>32] = {:?}, boundary underflows {}",
            self.escalated_partial,
            acquisitions,
            mean,
            self.escalation_fallbacks,
            self.escalated_subset_hist,
            self.boundary_underflows
        )?;
        writeln!(
            f,
            "gc: {} sweeps, {} deletions ({} sources), {} ghosts, {:?} total pause",
            self.gc_sweeps,
            self.gc_deletions,
            self.gc_source_deletions,
            self.gc_ghosts,
            self.gc_pause
        )?;
        let gc_acqs: u64 = self.gc_closure_hist.iter().sum();
        let gc_mean = if gc_acqs == 0 {
            0.0
        } else {
            self.gc_closure_locks_taken as f64 / gc_acqs as f64
        };
        writeln!(
            f,
            "gc closures: {} partial / {} acquisitions (mean {:.1} locks), \
             closure hist [1|2|3|4|≤8|≤16|≤32|>32] = {:?}",
            self.gc_partial_sweeps, gc_acqs, gc_mean, self.gc_closure_hist
        )?;
        let mean_ns = if self.summary_updates == 0 {
            0.0
        } else {
            self.summary_update_nanos as f64 / self.summary_updates as f64
        };
        write!(
            f,
            "summary: {} updates (mean {:.0} ns, total {:?}), \
             hist [≤250ns|≤1µs|≤4µs|≤16µs|≤64µs|≤256µs|≤1ms|>1ms] = {:?}, \
             boundary index hwm {} slots, registry-slot contention {}",
            self.summary_updates,
            mean_ns,
            Duration::from_nanos(self.summary_update_nanos),
            self.summary_update_hist,
            self.boundary_index_hwm,
            self.registry_slot_contention
        )?;
        write!(
            f,
            "\nshard-lock collisions: {} won spinning, {} won yielding, {} parked",
            self.shard_lock_spun, self.shard_lock_yielded, self.shard_lock_parked
        )?;
        if let Some(w) = &self.wal {
            write!(
                f,
                "\nwal: {} flushes / {} records (mean batch {:.1}), \
                 batch hist [1|2|3|4|≤8|≤16|≤32|>32] = {:?}, \
                 {} segments created / {} truncated ({} live), \
                 durable lsn {}",
                w.flushes,
                w.records,
                w.mean_batch(),
                w.batch_hist,
                w.segments_created,
                w.segments_truncated,
                w.segments_live,
                w.durable_lsn,
            )?;
            write!(
                f,
                "\nwal faults: {} append retries, flush p50 {:?} / p99 {:?}, \
                 {} degraded-commit rejections",
                w.append_retries,
                Duration::from_nanos(w.flush_quantile_nanos(0.50)),
                Duration::from_nanos(w.flush_quantile_nanos(0.99)),
                self.degraded_commit_rejections
            )?;
        }
        Ok(())
    }
}
