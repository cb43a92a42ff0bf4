//! The engine shell: configuration, construction, the public
//! [`Engine`] handle, and the shard/lock plumbing every regime shares.
//!
//! The regimes themselves live next door: [`crate::ops`] (fast path and
//! escalated session operations), [`crate::coord`] (the coordination
//! registry), [`crate::gc`] (single- and multi-shard deletion) and
//! [`crate::recovery`] (WAL replay).

use crate::coord::Coordination;
use crate::error::EngineError;
use crate::history::{Event, RecordedHistory};
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::session::Session;
use deltx_core::{Applied, CgState};
use deltx_model::{EntityId, Op, Step, TxnId};
use deltx_runtime::{OsRuntime, Runtime};
use deltx_sched::StateSize;
use deltx_storage::{Store, Value};
use deltx_wal::{CrashPoint, DurabilityConfig, RecoveryScan, Wal, WalHealth, WalStats};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Duration;

/// Engine construction parameters. There is deliberately no deletion
/// policy among them: the engine deletes completed sources (Lemma 1)
/// and noncurrent transactions (Corollary 1), with and without a WAL —
/// the log retires records by supersession and takes no orders from
/// the graph (`docs/durability.md` §3). Nor is there a GC thread to
/// configure: every deletion is made by the commit that enabled it.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of entity partitions (each with its own lock, conflict
    /// graph, and store).
    pub shards: usize,
    /// Record the linearized step history (for replay verification;
    /// costs one mutex append per operation).
    pub record_history: bool,
    /// Opt-in durability: a write-ahead log under the given directory.
    /// Commits block until their record's group-commit flush; opening
    /// an engine over an existing log replays the surviving commits
    /// (see [`Engine::open`]). `None` (the default) keeps the engine
    /// purely in-memory.
    pub durability: Option<DurabilityConfig>,
    /// Host runtime for every clock read, sleep, yield point and
    /// blocking wait the engine (and its WAL) performs. The default
    /// [`OsRuntime`] uses the monotonic clock and condvars; the
    /// simulation testkit substitutes a seeded virtual scheduler so
    /// whole concurrent runs replay deterministically.
    pub runtime: Arc<dyn Runtime>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            record_history: false,
            durability: None,
            runtime: OsRuntime::shared(),
        }
    }
}

/// What [`Engine::open`] rebuilt from the write-ahead log.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Committed transactions replayed into the fresh engine.
    pub commits_replayed: u64,
    /// What the log's recovery scrub found on disk: torn tails cut,
    /// segments dropped or quarantined with their lost LSN ranges, the
    /// highest surviving LSN. All zeros for a non-durable engine.
    pub scan: RecoveryScan,
    /// Wall-clock time of the whole open: scan + replay + the
    /// checkpointing GC sweep.
    pub elapsed: Duration,
}

/// One partition: the conflict graph and store for the entities it
/// owns. The graph's boundary marks — one per live node of a
/// multi-shard transaction, ghosts included — are the fast-path gate's
/// input (see [`EngineInner::sealed`]).
pub(crate) struct Shard {
    pub(crate) cg: CgState,
    pub(crate) store: Store,
}

#[cfg(test)]
thread_local! {
    /// Shard-mutex acquisitions made by this thread, so a unit test can
    /// count what an operation took (the guard hand-off into `escalate`).
    pub(crate) static SHARD_LOCKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Failed `try_lock`s, a `spin_loop` hint after each, before
/// [`EngineInner::lock_shard`] starts yielding. Sized for the holds
/// deletion at the source leaves (a commit's critical section, ~2–4 µs).
/// Measured on 2 cores, `perf` median `txn_per_s` over seeds 31–33:
/// 100 spins + 20 yields with per-commit deletion took `local` from
/// 217k to 295k; the same spinning against the old 32-candidate
/// batches (~80 µs holds) gained 4 %, per-commit deletion without it
/// 5 %. Not longer: 2 000 pure spins cost `durable` 17 % (94k → 78k,
/// seeds 61–64) — 8 sessions and the log writer oversubscribe the
/// cores, and a spinner burns the timeslice the holder needs.
const LOCK_SPINS: u32 = 100;
/// `yield_now` rounds after the spins and before parking: hands the
/// core to a descheduled holder instead of spinning against it (the
/// `durable` trap above).
const LOCK_YIELDS: u32 = 20;

/// Shard locks held by one operation, ascending by shard index — the
/// order every path acquires them in. The lowest is held inline, so
/// the fast path's single guard costs no allocation.
pub(crate) struct Guards<'a> {
    low: Option<(usize, MutexGuard<'a, Shard>)>,
    high: Vec<(usize, MutexGuard<'a, Shard>)>,
}

impl<'a> Guards<'a> {
    pub(crate) fn len(&self) -> usize {
        usize::from(self.low.is_some()) + self.high.len()
    }

    /// The locked shards, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &Shard)> {
        let all = self.low.iter().chain(&self.high);
        all.map(|(s, g)| (*s, &**g))
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Shard> + use<'_, 'a> {
        let all = self.low.iter_mut().chain(&mut self.high);
        all.map(|(_, g)| &mut **g)
    }

    /// Shard `s`, if its lock is held.
    pub(crate) fn get(&self, s: usize) -> Option<&Shard> {
        self.iter().find_map(|(t, g)| (t == s).then_some(g))
    }

    pub(crate) fn get_mut(&mut self, s: usize) -> Option<&mut Shard> {
        let mut all = self.low.iter_mut().chain(&mut self.high);
        all.find_map(|(t, g)| (*t == s).then_some(&mut **g))
    }
}

impl<'a> FromIterator<(usize, MutexGuard<'a, Shard>)> for Guards<'a> {
    /// Holds guards taken in ascending shard order.
    fn from_iter<I: IntoIterator<Item = (usize, MutexGuard<'a, Shard>)>>(guards: I) -> Self {
        let mut guards = guards.into_iter();
        let low = guards.next();
        let high = guards.collect();
        Guards { low, high }
    }
}

impl std::ops::Index<usize> for Guards<'_> {
    type Output = Shard;

    fn index(&self, s: usize) -> &Shard {
        self.get(s).expect("shard is locked")
    }
}

pub(crate) struct EngineInner {
    pub(crate) shards: Vec<Mutex<Shard>>,
    pub(crate) coord: Coordination,
    /// Multi-shard transactions awaiting a GC decision.
    pub(crate) pending_multi: Mutex<BTreeSet<TxnId>>,
    history: Option<Mutex<RecordedHistory>>,
    pub(crate) metrics: EngineMetrics,
    /// The write-ahead log (durability on) — see the commit path for
    /// the submit-under-locks / wait-after-release protocol.
    pub(crate) wal: Option<Arc<Wal>>,
    pub(crate) next_txn: AtomicU32,
    /// Host runtime: clock for the duration metrics and yield points
    /// on the operation entries. The engine starts no task of its own.
    pub(crate) rt: Arc<dyn Runtime>,
}

/// The engine: construct once, [`Engine::begin`] sessions from any
/// thread. Dropping the engine closes the write-ahead log, if any.
pub struct Engine {
    pub(crate) inner: Arc<EngineInner>,
}

impl Engine {
    /// Builds an engine per `cfg`. With durability configured this
    /// opens (and possibly recovers) the log — panics if the log cannot
    /// be opened; use [`Engine::open`] to handle that and to see the
    /// recovery report.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine::open(cfg).expect("open engine").0
    }

    /// Builds an engine per `cfg`, recovering from the write-ahead log
    /// when durability is configured: surviving commit records are
    /// replayed in LSN order into the fresh shards through the live
    /// commit body (conflict graph, store values, multi-shard
    /// registry), so each replayed commit deletes what it made
    /// deletable as a live commit would. One GC sweep then takes the
    /// multi-shard candidates the replay's locks did not cover. The
    /// report says what was rebuilt; for a non-durable engine it is all
    /// zeros.
    ///
    /// Recovery is `O(entities)`, not `O(history)`: the log unlinked
    /// every sealed segment whose entities all have a newer durable
    /// record, and it never retires an entity's newest record, so
    /// replaying what remains in LSN order ends on every current value
    /// exactly.
    pub fn open(cfg: EngineConfig) -> Result<(Self, RecoveryReport), EngineError> {
        let rt = Arc::clone(&cfg.runtime);
        let t0 = rt.now();
        let (wal, commits, scan) = match &cfg.durability {
            Some(d) => {
                let (w, commits, scan) = Wal::open_on(d.clone(), Arc::clone(&rt))
                    .map_err(|e| EngineError::Durability(format!("open log: {e}")))?;
                (Some(Arc::new(w)), commits, scan)
            }
            None => (None, Vec::new(), RecoveryScan::default()),
        };
        let engine = Self::build(cfg, wal);
        let replayed = engine.inner.replay_commits(&commits);
        if replayed > 0 {
            // The multi-shard residue: candidates no replayed commit's
            // locks covered go now, truncating their segments.
            engine.inner.gc_sweep();
        }
        let report = RecoveryReport {
            commits_replayed: replayed,
            scan,
            elapsed: rt.now().saturating_sub(t0),
        };
        Ok((engine, report))
    }

    fn build(cfg: EngineConfig, wal: Option<Arc<Wal>>) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let inner = Arc::new(EngineInner {
            shards: (0..cfg.shards)
                .map(|_| {
                    let mut cg = CgState::new();
                    cg.set_gc_tracking(true);
                    Mutex::new(Shard {
                        cg,
                        store: Store::new(),
                    })
                })
                .collect(),
            coord: Coordination::new(),
            pending_multi: Mutex::new(BTreeSet::new()),
            history: cfg
                .record_history
                .then(|| Mutex::new(RecordedHistory::default())),
            metrics: EngineMetrics::default(),
            wal,
            next_txn: AtomicU32::new(1),
            rt: cfg.runtime,
        });
        Self { inner }
    }

    /// Starts a new transaction.
    pub fn begin(&self) -> Session {
        Session::new(Arc::clone(&self.inner), self.inner.begin_txn())
    }

    /// Runs one synchronous GC sweep: a reclaim of every shard's
    /// candidate queue, then the multi-shard pass over whatever is
    /// pending. Commits delete at the source, so under traffic there
    /// is nothing for this to do; it exists for what no commit will
    /// come back for — [`Engine::open`] runs it once after the replay,
    /// and a caller may run it to drain the idle residue (multi-shard
    /// candidates whose closure escaped the committer's locks, fewer
    /// than the 32 that trigger a pass by themselves).
    pub fn gc_sweep(&self) {
        self.inner.gc_sweep();
    }

    /// Audits the incremental reach bitmasks of **every live node**
    /// against the from-scratch DFS oracle
    /// ([`deltx_core::CgState::naive_reach`]), shard by shard. The
    /// masks are what the per-operation fast-path gate reads, where a
    /// missing bit is a missed cross-shard cycle — so a divergence
    /// anywhere is a hard failure.
    /// Returns the first one as an error. Call at quiescence (no
    /// in-flight sessions).
    pub fn summary_audit(&self) -> Result<(), String> {
        for (s, shard) in self.inner.shards.iter().enumerate() {
            let mut g = shard.lock().unwrap();
            g.cg.end_summary_batch();
            let got = g.cg.reach_map();
            let marked: Vec<TxnId> = g.cg.boundary_reach_map().into_keys().collect();
            let want = g.cg.naive_reach(&marked);
            if got != want {
                let diverged: Vec<TxnId> = got
                    .iter()
                    .filter(|(t, set)| want.get(*t) != Some(*set))
                    .map(|(t, _)| *t)
                    .collect();
                return Err(format!(
                    "summary audit: shard {s} reach masks diverged from the naive DFS \
                     oracle for {} of {} live txns, {} marked boundary (first: {:?})",
                    diverged.len(),
                    got.len(),
                    marked.len(),
                    diverged.first()
                ));
            }
        }
        Ok(())
    }

    /// Current metrics, including the union-graph size gauge and the
    /// WAL counters when durability is on.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner
            .metrics
            .snapshot(self.inner.graph_size(), self.wal_stats())
    }

    /// WAL activity counters (`None` when durability is off).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.inner.wal.as_ref().map(|w| w.stats())
    }

    /// Whether the engine is in degraded read-only mode: the
    /// write-ahead log stopped accepting records (fsync poisoning, a
    /// crash, terminal `ENOSPC`, or an I/O failure). Reads keep
    /// working against the in-memory state; commits that write are
    /// rejected with [`EngineError::Durability`] before they touch
    /// the conflict graph. Always `false` for a non-durable engine.
    pub fn degraded(&self) -> bool {
        self.inner
            .wal
            .as_ref()
            .is_some_and(|w| w.health() != WalHealth::Ok)
    }

    /// The WAL's coarse health ([`WalHealth::Ok`] when durability is
    /// off — a purely in-memory engine has nothing to degrade).
    pub fn wal_health(&self) -> WalHealth {
        self.inner
            .wal
            .as_ref()
            .map_or(WalHealth::Ok, |w| w.health())
    }

    /// Arms a crash at `cp`: the next commit's WAL submission executes
    /// the crash instead of appending, after which every durable
    /// commit fails with [`EngineError::Durability`] until the engine
    /// is re-opened over the same directory. For fault-injection
    /// harnesses.
    ///
    /// # Panics
    /// If durability is not configured.
    pub fn inject_crash(&self, cp: CrashPoint) {
        self.inner
            .wal
            .as_ref()
            .expect("inject_crash requires durability")
            .arm_crash(cp);
    }

    /// Union-graph size: distinct nodes (ghost twins counted) and arcs
    /// across all shards.
    pub fn graph_size(&self) -> StateSize {
        self.inner.graph_size()
    }

    /// The recorded history so far (only if
    /// [`EngineConfig::record_history`] was set).
    pub fn recorded_history(&self) -> Option<RecordedHistory> {
        self.inner
            .history
            .as_ref()
            .map(|h| h.lock().unwrap().clone())
    }

    /// The committed value of `x` (current version), outside any
    /// transaction — a dirty-read-free peek for tests and tools.
    pub fn peek(&self, x: u32) -> Value {
        let x = EntityId(x);
        let s = self.inner.shard_of(x);
        self.inner.shards[s].lock().unwrap().store.read(x)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(w) = &self.inner.wal {
            w.close();
        }
    }
}

impl EngineInner {
    pub(crate) fn shard_of(&self, x: EntityId) -> usize {
        x.index() % self.shards.len()
    }

    fn begin_txn(&self) -> TxnId {
        let t = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        self.metrics.txn_became_live();
        self.record_step(Step::new(t, Op::Begin), Applied::Accepted);
        t
    }

    pub(crate) fn record(&self, e: Event) {
        if let Some(h) = &self.history {
            h.lock().unwrap().events.push(e);
        }
    }

    pub(crate) fn record_step(&self, step: Step, outcome: Applied) {
        self.record(Event::Step { step, outcome });
    }

    /// Takes shard `s`'s lock (unit tests count the acquisitions). A
    /// held lock is waited for in three phases — [`LOCK_SPINS`] spins,
    /// [`LOCK_YIELDS`] OS yields, then the blocking `lock()` — because
    /// every hold is a few microseconds (each commit deletes only what
    /// it made deletable) and parking on the futex costs more than
    /// the wait it avoids. None of it goes through the [`Runtime`]:
    /// simulated tasks switch only at `rt` calls, never inside a lock
    /// hold, so there the first `try_lock` always succeeds and every
    /// schedule replays unchanged.
    pub(crate) fn lock_shard(&self, s: usize) -> MutexGuard<'_, Shard> {
        #[cfg(test)]
        SHARD_LOCKS.with(|c| c.set(c.get() + 1));
        let m = &self.shards[s];
        let mut waited = 0;
        loop {
            match m.try_lock() {
                Ok(g) => {
                    match waited {
                        0 => {}
                        1..=LOCK_SPINS => self.metrics.shard_lock_spun.add(1),
                        _ => self.metrics.shard_lock_yielded.add(1),
                    }
                    return g;
                }
                Err(TryLockError::WouldBlock) if waited < LOCK_SPINS + LOCK_YIELDS => {
                    if waited < LOCK_SPINS {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                    waited += 1;
                }
                // Out of patience — or poisoned, which `lock()` reports.
                Err(_) => {
                    self.metrics.shard_lock_parked.add(1);
                    return m.lock().expect("a thread panicked holding this shard lock");
                }
            }
        }
    }

    pub(crate) fn lock_all(&self) -> Guards<'_> {
        self.lock_subset(&(0..self.shards.len()).collect(), None)
    }

    /// Locks `subset` in ascending index order (every path obeys the
    /// same order, so mixed acquisitions cannot deadlock). A guard the
    /// caller already `held` is reused only as the subset's lowest
    /// shard — everything still to take then lies above it — and
    /// dropped first otherwise.
    pub(crate) fn lock_subset<'a>(
        &'a self,
        subset: &BTreeSet<usize>,
        held: Option<(usize, MutexGuard<'a, Shard>)>,
    ) -> Guards<'a> {
        let mut held = held.filter(|(s, _)| subset.first() == Some(s));
        let lock = |&s: &usize| held.take().unwrap_or_else(|| (s, self.lock_shard(s)));
        subset.iter().map(lock).collect()
    }

    fn graph_size(&self) -> StateSize {
        let guards = self.lock_all();
        let mut size = StateSize::default();
        for (_, g) in guards.iter() {
            size.nodes += g.cg.graph().node_count();
            size.arcs += g.cg.graph().arc_count();
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn lock_shard_under_contention_always_acquires_and_counts_acquisitions() {
        let e = Engine::new(EngineConfig {
            shards: 2,
            ..EngineConfig::default()
        });
        let inner = &e.inner;
        let x = EntityId(1); // shard 1's
        let deadline = Instant::now() + Duration::from_millis(50);
        let per_thread: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(move || {
                        SHARD_LOCKS.with(|c| c.set(0));
                        let mut mine = 0usize;
                        while Instant::now() < deadline {
                            // A read-modify-write only the lock
                            // protects: a lost update would show.
                            let mut g = inner.lock_shard(1);
                            let v = g.store.read(x);
                            g.store.write(x, v + 1, TxnId(1));
                            drop(g);
                            mine += 1;
                        }
                        (mine, SHARD_LOCKS.with(|c| c.get()))
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let total: usize = per_thread.iter().map(|&(mine, _)| mine).sum();
        assert!(total > 0);
        let count = inner.lock_shard(1).store.read(x);
        assert_eq!(count, total as i64, "mutual exclusion held");
        for (mine, counted) in per_thread {
            assert_eq!(counted, mine, "one count per acquisition, not per attempt");
        }
        let m = e.metrics();
        let collisions = m.shard_lock_spun + m.shard_lock_yielded + m.shard_lock_parked;
        assert!(
            collisions <= total as u64,
            "at most one collision per acquisition"
        );
    }
}
