//! Session operations — read, commit, client abort — on the fast path
//! and escalated, with the union-graph cycle check.
//!
//! ## Soundness of the sharded cycle check
//!
//! Entities are partitioned across shards, and every conflict arc is
//! witnessed by one entity, so **every arc is intra-shard** and the
//! global conflict graph is the union of the shard graphs with nodes of
//! the same transaction identified. Three facts make the check exact:
//!
//! 1. *Fast path, gated per operation.* A step adds arcs only *into*
//!    the operating transaction (Rule 2: writers → reader; Rule 3:
//!    accessors → writer), so it closes a cycle iff the transaction
//!    already reaches an arc source. A path switches shards only
//!    through a **boundary node** (a node of a transaction present in
//!    more than one shard). So if the transaction has touched only
//!    shard `s` and its node there is neither a boundary node nor
//!    reaches one — or `s` holds none at all — every union path from
//!    it stays inside `s`, and the shard-local cycle check equals the
//!    union check. One lock, and nothing to publish: arcs into such a
//!    node grow no boundary reach-pair ([`EngineInner::sealed`]).
//! 2. *Own-shards-first escalation.* Otherwise the engine locks the
//!    shards the operation touches plus the transaction's registered
//!    span, ascending, and checks the would-be arc sources against
//!    union reachability by a BFS that hops to a transaction's twin
//!    nodes when it meets a multi-shard transaction. A BFS that
//!    completes without needing an unlocked shard has followed every
//!    union path from the transaction under frozen graphs — it is
//!    exact, with no plan to validate.
//! 3. *Staleness.* The only staleness signal is the body's own: the
//!    transaction's registered span is not covered by the held locks
//!    (a GC bridge grew it), or the BFS met a twin in an unlocked
//!    shard. Either way the operation retakes **every** lock and runs
//!    again; [`EngineInner::escalate`] is the one place that sequence
//!    is written. (The multi-shard GC pass works the same way — own
//!    span first, the under-lock coverage check as the only staleness
//!    signal — see [`crate::gc`].)
//!
//! ## Deletion rides the commit
//!
//! A commit is also the engine's only deleter. Right after its install
//! and under the locks it already holds it reclaims each shard it
//! touched ([`EngineInner::reclaim_shard`]); an escalated commit then
//! offers the multi-shard candidates that turned up — itself included,
//! which is what removes a read-only multi-shard transaction the moment
//! it commits — to [`EngineInner::sweep_multi_batch`] under the same
//! guards, where the coverage check decides. What its locks do not
//! cover it leaves pending, and after releasing them it runs the
//! standalone pass if enough are waiting
//! ([`EngineInner::drain_multi_backlog`]). A session waiting on a full
//! log device sweeps as a rescue ([`EngineInner::finish_durable`]).

use crate::engine::{EngineInner, Guards, Shard};
use crate::error::EngineError;
use crate::history::Event;
use crate::session::SessionState;
use deltx_core::Applied;
use deltx_graph::NodeId;
use deltx_model::{EntityId, Op, Step, TxnId};
use deltx_storage::Value;
use deltx_wal::WalHealth;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::MutexGuard;

/// The held locks do not cover the operation (its registered span grew,
/// or the BFS met a twin in an unlocked shard): retake as all-locks.
#[derive(Debug)]
struct Stale;

/// What a commit installs, gathered from the session's buffers before
/// any lock is taken.
struct StagedCommit {
    /// Shards the transaction read or wrote.
    involved: BTreeSet<usize>,
    /// Entities staged per shard.
    writes: BTreeMap<usize, Vec<EntityId>>,
    /// Every staged entity, in shard then entity order.
    all_entities: Vec<EntityId>,
    /// The durable record's payload: every staged (entity, value)
    /// pair. Empty without a WAL, and for commits that write nothing —
    /// they leave no record, having no replayable effect.
    wal_writes: Vec<(EntityId, Value)>,
}

impl EngineInner {
    /// Union-graph reachability restricted to the locked shards: can
    /// `from_txn` reach any of `targets` following shard arcs and
    /// twin-node identities? `None` means the BFS met a transaction
    /// with a twin in an unlocked shard — retake all locks. `Some` is
    /// exact: every path from `from_txn` was followed to its end under
    /// held locks.
    fn union_reaches(
        &self,
        guards: &Guards<'_>,
        from_txn: TxnId,
        targets: &HashSet<(usize, NodeId)>,
    ) -> Option<bool> {
        if targets.is_empty() {
            return Some(false);
        }
        let mut visited: HashSet<(usize, NodeId)> = HashSet::new();
        let mut frontier: Vec<(usize, NodeId)> = Vec::new();
        // Registry spans memoized for the whole BFS: the reads are
        // stable under the held locks (see below), a transaction is
        // revisited once per twin node, and each miss costs a stripe
        // lock + clone — pay it once per transaction, not per node.
        let mut spans: HashMap<TxnId, Option<Vec<usize>>> = HashMap::new();
        for (&s, g) in guards.iter() {
            if let Some(n) = g.cg.node_of(from_txn) {
                visited.insert((s, n));
                frontier.push((s, n));
            }
        }
        while let Some((s, n)) = frontier.pop() {
            // Hop to twin nodes of the same transaction first. The
            // registry read is stable: the transaction has a node in a
            // locked shard, so its entry can only be mutated by a
            // thread holding one of the locks we hold.
            let txn = guards[&s].cg.info(n).txn;
            let span = spans
                .entry(txn)
                .or_insert_with(|| self.coord.reg_get(txn, &self.metrics));
            if let Some(shards) = span {
                for &t in shards.iter() {
                    if t == s {
                        continue;
                    }
                    let tg = guards.get(&t)?;
                    if let Some(twin) = tg.cg.node_of(txn) {
                        if visited.insert((t, twin)) {
                            if targets.contains(&(t, twin)) {
                                return Some(true);
                            }
                            frontier.push((t, twin));
                        }
                    }
                }
            }
            for &succ in guards[&s].cg.graph().succs(n) {
                if visited.insert((s, succ)) {
                    if targets.contains(&(s, succ)) {
                        return Some(true);
                    }
                    frontier.push((s, succ));
                }
            }
        }
        Some(false)
    }

    /// Aborts `txn` everywhere it has nodes. Caller holds the locks of
    /// every shard the transaction inhabits.
    fn abort_everywhere(&self, guards: &mut Guards<'_>, txn: TxnId) {
        let multi = self.coord.reg_remove(txn, &self.metrics);
        for g in guards.values_mut() {
            if g.cg.node_of(txn).is_some() {
                if multi.is_some() {
                    self.dec_boundary(g);
                }
                g.cg.abort_txn(txn).expect("live node aborts");
            }
        }
    }

    /// The per-operation fast-path gate, under shard `g`'s lock: can a
    /// cycle through `txn` — which has touched no other shard — leave
    /// this shard? Not if the shard has no boundary node, and not if
    /// `txn`'s node here is neither one nor reaches one (module docs,
    /// fact 1).
    fn sealed(&self, g: &Shard, txn: TxnId) -> bool {
        let sealed = g.boundary == 0 || !g.cg.boundary_exposed(txn);
        let key = if sealed {
            "gate_sealed"
        } else {
            "gate_exposed"
        };
        self.rt.emit(key, (g.boundary != 0) as u64);
        sealed
    }

    /// Runs one escalated operation: lock the transaction's own shards
    /// — `entry` plus its registered span — ascending (reusing the
    /// `held` guard of a single-shard operation whose gate failed) and
    /// run `body` under the guards. If `body` finds them too few
    /// ([`Stale`]), retake every lock and run `body` again — under all
    /// locks it cannot go stale. `stale_tag` is what the simulator's
    /// coverage signal sees when `body` reports staleness (0 = read,
    /// 1 = commit).
    ///
    /// `body` runs inside one summary batch per locked shard — its
    /// boundary mark and every Rule 2/3 fan-in coalesce into one
    /// propagation, flushed here before the locks are released — and
    /// returns with the locks still held: whatever must wait for the
    /// release (the durable wait, abort bookkeeping) is the caller's.
    fn escalate<'a, T>(
        &'a self,
        txn: TxnId,
        entry: &BTreeSet<usize>,
        mut held: Option<(usize, MutexGuard<'a, Shard>)>,
        stale_tag: u64,
        mut body: impl FnMut(&mut Guards<'a>) -> Result<T, Stale>,
    ) -> T {
        let n = self.shards.len();
        self.metrics.escalated_ops.add(1);
        let mut batched = |mut guards: Guards<'a>| {
            for g in guards.values_mut() {
                g.cg.begin_summary_batch();
            }
            let out = body(&mut guards);
            self.flush_summaries(&mut guards);
            out
        };
        let mut own = entry.clone();
        own.extend(self.coord.reg_get(txn, &self.metrics).into_iter().flatten());
        if own.len() < n {
            let guards = self.lock_subset(&own, held.take());
            self.metrics.record_escalation(own.len(), n);
            self.rt.emit("esc_subset", own.len() as u64);
            match batched(guards) {
                Ok(out) => return out,
                Err(Stale) => self.rt.emit("esc_stale", stale_tag),
            }
            self.metrics.escalation_fallbacks.add(1);
        }
        drop(held); // an own span of every shard: lock_all retakes it
        let guards = self.lock_all();
        self.metrics.record_escalation(n, n);
        batched(guards).expect("all-locks body cannot go stale")
    }

    /// A transaction's read of `x`.
    pub(crate) fn read(&self, st: &mut SessionState, x: EntityId) -> Result<Value, EngineError> {
        st.check_open()?;
        // Yield point: under simulation the scheduler may interleave
        // another session here, before any lock is taken.
        self.rt.yield_now();
        let s = self.shard_of(x);
        let single = st.shards.is_empty() || (st.shards.len() == 1 && st.shards.contains(&s));
        let mut held = None;
        if single {
            let mut g = self.lock_shard(s);
            if self.sealed(&g, st.txn) {
                // Fast path: no union path from this transaction leaves
                // the shard, so the local cycle check is complete.
                Self::ensure_node(&mut g, st.txn)?;
                let step = Step::new(st.txn, Op::Read(x));
                let out = g.cg.apply(&step)?;
                return match out {
                    Applied::Accepted => {
                        let v = st.buf(s).read(&g.store, x);
                        self.record_step(step, Applied::Accepted);
                        drop(g);
                        st.shards.insert(s);
                        self.metrics.reads.add(1);
                        self.metrics.fast_path_ops.add(1);
                        Ok(v)
                    }
                    Applied::SelfAborted => {
                        self.record_step(step, Applied::SelfAborted);
                        drop(g);
                        self.after_scheduler_abort(st);
                        Err(EngineError::Aborted(st.txn))
                    }
                    Applied::IgnoredAborted => Err(EngineError::Closed(st.txn)),
                };
            }
            // Exposed: escalate, handing the held guard in.
            held = Some((s, g));
        }
        let mut entry: BTreeSet<usize> = st.shards.iter().copied().collect();
        entry.insert(s);
        let out = self.escalate(st.txn, &entry, held, 0, |guards| {
            self.read_escalated_locked(st, x, s, guards)
        });
        match &out {
            Ok(_) => {
                st.shards.insert(s);
                self.metrics.reads.add(1);
            }
            Err(EngineError::Aborted(_)) => self.after_scheduler_abort(st),
            Err(_) => {}
        }
        out
    }

    /// The escalated read under `guards`. `Ok(Err(Aborted))` is the
    /// scheduler's verdict — the transaction is already out of every
    /// graph; the caller closes the session once the locks are gone.
    fn read_escalated_locked(
        &self,
        st: &mut SessionState,
        x: EntityId,
        s: usize,
        guards: &mut Guards<'_>,
    ) -> Result<Result<Value, EngineError>, Stale> {
        let mut touched: BTreeSet<usize> = st.shards.iter().copied().collect();
        touched.insert(s);
        for t in self
            .coord
            .reg_get(st.txn, &self.metrics)
            .into_iter()
            .flatten()
        {
            touched.insert(t);
        }
        if touched.iter().any(|t| !guards.contains_key(t)) {
            return Err(Stale);
        }
        if let Err(e) = Self::ensure_node(guards.get_mut(&s).expect("entry shard locked"), st.txn) {
            return Ok(Err(e));
        }
        self.note_multi_shard(guards, st.txn, &touched);
        let own = guards[&s].cg.node_of(st.txn);
        let targets: HashSet<(usize, NodeId)> = guards[&s]
            .cg
            .writers_of(x)
            .into_iter()
            .filter(|&n| Some(n) != own)
            .map(|n| (s, n))
            .collect();
        let step = Step::new(st.txn, Op::Read(x));
        if self.union_reaches(guards, st.txn, &targets).ok_or(Stale)? {
            self.abort_everywhere(guards, st.txn);
            self.record_step(step, Applied::SelfAborted);
            return Ok(Err(EngineError::Aborted(st.txn)));
        }
        let g = guards.get_mut(&s).expect("entry shard locked");
        let out = match g.cg.apply(&step) {
            Ok(o) => o,
            Err(e) => return Ok(Err(e.into())),
        };
        debug_assert_eq!(out, Applied::Accepted, "local check is a union subset");
        let v = st.buf(s).read(&g.store, x);
        self.record_step(step, Applied::Accepted);
        Ok(Ok(v))
    }

    /// The transaction's final atomic write: install every staged
    /// write, complete the transaction.
    pub(crate) fn commit(&self, st: &mut SessionState) -> Result<(), EngineError> {
        st.check_open()?;
        // Yield point: the pre-lock seam where the simulator explores
        // commit-order interleavings.
        self.rt.yield_now();
        let mut writes: BTreeMap<usize, Vec<EntityId>> = BTreeMap::new();
        for (&s, buf) in &st.bufs {
            let ws = buf.write_set();
            if !ws.is_empty() {
                writes.insert(s, ws);
            }
        }
        let mut involved: BTreeSet<usize> = st.shards.iter().copied().collect();
        involved.extend(writes.keys().copied());
        let all_entities: Vec<EntityId> = writes.values().flatten().copied().collect();
        let wal_writes: Vec<(EntityId, Value)> = if self.wal.is_some() {
            writes
                .keys()
                .flat_map(|s| st.bufs[s].staged_writes())
                .collect()
        } else {
            Vec::new()
        };
        let c = StagedCommit {
            involved,
            writes,
            all_entities,
            wal_writes,
        };

        // Degraded-mode gate: once the WAL stops accepting records
        // (fsync poisoning, crash, terminal ENOSPC, I/O failure) the
        // engine is loudly read-only. A writing commit is rejected
        // *here* — before its `WriteAll` touches any conflict graph or
        // store — so the in-memory state never drifts ahead of what
        // the log can make durable. The session rolls back like a
        // client abort; reads and read-only commits still succeed.
        if !c.wal_writes.is_empty() {
            if let Some(w) = &self.wal {
                if w.health() != WalHealth::Ok {
                    let reason = w
                        .fail_reason()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "write-ahead log unavailable".to_string());
                    self.metrics.degraded_commit_rejections.add(1);
                    self.rt.emit("degraded_reject", 1);
                    self.client_abort(st);
                    return Err(EngineError::Durability(reason));
                }
            }
        }

        if c.involved.is_empty() {
            // Touched nothing: trivially committed (the recorded Begin
            // gives the replayed graph a node; complete it there too).
            self.record_step(
                Step::new(st.txn, Op::WriteAll(Vec::new())),
                Applied::Accepted,
            );
            st.closed = true;
            self.metrics.commits.add(1);
            self.metrics.txns_left(1);
            return Ok(());
        }

        let mut held = None;
        if c.involved.len() == 1 {
            let s = *c.involved.iter().next().unwrap();
            let mut g = self.lock_shard(s);
            Self::ensure_node(&mut g, st.txn)?;
            if self.sealed(&g, st.txn) {
                let n_written = c.all_entities.len() as u64;
                let step = Step::new(st.txn, Op::WriteAll(c.all_entities));
                let out = g.cg.apply(&step)?;
                return match out {
                    Applied::Accepted => {
                        // Submit the commit record while the shard
                        // lock is held (log order = conflict order)
                        // and BEFORE the install: a version the log
                        // refused must never become visible, or GC
                        // would judge its predecessors noncurrent and
                        // retire records that are still the only
                        // durable copy of their entities.
                        if !c.wal_writes.is_empty() {
                            if let Some(w) = &self.wal {
                                st.wal_submit =
                                    Some(w.submit_commit(st.txn, &c.wal_writes, &[s as u32]));
                            }
                        }
                        if !matches!(st.wal_submit, Some(Err(_))) {
                            if let Some(buf) = st.bufs.get_mut(&s) {
                                buf.install(&mut g.store);
                            }
                        }
                        self.record_step(step, Applied::Accepted);
                        // Delete at the source: whatever this write made
                        // noncurrent goes now, under the lock already held
                        // (one lock covers no multi-shard candidate).
                        let deferred = self.reclaim_shard(&mut g);
                        drop(g);
                        if !deferred.is_empty() {
                            self.defer_multi(deferred);
                            self.drain_multi_backlog();
                        }
                        st.closed = true;
                        self.finish_durable(st)?;
                        self.metrics.commits.add(1);
                        self.metrics.entities_written.add(n_written);
                        self.metrics.fast_path_ops.add(1);
                        Ok(())
                    }
                    Applied::SelfAborted => {
                        self.record_step(step, Applied::SelfAborted);
                        drop(g);
                        self.after_scheduler_abort(st);
                        Err(EngineError::Aborted(st.txn))
                    }
                    Applied::IgnoredAborted => Err(EngineError::Closed(st.txn)),
                };
            }
            held = Some((s, g));
        }

        let res = self
            .escalate(st.txn, &c.involved, held, 1, |guards| {
                self.commit_escalated_locked(st, &c, guards)
            })
            .and_then(|()| {
                // Installed and released: wait for the log, then count.
                st.closed = true;
                self.finish_durable(st)?;
                self.metrics.commits.add(1);
                self.metrics
                    .entities_written
                    .add(c.all_entities.len() as u64);
                Ok(())
            });
        if let Err(EngineError::Aborted(_)) = res {
            self.after_scheduler_abort(st);
        }
        // The multi-shard candidates this commit's locks did not cover
        // wait in `pending_multi`; now that the locks are released, run
        // the standalone pass if enough do.
        self.drain_multi_backlog();
        res
    }

    /// The escalated commit under `guards`, up to and including the
    /// install and the deletion at the source. `Ok(Err(Aborted))` is
    /// the scheduler's verdict, as in [`Self::read_escalated_locked`].
    fn commit_escalated_locked(
        &self,
        st: &mut SessionState,
        c: &StagedCommit,
        guards: &mut Guards<'_>,
    ) -> Result<Result<(), EngineError>, Stale> {
        let mut touched: BTreeSet<usize> = c.involved.clone();
        for t in self
            .coord
            .reg_get(st.txn, &self.metrics)
            .into_iter()
            .flatten()
        {
            touched.insert(t);
        }
        if touched.iter().any(|t| !guards.contains_key(t)) {
            return Err(Stale);
        }
        for &s in &touched {
            if let Err(e) = Self::ensure_node(guards.get_mut(&s).expect("locked"), st.txn) {
                return Ok(Err(e));
            }
        }
        self.note_multi_shard(guards, st.txn, &touched);
        // Rule 3 arc sources for the combined atomic write.
        let mut targets: HashSet<(usize, NodeId)> = HashSet::new();
        for (&s, xs) in &c.writes {
            let own = guards[&s].cg.node_of(st.txn);
            for &x in xs {
                for n in guards[&s].cg.accessors_of(x) {
                    if Some(n) != own {
                        targets.insert((s, n));
                    }
                }
            }
        }
        let step = Step::new(st.txn, Op::WriteAll(c.all_entities.clone()));
        if self.union_reaches(guards, st.txn, &targets).ok_or(Stale)? {
            self.abort_everywhere(guards, st.txn);
            self.record_step(step, Applied::SelfAborted);
            return Ok(Err(EngineError::Aborted(st.txn)));
        }
        // Submit the commit record while every involved shard lock is
        // still held, so the log order of conflicting commits matches
        // their serialization order — and BEFORE the installs below: a
        // version the log refused must never become visible, or GC
        // would judge its predecessors noncurrent and retire records
        // that are still the only durable copy of their entities. The
        // durable wait happens after the locks are released.
        if !c.wal_writes.is_empty() {
            if let Some(w) = &self.wal {
                let spans: Vec<u32> = touched.iter().map(|&s| s as u32).collect();
                st.wal_submit = Some(w.submit_commit(st.txn, &c.wal_writes, &spans));
            }
        }
        let wal_ok = !matches!(st.wal_submit, Some(Err(_)));
        let empty: Vec<EntityId> = Vec::new();
        for &s in &touched {
            let xs = c.writes.get(&s).unwrap_or(&empty);
            let sub = Step::new(st.txn, Op::WriteAll(xs.clone()));
            let g = guards.get_mut(&s).expect("locked");
            let out = match g.cg.apply(&sub) {
                Ok(o) => o,
                Err(e) => return Ok(Err(e.into())),
            };
            debug_assert_eq!(out, Applied::Accepted, "local check is a union subset");
            if !xs.is_empty() && wal_ok {
                if let Some(buf) = st.bufs.get_mut(&s) {
                    buf.install(&mut g.store);
                }
            }
        }
        self.record_step(step, Applied::Accepted);
        // Delete at the source, as on the fast path: each touched shard
        // reclaims what this write made noncurrent there. The
        // multi-shard candidates among them — this transaction included,
        // if it spans shards — are offered to the multi-shard deletion
        // under the guards already held; its coverage check decides, and
        // what these locks do not cover waits for the standalone pass.
        let mut multi: Vec<TxnId> = Vec::new();
        for &s in &touched {
            multi.extend(self.reclaim_shard(guards.get_mut(&s).expect("locked")));
        }
        if !multi.is_empty() {
            multi.sort_unstable();
            multi.dedup(); // one entry per shard it was queued in
            self.defer_multi(self.sweep_multi_batch(guards, &multi));
        }
        Ok(Ok(()))
    }

    /// Completes a commit's durability: waits for the group-commit
    /// flush covering the record submitted under the shard locks —
    /// leading that flush itself when no other session is. An error
    /// means the record was never acknowledged as durable — the commit
    /// must fail even though the in-memory install happened (the WAL is
    /// crashed; no later commit will be accepted either, so the
    /// discrepancy cannot be observed by a recovering client).
    ///
    /// While a flush is parked on a full device, the waiting session is
    /// the rescuer: each wakeup under pressure runs one
    /// [`Self::gc_sweep`] — every deletion can retire a sealed segment
    /// and free the bytes the parked append needs. The WAL never runs
    /// it while this session owns the flush.
    fn finish_durable(&self, st: &mut SessionState) -> Result<(), EngineError> {
        let Some(sub) = st.wal_submit.take() else {
            return Ok(());
        };
        let lsn = sub.map_err(|e| EngineError::Durability(e.to_string()))?;
        self.wal
            .as_ref()
            .expect("submission implies a wal")
            .wait_durable_with(lsn, || {
                self.metrics.gc_pressure_sweeps.add(1);
                self.gc_sweep();
            })
            .map_err(|e| EngineError::Durability(e.to_string()))
    }

    /// Client rollback (or session drop): locks only the shards the
    /// transaction inhabits (its read set plus registered ghost
    /// shards), widening to all locks in the rare race where a GC
    /// bridge grows the registry entry mid-acquisition. Not an
    /// [`Self::escalate`] client: there is no cycle to check, so the
    /// registry re-read under the held locks is the whole protocol.
    pub(crate) fn client_abort(&self, st: &mut SessionState) {
        if st.closed {
            return;
        }
        st.closed = true;
        for attempt in 0..2 {
            let subset: BTreeSet<usize> = {
                let mut s: BTreeSet<usize> = st.shards.iter().copied().collect();
                s.extend(
                    self.coord
                        .reg_get(st.txn, &self.metrics)
                        .into_iter()
                        .flatten(),
                );
                s
            };
            if subset.is_empty() {
                // Never touched a shard.
                self.record(Event::ClientAbort(st.txn));
                self.metrics.aborts_voluntary.add(1);
                self.metrics.txns_left(1);
                return;
            }
            let mut guards = if attempt == 0 {
                self.lock_subset(&subset, None)
            } else {
                self.lock_all()
            };
            let grown = self
                .coord
                .reg_get(st.txn, &self.metrics)
                .into_iter()
                .flatten()
                .any(|t| !guards.contains_key(&t));
            if grown {
                drop(guards);
                continue;
            }
            self.abort_everywhere(&mut guards, st.txn);
            self.record(Event::ClientAbort(st.txn));
            drop(guards);
            self.metrics.aborts_voluntary.add(1);
            self.metrics.txns_left(1);
            return;
        }
        unreachable!("second attempt holds every lock");
    }

    fn after_scheduler_abort(&self, st: &mut SessionState) {
        st.closed = true;
        self.metrics.aborts_scheduler.add(1);
        self.metrics.txns_left(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SHARD_LOCKS;
    use crate::{Engine, EngineConfig};

    fn engine(shards: usize) -> Engine {
        Engine::new(EngineConfig {
            shards,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn escalate_reruns_a_stale_body_once_under_every_lock() {
        let e = engine(8);
        let n = e.inner.shards.len();
        // An unregistered transaction's own shards are its entry set.
        let mut guards_seen: Vec<usize> = Vec::new();
        let out = e
            .inner
            .escalate(TxnId(1), &BTreeSet::from([0]), None, 0, |guards| {
                guards_seen.push(guards.len());
                if guards_seen.len() == 1 {
                    Err(Stale)
                } else {
                    Ok(guards_seen.len())
                }
            });
        assert_eq!(guards_seen, [1, n], "own shards, then every shard");
        assert_eq!(out, 2, "the second call's value is returned");
        let m = e.metrics();
        assert_eq!(m.escalation_fallbacks, 1);
        assert_eq!(m.escalated_partial, 1);
        assert_eq!(m.escalated_locks_taken, 1 + n as u64);
    }

    #[test]
    fn escalate_locks_entry_and_registered_span() {
        let e = engine(8);
        let t = TxnId(9);
        e.inner
            .coord
            .reg_insert(t, &BTreeSet::from([0, 3]), &e.inner.metrics);
        let mut seen: Vec<Vec<usize>> = Vec::new();
        e.inner
            .escalate(t, &BTreeSet::from([0]), None, 0, |guards| {
                seen.push(guards.keys().copied().collect());
                Ok::<_, Stale>(())
            });
        assert_eq!(seen, [vec![0, 3]], "first attempt: entry ∪ registered span");
        assert_eq!(e.metrics().escalation_fallbacks, 0);
        // A held guard that is not the lowest of the set would break the
        // ascending order: it is dropped and retaken in turn.
        let held = (3, e.inner.lock_shard(3));
        SHARD_LOCKS.with(|c| c.set(0));
        e.inner
            .escalate(t, &BTreeSet::from([3]), Some(held), 0, |guards| {
                seen.push(guards.keys().copied().collect());
                Ok::<_, Stale>(())
            });
        assert_eq!(seen[1], [0, 3]);
        assert_eq!(SHARD_LOCKS.with(|c| c.get()), 2, "0 then 3, both fresh");
    }

    #[test]
    fn exposed_single_shard_read_locks_its_shard_once() {
        let e = engine(2);
        let mut t = e.begin();
        t.read(0).unwrap(); // shard 0, fast path
        let mut m = e.begin();
        m.write(0, 1);
        m.write(1, 1);
        m.commit().unwrap(); // arc T -> M in shard 0; M spans {0, 1}
        let before = e.metrics();
        SHARD_LOCKS.with(|c| c.set(0));
        t.read(2).unwrap(); // shard 0 again, but T now reaches M
        let locks = SHARD_LOCKS.with(|c| c.get());
        let after = e.metrics();
        assert_eq!(after.fast_path_ops, before.fast_path_ops, "gate failed");
        assert_eq!(after.escalated_ops, before.escalated_ops + 1);
        assert_eq!(
            after.escalated_locks_taken,
            before.escalated_locks_taken + 1,
            "own shards = {{0}}; nothing to check, so no fallback"
        );
        assert_eq!(
            locks, 1,
            "the gate's guard was handed to escalate, not dropped and retaken"
        );
    }
}
