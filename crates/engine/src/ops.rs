//! Session operations — read, commit, client abort — and the regimes
//! they run under: the fast path, escalation, and the union-graph
//! cycle check.
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
//! 3. *Staleness.* The transaction's registered span, re-read under
//!    the locks, is not covered by them (a GC bridge grew it), or the
//!    BFS met a twin in an unlocked shard. Either way the operation
//!    retakes **every** lock and runs again. [`EngineInner::escalate`]
//!    is the one place that sequence is written; a client abort runs
//!    through it too. (The multi-shard GC pass works the same way — own
//!    span first, the under-lock own-span check as the only staleness
//!    signal — see [`crate::gc`].)
//!
//! ## One body per step
//!
//! [`EngineInner::read_locked`] and [`EngineInner::commit_locked`] run
//! under whatever guards the regime took: the fast path's one guard
//! with the union check skipped (the gate proved the local check equal
//! to it), [`EngineInner::escalate`]'s with it, and — the commit body —
//! WAL replay's with logging skipped ([`crate::recovery`]).
//!
//! ## Deletion rides the commit
//!
//! A commit is also the engine's only deleter. Right after its install
//! and under the locks it already holds it reclaims each shard it
//! touched ([`EngineInner::reclaim_shard`]) and offers the multi-shard
//! candidates that turned up — itself included, which is what removes
//! a read-only multi-shard transaction the moment it commits — to
//! [`EngineInner::sweep_multi_batch`] under the same guards, where the
//! own-span check decides. What its locks do not cover it leaves
//! pending, and after releasing them it runs the standalone pass if
//! enough are waiting ([`EngineInner::drain_multi_backlog`]). A session
//! waiting on a full log device sweeps as a rescue
//! ([`EngineInner::finish_durable`]).

use crate::engine::{EngineInner, Guards, Shard};
use crate::error::EngineError;
use crate::history::Event;
use crate::session::SessionState;
use deltx_core::{Applied, CgError};
use deltx_graph::NodeId;
use deltx_model::{EntityId, Op, Step, TxnId};
use deltx_storage::{TxnBuffer, Value};
use deltx_wal::{WalError, WalHealth};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::MutexGuard;

/// The held locks do not cover the operation (the BFS met a twin in an
/// unlocked shard): retake as all-locks.
#[derive(Debug)]
pub(crate) struct Stale;

/// A commit's install, gathered before any lock is taken — from a
/// session's buffers, or from a replayed log record.
pub(crate) struct StagedCommit {
    pub(crate) txn: TxnId,
    /// The staged (entity, value) pairs of each written shard: the
    /// install, and — flattened — the commit record's payload.
    pub(crate) writes: BTreeMap<usize, Vec<(EntityId, Value)>>,
    /// The commit record's submission — made under the locks when
    /// durability is on and something is written, waited on after they
    /// are released. A replayed record arrives with the LSN it was
    /// logged under and is not logged again.
    pub(crate) submitted: Option<Result<u64, WalError>>,
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
        for (s, g) in guards.iter() {
            if let Some(n) = g.cg.node_of(from_txn) {
                visited.insert((s, n));
                frontier.push((s, n));
            }
        }
        while let Some((s, n)) = frontier.pop() {
            // Hop to twin nodes of the same transaction first. A span
            // with a shard outside our locks is `Stale` below; one
            // entirely inside them is frozen, as an entry can only be
            // mutated by a thread holding one of its shards — which a
            // GC pass ghosting this transaction elsewhere would.
            let txn = guards[s].cg.info(n).txn;
            let span = spans
                .entry(txn)
                .or_insert_with(|| self.coord.reg_get(txn, &self.metrics));
            for &t in span.iter().flatten().filter(|&&t| t != s) {
                let Some(twin) = guards.get(t)?.cg.node_of(txn) else {
                    continue;
                };
                if visited.insert((t, twin)) {
                    if targets.contains(&(t, twin)) {
                        return Some(true);
                    }
                    frontier.push((t, twin));
                }
            }
            for &succ in guards[s].cg.graph().succs(n) {
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
        let multi = self.coord.reg_remove(txn, &self.metrics).is_some();
        for g in guards.values_mut() {
            if g.cg.node_of(txn).is_some() {
                let marks = g.cg.boundary_count();
                g.cg.abort_txn(txn).expect("live node aborts");
                if multi {
                    self.check_mark_dropped(g, marks);
                }
            }
        }
    }

    /// The per-operation fast-path gate, under shard `g`'s lock: can a
    /// cycle through `txn` — which has touched no other shard — leave
    /// this shard? Not if the shard has no boundary node, and not if
    /// `txn`'s node here is neither one nor reaches one (module docs,
    /// fact 1).
    fn sealed(&self, g: &Shard, txn: TxnId) -> bool {
        g.cg.boundary_count() == 0 || !g.cg.boundary_exposed(txn)
    }

    /// Runs one session step's body under the regime it needs: if the
    /// `entry` shards are one shard and the transaction is sealed there,
    /// the fast path — that one guard, no union check (`false`), and
    /// `true` returned. Else [`Self::escalate`], handed the gate's guard
    /// if it took one, with the union check (`true`), counted as one
    /// escalated operation.
    fn run_step<'a, T>(
        &'a self,
        txn: TxnId,
        entry: &BTreeSet<usize>,
        mut body: impl FnMut(&mut Guards<'a>, &BTreeSet<usize>, bool) -> Result<T, Stale>,
    ) -> (bool, T) {
        let mut held = None;
        if let (1, Some(&s)) = (entry.len(), entry.first()) {
            let g = self.lock_shard(s);
            if self.sealed(&g, txn) {
                let mut guards = Guards::from_iter([(s, g)]);
                let out = body(&mut guards, entry, false);
                return (true, out.expect("no union check, nothing to go stale"));
            }
            // Exposed: escalate, handing the held guard in.
            held = Some((s, g));
        }
        let (out, own, all) =
            self.escalate(txn, entry, held, |guards, own| body(guards, own, true));
        let n = self.shards.len();
        self.metrics.escalated_ops.add(1);
        if let Some(k) = own {
            self.metrics.record_escalation(k, n);
            if all {
                self.metrics.escalation_fallbacks.add(1);
            }
        }
        if all {
            self.metrics.record_escalation(n, n);
        }
        (false, out)
    }

    /// The one span-locking protocol: lock the transaction's own shards
    /// — `entry` plus its registered span — ascending (reusing the
    /// `held` guard of a single-shard operation whose gate failed),
    /// re-read the span under the locks, and run `body` with the guards
    /// and the own shards as re-read. If the span escaped the locks (a
    /// GC bridge grew it since the read that chose them) or `body` finds
    /// them too few ([`Stale`]), retake every lock and run `body` again —
    /// under all locks it cannot go stale. This is the only place that
    /// computes the own span, checks its coverage, and falls back.
    /// Returns `body`'s value, the size of the own-span lock set if one
    /// was taken (not when the own span is every shard), and whether
    /// every lock was taken.
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
        mut body: impl FnMut(&mut Guards<'a>, &BTreeSet<usize>) -> Result<T, Stale>,
    ) -> (T, Option<usize>, bool) {
        let own_span = || {
            let mut own = entry.clone();
            own.extend(self.coord.reg_get(txn, &self.metrics).into_iter().flatten());
            own
        };
        let mut run = |mut guards: Guards<'a>| {
            let own = own_span();
            if own.iter().any(|&s| guards.get(s).is_none()) {
                return Err(Stale);
            }
            self.batched(&mut guards, |guards| body(guards, &own))
        };
        let own = own_span();
        let subset = (own.len() < self.shards.len()).then_some(own.len());
        if subset.is_some() {
            if let Ok(out) = run(self.lock_subset(&own, held.take())) {
                return (out, subset, false);
            }
        }
        drop(held); // an own span of every shard: lock_all retakes it
        let out = run(self.lock_all()).expect("all-locks body cannot go stale");
        (out, subset, true)
    }

    /// Rules 1–3 for `step` under `guards`, shared by both bodies:
    /// create the transaction's missing nodes in `touched` (lazy
    /// Rule 1), register and mark it if it now spans shards, run the
    /// union cycle check against the would-be arc sources `targets` —
    /// `None` where the regime already made the local check exact — and
    /// apply `step` shard by shard as `subs`. A cycle the union check
    /// finds aborts the transaction everywhere; a local one (the fast
    /// path's only check) aborts it in its one shard. Either way `step`
    /// is recorded as self-aborted. After the union check no local
    /// check may fail (each is a subset of it): one that does anyway is
    /// a bug, fatal in debug builds, and in release aborts the
    /// transaction everywhere, as sub-steps in lower shards are already
    /// applied.
    fn apply_step<'s>(
        &self,
        guards: &mut Guards<'_>,
        step: &Step,
        touched: &BTreeSet<usize>,
        targets: Option<HashSet<(usize, NodeId)>>,
        subs: impl IntoIterator<Item = (usize, Cow<'s, Step>)>,
    ) -> Result<Result<(), EngineError>, Stale> {
        let txn = step.txn;
        for &s in touched {
            let cg = &mut guards.get_mut(s).expect("touched shard is locked").cg;
            if cg.node_of(txn).is_some() {
                continue;
            }
            let why = match cg.apply(&Step::new(txn, Op::Begin)) {
                Ok(Applied::Accepted) => continue,
                Ok(Applied::IgnoredAborted) => "begin for aborted txn",
                Ok(Applied::SelfAborted) => "begin rejected",
                Err(e) => return Ok(Err(e.into())),
            };
            return Ok(Err(EngineError::Protocol(CgError::WrongModel(why))));
        }
        self.note_multi_shard(guards, txn, touched);
        let aborted = || {
            self.record_step(step.clone(), Applied::SelfAborted);
            Ok(Err(EngineError::Aborted(txn)))
        };
        let checked = targets.is_some();
        if let Some(targets) = targets {
            if self.union_reaches(guards, txn, &targets).ok_or(Stale)? {
                self.abort_everywhere(guards, txn);
                return aborted();
            }
        }
        for (s, sub) in subs {
            let g = guards.get_mut(s).expect("touched shard is locked");
            match g.cg.apply(&sub) {
                Ok(Applied::Accepted) => {}
                Ok(out) if checked => {
                    debug_assert!(false, "local check is a union subset: {out:?}");
                    self.abort_everywhere(guards, txn);
                    return aborted();
                }
                Ok(Applied::SelfAborted) => return aborted(),
                Ok(Applied::IgnoredAborted) => return Ok(Err(EngineError::Closed(txn))),
                Err(e) => return Ok(Err(e.into())),
            }
        }
        Ok(Ok(()))
    }

    /// A transaction's read of `x`.
    pub(crate) fn read(&self, st: &mut SessionState, x: EntityId) -> Result<Value, EngineError> {
        st.check_open()?;
        // Yield point: under simulation the scheduler may interleave
        // another session here, before any lock is taken.
        self.rt.yield_now();
        let (txn, s) = (st.txn, self.shard_of(x));
        // The entry shards: the ones read so far, and this one.
        let fresh = st.shards.insert(s);
        let buf = st.bufs.entry(s).or_insert_with(|| TxnBuffer::new(txn));
        let (fast, out) = self.run_step(txn, &st.shards, |guards, touched, check| {
            self.read_locked(txn, buf, x, s, guards, touched, check)
        });
        match &out {
            Ok(_) => {
                self.metrics.reads.add(1);
                if fast {
                    self.metrics.fast_path_ops.add(1);
                }
            }
            Err(EngineError::Aborted(_)) => self.after_scheduler_abort(st),
            Err(_) => {
                if fresh {
                    st.shards.remove(&s);
                }
            }
        }
        out
    }

    /// The read under `guards`, whatever regime took them; `check` runs
    /// the union cycle check. `Ok(Err(Aborted))` is the scheduler's
    /// verdict — the transaction is already out of every graph; the
    /// caller closes the session once the locks are gone.
    #[allow(clippy::too_many_arguments)]
    fn read_locked(
        &self,
        txn: TxnId,
        buf: &mut TxnBuffer,
        x: EntityId,
        s: usize,
        guards: &mut Guards<'_>,
        touched: &BTreeSet<usize>,
        check: bool,
    ) -> Result<Result<Value, EngineError>, Stale> {
        let step = Step::new(txn, Op::Read(x));
        let targets = check.then(|| {
            let g = &guards[s];
            let own = g.cg.node_of(txn);
            let writers = g.cg.writers_of(x).into_iter();
            writers
                .filter(|&n| Some(n) != own)
                .map(|n| (s, n))
                .collect()
        });
        let sub = [(s, Cow::Borrowed(&step))];
        if let Err(e) = self.apply_step(guards, &step, touched, targets, sub)? {
            return Ok(Err(e));
        }
        let v = buf.read(&guards[s].store, x);
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
        let mut writes: BTreeMap<usize, Vec<(EntityId, Value)>> = BTreeMap::new();
        for (&s, buf) in &st.bufs {
            let ws = buf.staged_writes();
            if !ws.is_empty() {
                writes.insert(s, ws);
            }
        }
        let mut involved = st.shards.clone();
        involved.extend(writes.keys().copied());
        // Degraded-mode gate: once the WAL stops accepting records
        // (fsync poisoning, crash, terminal ENOSPC, I/O failure) the
        // engine is loudly read-only. A writing commit is rejected
        // *here* — before its `WriteAll` touches any conflict graph or
        // store — so the in-memory state never drifts ahead of what
        // the log can make durable. The session rolls back like a
        // client abort; reads and read-only commits still succeed.
        if let Some(w) = self.wal.as_ref().filter(|_| !writes.is_empty()) {
            if w.health() != WalHealth::Ok {
                let reason = w
                    .fail_reason()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "write-ahead log unavailable".to_string());
                self.metrics.degraded_commit_rejections.add(1);
                self.client_abort(st);
                return Err(EngineError::Durability(reason));
            }
        }

        if involved.is_empty() {
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

        let n_written: usize = writes.values().map(Vec::len).sum();
        let mut c = StagedCommit {
            txn: st.txn,
            writes,
            submitted: None,
        };
        let (fast, out) = self.run_step(st.txn, &involved, |guards, touched, check| {
            self.commit_locked(&mut c, guards, touched, check)
        });
        let res = out.and_then(|multi| {
            // Installed and released. The multi-shard candidates the
            // locks did not cover wait in `pending_multi`: run the
            // standalone pass if enough do. Then wait for the log, and
            // count.
            if multi {
                self.drain_multi_backlog();
            }
            st.closed = true;
            self.finish_durable(c.submitted.take())?;
            self.metrics.commits.add(1);
            self.metrics.entities_written.add(n_written as u64);
            if fast {
                self.metrics.fast_path_ops.add(1);
            }
            Ok(())
        });
        if let Err(EngineError::Aborted(_)) = res {
            self.after_scheduler_abort(st);
        }
        res
    }

    /// The commit under `guards` — a live commit's, whatever regime
    /// took them (`check` runs the union cycle check), or a replayed
    /// record's — up to and including the install and the deletion at
    /// the source. `Ok(Ok(true))` means multi-shard candidates turned
    /// up; `Ok(Err(Aborted))` is the scheduler's verdict, as in
    /// [`Self::read_locked`].
    pub(crate) fn commit_locked(
        &self,
        c: &mut StagedCommit,
        guards: &mut Guards<'_>,
        touched: &BTreeSet<usize>,
        check: bool,
    ) -> Result<Result<bool, EngineError>, Stale> {
        let txn = c.txn;
        let entities = |xs: Option<&Vec<(EntityId, Value)>>| {
            xs.into_iter().flatten().map(|&(x, _)| x).collect()
        };
        // Rule 3 arc sources for the combined atomic write.
        let targets = check.then(|| {
            let mut targets = HashSet::new();
            for (&s, xs) in &c.writes {
                let g = &guards[s];
                let own = g.cg.node_of(txn);
                for &(x, _) in xs {
                    let sources = g.cg.accessors_of(x).into_iter();
                    targets.extend(sources.filter(|&n| Some(n) != own).map(|n| (s, n)));
                }
            }
            targets
        });
        let all = c.writes.values().flatten().map(|&(x, _)| x).collect();
        let step = Step::new(txn, Op::WriteAll(all));
        // Shard by shard; in one shard the step is its own sub-step.
        let subs = touched.iter().map(|&s| match c.writes.get(&s) {
            _ if touched.len() == 1 => (s, Cow::Borrowed(&step)),
            xs => (s, Cow::Owned(Step::new(txn, Op::WriteAll(entities(xs))))),
        });
        if let Err(e) = self.apply_step(guards, &step, touched, targets, subs)? {
            return Ok(Err(e));
        }
        // Submit the commit record while every touched shard lock is
        // still held, so the log order of conflicting commits matches
        // their serialization order — and BEFORE the install below: a
        // version the log refused must never become visible, or GC
        // would judge its predecessors noncurrent and retire records
        // that are still the only durable copy of their entities. The
        // durable wait happens after the locks are released.
        let log = c.submitted.is_none() && !c.writes.is_empty();
        if let Some(w) = self.wal.as_ref().filter(|_| log) {
            let record: Vec<_> = c.writes.values().flatten().copied().collect();
            let spans: Vec<u32> = touched.iter().map(|&s| s as u32).collect();
            c.submitted = Some(w.submit_commit(txn, &record, &spans));
        }
        if !matches!(c.submitted, Some(Err(_))) {
            for (&s, xs) in &c.writes {
                let g = guards.get_mut(s).expect("locked");
                for &(x, v) in xs {
                    g.store.write(x, v, txn);
                }
            }
        }
        self.record_step(step, Applied::Accepted);
        // Delete at the source: each touched shard reclaims what this
        // write made noncurrent there. The multi-shard candidates among
        // them — this transaction included, if it spans shards — are
        // offered to the multi-shard deletion under the guards already
        // held; its own-span check decides, and what these locks do not
        // cover (with one lock: all of them) waits for the standalone
        // pass.
        let mut multi: Vec<TxnId> = Vec::new();
        for &s in touched {
            multi.extend(self.reclaim_shard(guards.get_mut(s).expect("locked")));
        }
        if multi.is_empty() {
            return Ok(Ok(false));
        }
        multi.sort_unstable();
        multi.dedup(); // one entry per shard it was queued in
        self.defer_multi(self.sweep_multi_batch(guards, &multi));
        Ok(Ok(true))
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
    fn finish_durable(&self, submitted: Option<Result<u64, WalError>>) -> Result<(), EngineError> {
        let Some(sub) = submitted else {
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

    /// Client rollback (or session drop): aborts the transaction's
    /// nodes under [`Self::escalate`]'s locks — its own shards, or every
    /// shard if a GC bridge grew its span mid-acquisition. There is no
    /// cycle to check, so nothing counts as an escalated operation.
    pub(crate) fn client_abort(&self, st: &mut SessionState) {
        if st.closed {
            return;
        }
        st.closed = true;
        self.escalate(st.txn, &st.shards, None, |guards, _| {
            self.abort_everywhere(guards, st.txn);
            self.record(Event::ClientAbort(st.txn));
            Ok(())
        });
        self.metrics.aborts_voluntary.add(1);
        self.metrics.txns_left(1);
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
            .escalate(TxnId(1), &BTreeSet::from([0]), None, |guards, _| {
                guards_seen.push(guards.len());
                if guards_seen.len() == 1 {
                    Err(Stale)
                } else {
                    Ok(guards_seen.len())
                }
            });
        assert_eq!(guards_seen, [1, n], "own shards, then every shard");
        assert_eq!(out, (2, Some(1), true), "the second call's value");
        // The lock protocol counts nothing; its callers do.
        assert_eq!(e.metrics().escalated_locks_taken, 0);
    }

    #[test]
    fn escalate_locks_entry_and_registered_span() {
        let e = engine(8);
        let t = TxnId(9);
        e.inner
            .coord
            .reg_insert(t, &BTreeSet::from([0, 3]), &e.inner.metrics);
        let mut seen: Vec<Vec<usize>> = Vec::new();
        let out = e
            .inner
            .escalate(t, &BTreeSet::from([0]), None, |guards, own| {
                assert_eq!(own, &BTreeSet::from([0, 3]), "entry ∪ span, re-read");
                seen.push(guards.iter().map(|(s, _)| s).collect());
                Ok::<_, Stale>(())
            });
        assert_eq!(seen, [vec![0, 3]], "first attempt: entry ∪ registered span");
        assert_eq!(out, ((), Some(2), false), "no fallback");
        // A held guard that is not the lowest of the set would break the
        // ascending order: it is dropped and retaken in turn.
        let held = (3, e.inner.lock_shard(3));
        SHARD_LOCKS.with(|c| c.set(0));
        e.inner
            .escalate(t, &BTreeSet::from([3]), Some(held), |guards, _| {
                seen.push(guards.iter().map(|(s, _)| s).collect());
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

    #[test]
    fn client_abort_of_a_ghosted_active_reader_clears_every_shard() {
        // P reads in shard 0 and stays active; N (spanning {0, 1})
        // follows it in 0 and precedes Q in 1. Deleting N must bridge
        // P -> Q, and the two share no shard: GC ghosts the active P
        // into 1, so P's span is wider than its read set.
        let e = engine(2);
        let mut p = e.begin();
        let pid = p.id();
        p.read(0).unwrap();
        let mut n = e.begin();
        n.write(0, 1); // P -> N in 0
        n.write(1, 1);
        n.commit().unwrap();
        let mut q = e.begin();
        q.read(1).unwrap(); // N -> Q in 1
        for x in [0, 1] {
            let mut o = e.begin(); // overwrite: N becomes noncurrent
            o.write(x, 2);
            o.commit().unwrap();
        }
        e.gc_sweep();
        assert_eq!(e.metrics().gc_ghosts, 1, "P ghosted into shard 1");
        let span = e.inner.coord.reg_get(pid, &e.inner.metrics);
        assert_eq!(span, Some(vec![0, 1]));
        let before = e.metrics();
        p.abort();
        for s in 0..2 {
            let g = e.inner.shards[s].lock().unwrap();
            assert!(g.cg.node_of(pid).is_none(), "P left a node in shard {s}");
        }
        assert_eq!(e.inner.coord.reg_get(pid, &e.inner.metrics), None);
        let after = e.metrics();
        assert_eq!(after.aborts_voluntary, before.aborts_voluntary + 1);
        assert_eq!(
            (
                after.escalated_ops,
                after.fast_path_ops,
                after.boundary_underflows
            ),
            (before.escalated_ops, before.fast_path_ops, 0),
            "a client abort is no escalated operation"
        );
        q.commit().unwrap();
        e.gc_sweep();
        for s in 0..2 {
            let marks = e.inner.shards[s].lock().unwrap().cg.boundary_count();
            assert_eq!(marks, 0, "shard {s} kept a boundary mark");
        }
        e.summary_audit().unwrap();
    }
}
