//! Deletion at the source and cross-shard deletion.
//!
//! *What* is deleted is decided by two rules. A completed single-shard
//! transaction with no predecessor goes by Lemma 1 (`deltx_core::c1`):
//! C1 is vacuous for it, and every arc the engine adds lands on the
//! stepping active node, on a node that already has a predecessor or on
//! a boundary node, so it stays a source for good and lies on no future
//! cycle. Everything else goes by Corollary 1's noncurrent test
//! ([`deltx_core::noncurrent`]). The source rule deletes current
//! writers too: their values stay in the store, and their log records
//! stay on disk until a later record supersedes every entity they hold
//! (`deltx_wal`). Why the two rules mix safely is in
//! `docs/architecture.md`, "completed sources at the source". This
//! module is about *how* — and about *who*: there is no GC thread.
//! Every commit deletes what its own write made deletable, under the
//! locks it already holds.
//!
//! Deleting a completed transaction is the paper's `D(G, N)`: remove
//! the node, connect every predecessor to every successor. For a
//! single-shard transaction all of that is shard-local. For a
//! multi-shard transaction, a predecessor in shard A and a successor in
//! shard B need a bridge no single shard can express — so the engine
//! materializes the predecessor as a **ghost node** in B (an
//! access-free node carrying only ordering arcs,
//! [`deltx_core::CgState::admit_completed_ghost`]) and bridges there.
//! Union reachability is preserved exactly, which keeps the engine
//! step-for-step equivalent to a monolithic reduced scheduler — and
//! Theorem 2 lifts that to equivalence with the full, never-deleting
//! scheduler. A ghost has no accesses of its own, so it never keeps
//! its transaction current: the transaction goes, ghosts and all, with
//! the first pass that finds it noncurrent where it read and wrote.
//! Nothing compacts the arcs between ghosts in the meantime — measured,
//! there is next to nothing to compact (`docs/architecture.md`,
//! "no GC thread").
//!
//! Whether held locks are enough to delete a multi-shard candidate is
//! decided under them, by the one check there is: before its first
//! mutation, each candidate verifies that its own registered span is
//! fully locked. Nothing else is needed: a bridge lands either in a
//! locked shard that already holds both neighbors or in a ghost of the
//! predecessor in the successor's shard — one of the candidate's own.
//! The entry it reads is frozen: it can only be mutated by a thread
//! holding the lock of a shard in that span, and the check demands all
//! of them — so it is authoritative with nothing planned or validated
//! beforehand.
//!
//! A commit offers the multi-shard candidates its write queued —
//! itself included — to that check under its own guards (a fast-path
//! commit's one lock covers none of them); on span-closed traffic (a
//! hot shard pair, a reader that commits after everything it read was
//! overwritten) that deletes them on the spot.
//! A candidate the committer's locks do not cover waits in
//! `pending_multi`, and once [`MULTI_GC_THRESHOLD`] wait, the committer
//! that got them there runs the standalone pass after releasing its
//! locks. That pass does **not** stop the world: it locks the lead
//! candidate's own **registered span**, ascending, and offers every
//! pending candidate to that acquisition.
//!
//! A candidate whose own span is not locked leads a later round. A
//! lead whose span grew between the read and the lock (a concurrent
//! pass ghosted it) comes back too, and retries under its span as
//! re-read: spans only grow and hold at most `shards` shards, so a lead
//! comes back fewer than `shards` times, and a span of every shard is
//! just the last round — the grow-and-retry rule of escalation
//! ([`crate::ops`]). A stale read can delay a deletion but never
//! misplace a bridge. Within a shard, `D(G, N)` bridging preserves the
//! boundary summary exactly except for the deleted endpoint's own
//! pairs — a pure shrink, which cannot turn a sealed verdict given
//! under another lock wrong (`gc_oracle.rs` proves the decisions
//! bit-identical to a one-shard engine's).

use crate::engine::{EngineInner, Guards, Shard};
use deltx_core::{noncurrent, TxnState};
use deltx_graph::NodeId;
use deltx_model::{Op, Step, TxnId};
use std::collections::BTreeSet;
use std::time::Duration;

/// Pending multi-shard count at which the committer that reached it
/// runs the standalone multi-shard pass
/// ([`EngineInner::drain_multi_backlog`]). Below it the candidates
/// wait: what is left when traffic stops — at most
/// `MULTI_GC_THRESHOLD - 1` of them — is the idle residue
/// [`crate::Engine::gc_sweep`] drains.
const MULTI_GC_THRESHOLD: usize = 32;

/// Outcome of one multi-shard GC candidate under the held locks.
#[derive(Debug)]
enum MultiDelete {
    /// Deleted from every shard, bridges materialized.
    Deleted,
    /// Not deletable now (gone, active somewhere, or still current);
    /// dropped from the queue per the re-enqueue rules.
    Skipped,
    /// The candidate's own registered span exceeds the locked subset.
    NeedsWider,
}

impl EngineInner {
    /// One full GC sweep: reclaim every shard's candidate queue, then
    /// the multi-shard pass. See [`crate::Engine::gc_sweep`] for who
    /// calls it.
    pub(crate) fn gc_sweep(&self) {
        for s in 0..self.shards.len() {
            let deferred = self.reclaim_shard(&mut self.lock_shard(s));
            self.defer_multi(deferred);
        }
        self.sweep_multi_shard();
    }

    /// Queues multi-shard candidates that the locks of whoever found
    /// them do not cover, for the standalone pass (a leaf lock: fine
    /// under shard locks).
    pub(crate) fn defer_multi(&self, txns: Vec<TxnId>) {
        if !txns.is_empty() {
            self.pending_multi.lock().unwrap().extend(txns);
        }
    }

    /// Runs the standalone multi-shard pass while
    /// [`MULTI_GC_THRESHOLD`] or more candidates wait for it (a pass
    /// re-queues the predecessors it ghosted, hence the loop). Every
    /// commit that deferred a candidate calls this after releasing its
    /// locks — nobody else will — so the backlog, and with it every
    /// boundary summary, stays bounded without a GC thread.
    pub(crate) fn drain_multi_backlog(&self) {
        while self.pending_multi.lock().unwrap().len() >= MULTI_GC_THRESHOLD {
            self.sweep_multi_shard();
        }
    }

    /// Reclaims one shard — **deletion at the source**: every commit
    /// calls this on each shard it holds, right after its install, so
    /// the candidates are the ones its own `WriteAll` just queued (the
    /// overwritten accessors plus itself) and the lock hold stays short
    /// and uniform. Drains the candidate queue until it stays empty,
    /// deleting each single-shard candidate that has no predecessor
    /// (Lemma 1) or is noncurrent (Corollary 1); a deleted source queues
    /// the successors it orphans, so a chain of sources goes in one
    /// call. Returns the multi-shard candidates, which the caller offers
    /// to [`Self::sweep_multi_batch`] under the locks it holds. Caller
    /// holds the shard's lock. Replayed commits run it like live ones;
    /// [`Self::gc_sweep`] calls it too.
    pub(crate) fn reclaim_shard(&self, g: &mut Shard) -> Vec<TxnId> {
        let t0 = self.rt.now();
        let mut candidates = g.cg.drain_gc_candidates();
        if candidates.is_empty() {
            return Vec::new();
        }
        // A registered (multi-shard) transaction's node carries a
        // boundary mark for as long as it lives there
        // (`note_multi_shard`, `bridge_cross_shard`), so in a shard
        // with none no candidate can be registered: skip the registry
        // stripe lock per candidate.
        let any_registered = g.cg.boundary_count() != 0;
        let mut deferred: Vec<TxnId> = Vec::new();
        let (mut deleted, mut sources) = (0u64, 0u64);
        while !candidates.is_empty() {
            for n in candidates {
                if !g.cg.is_completed(n) {
                    continue; // deleted earlier in this drain
                }
                let txn = g.cg.info(n).txn;
                if any_registered && self.coord.reg_contains(txn, &self.metrics) {
                    deferred.push(txn);
                    continue;
                }
                let source = g.cg.graph().preds(n).is_empty();
                if source || !noncurrent::is_current(&g.cg, n) {
                    g.cg.delete(n).expect("completed node deletes");
                    deleted += 1;
                    sources += u64::from(source);
                }
            }
            candidates = g.cg.drain_gc_candidates();
        }
        self.metrics.gc_source_deletions.add(sources);
        self.book_deletions(deleted, t0);
        deferred
    }

    /// Books `deleted` deletions made in one hold that started at `t0`.
    fn book_deletions(&self, deleted: u64, t0: Duration) {
        self.metrics.gc_deletions.add(deleted);
        self.metrics.txns_left(deleted);
        let pause = self.rt.now().saturating_sub(t0);
        self.metrics.gc_pause_nanos.add(pause.as_nanos() as u64);
    }

    /// The standalone multi-shard pass over everything pending:
    /// noncurrent-everywhere transactions are deleted from every
    /// shard, with `D(G, N)` bridges re-materialized across shards via
    /// ghosts. Each call counts as one sweep. (A one-shard engine never
    /// has anything pending: it registers no multi-shard transaction.)
    ///
    /// It does not stop the world. Repeatedly: lock the lead
    /// candidate's registered span in ascending order and offer
    /// **every** remaining candidate to the batch — the ones whose
    /// closures the held locks cover are processed for free (a hot
    /// shard pair's whole backlog drains under one acquisition), the
    /// rest come back and lead a later round. The own-span check inside
    /// [`Self::try_delete_multi`] is the only staleness signal: a lead
    /// that comes back was ghosted into a new shard since the stripe
    /// read, and retries under its grown span.
    pub(crate) fn sweep_multi_shard(&self) {
        self.metrics.gc_sweeps.add(1);
        let pending = std::mem::take(&mut *self.pending_multi.lock().unwrap());
        let mut queue: Vec<TxnId> = pending.into_iter().collect();
        while let Some(&lead) = queue.first() {
            let Some(span) = self.coord.reg_get(lead, &self.metrics) else {
                // Aborted or already deleted: drop it from the queue.
                queue.remove(0);
                continue;
            };
            let mut guards = self.lock_subset(&span.into_iter().collect(), None);
            self.metrics
                .record_gc_closure(guards.len(), self.shards.len());
            queue = self.sweep_multi_batch(&mut guards, &queue);
        }
    }

    /// Deletes every deletable candidate of `batch` under whatever
    /// shard locks are held — a standalone pass's, or the guards of the
    /// commit that queued the candidates — then reclaims the sources
    /// those deletions orphaned in the locked shards, re-queues ghosted
    /// predecessors, and flushes the touched summaries. Returns the
    /// candidates whose own span turned out to exceed the locked
    /// subset, in `batch` order (with one lock held, all of them: one
    /// lock covers no multi-shard transaction).
    pub(crate) fn sweep_multi_batch(&self, guards: &mut Guards<'_>, batch: &[TxnId]) -> Vec<TxnId> {
        if guards.len() < 2 {
            return batch.to_vec();
        }
        let t0 = self.rt.now();
        let mut still_pending: BTreeSet<TxnId> = BTreeSet::new();
        let mut deleted = 0u64;
        let mut ghosts_made = 0u64;
        let mut widen: Vec<TxnId> = Vec::new();
        // Batch the bridge-arc summary maintenance: ghost marks and
        // ordering arcs between deletes coalesce, and deletes flush
        // their shard's queue themselves to stay exact.
        self.batched(guards, |guards| {
            for &txn in batch {
                let pending = &mut still_pending;
                match self.try_delete_multi(guards, txn, pending, &mut ghosts_made) {
                    MultiDelete::Deleted => deleted += 1,
                    MultiDelete::Skipped => {}
                    MultiDelete::NeedsWider => widen.push(txn),
                }
            }
        });
        self.metrics.gc_ghosts.add(ghosts_made);
        self.book_deletions(deleted, t0);
        if deleted > 0 {
            for g in guards.values_mut() {
                still_pending.extend(self.reclaim_shard(g));
            }
        }
        if !still_pending.is_empty() {
            self.pending_multi.lock().unwrap().extend(still_pending);
        }
        widen
    }

    /// One candidate of the multi-shard pass: checks that its own
    /// registered span is locked, checks deletability, then deletes the
    /// transaction from every shard and re-materializes its `D(G, N)`
    /// bridges.
    ///
    /// The span check is the only one, and it is authoritative because
    /// it runs under the held locks: the entry can only be mutated by a
    /// thread holding the lock of a shard in it, and the check demands
    /// all of them. No neighbor's span is read: every bridge lands in a
    /// locked shard ([`Self::bridge_cross_shard`]).
    fn try_delete_multi(
        &self,
        guards: &mut Guards<'_>,
        txn: TxnId,
        still_pending: &mut BTreeSet<TxnId>,
        ghosts_made: &mut u64,
    ) -> MultiDelete {
        let Some(shards) = self.coord.reg_get(txn, &self.metrics) else {
            return MultiDelete::Skipped; // aborted or already deleted
        };
        // The candidate's own span must be fully locked (it is not the
        // lead or the committer, or a concurrent pass ghosted it into
        // new shards since the lead's span was read).
        if shards.iter().any(|s| guards.get(*s).is_none()) {
            return MultiDelete::NeedsWider;
        }
        let nodes: Vec<(usize, NodeId)> = shards
            .iter()
            .filter_map(|&s| guards[s].cg.node_of(txn).map(|n| (s, n)))
            .collect();
        // Not deletable yet? Drop it from the queue: the events
        // that can change the answer put it back — its commit or an
        // overwrite of one of its entities (both queue it in the
        // shard, and `reclaim_shard` returns it to the committer), or
        // being ghosted (bridge_cross_shard).
        let all_completed = nodes.iter().all(|&(s, n)| guards[s].cg.is_completed(n));
        if !all_completed {
            return MultiDelete::Skipped;
        }
        let current = nodes
            .iter()
            .any(|&(s, n)| noncurrent::is_current(&guards[s].cg, n));
        if current {
            return MultiDelete::Skipped;
        }
        // Collect cross-shard pred/succ transaction pairs (local
        // pairs are bridged by `delete` itself) before deleting forgets
        // them.
        let mut preds: Vec<(usize, TxnId)> = Vec::new();
        let mut succs: Vec<(usize, TxnId)> = Vec::new();
        for &(s, n) in &nodes {
            for &p in guards[s].cg.graph().preds(n) {
                preds.push((s, guards[s].cg.info(p).txn));
            }
            for &q in guards[s].cg.graph().succs(n) {
                succs.push((s, guards[s].cg.info(q).txn));
            }
        }
        for &(s, n) in &nodes {
            let g = guards.get_mut(s).expect("span shard is locked");
            let marks = g.cg.boundary_count();
            g.cg.delete(n).expect("completed node deletes");
            self.check_mark_dropped(g, marks);
        }
        self.coord.reg_remove(txn, &self.metrics);
        for &(ps, p) in &preds {
            for &(qs, q) in &succs {
                if ps == qs || p == q {
                    continue; // same shard: bridged locally
                }
                *ghosts_made += self.bridge_cross_shard(guards, still_pending, (ps, p), (qs, q));
            }
        }
        MultiDelete::Deleted
    }

    /// Ensures an ordering arc `pred -> succ` exists somewhere in the
    /// union graph: in the first locked shard, ascending, that holds a
    /// node of both, else from a ghost of `pred` materialized in
    /// `succ`'s shard. Returns how many ghosts were created (0 or 1).
    /// `ps` and `qs` are shards of the deleted transaction, whose whole
    /// span the caller holds; no registry entry of either neighbor is
    /// read.
    fn bridge_cross_shard(
        &self,
        guards: &mut Guards<'_>,
        pending: &mut BTreeSet<TxnId>,
        (ps, p): (usize, TxnId),
        (qs, q): (usize, TxnId),
    ) -> u64 {
        // Planted bug: drop the D(G, N) bridge entirely — deleting N
        // silently loses the induced pred -> succ ordering, exactly
        // the class of bug the schedule-space search must rediscover
        // (the never-deleting oracle replay convicts it).
        #[cfg(feature = "planted")]
        if crate::planted::drop_gc_bridge_bug() {
            return 0;
        }
        // A locked shard where both live already?
        let common = guards
            .iter()
            .find_map(|(c, g)| Some((c, g.cg.node_of(p)?, g.cg.node_of(q)?)));
        if let Some((c, pn, qn)) = common {
            let g = guards.get_mut(c).expect("common shard is locked");
            g.cg.add_order_arc(pn, qn)
                .expect("bridge follows an existing union path");
            return 0;
        }
        // Materialize p as a ghost in q's shard (p has no node there:
        // that shard is locked and was searched above).
        let target = qs;
        let p_completed = {
            let g = &guards[ps];
            let pn = g.cg.node_of(p).expect("registered node");
            g.cg.info(pn).state == TxnState::Completed
        };
        {
            let tg = guards
                .get_mut(target)
                .expect("ghost target shard is locked");
            let ghost = if p_completed {
                tg.cg
                    .admit_completed_ghost(p)
                    .expect("ghost id unseen in target shard")
            } else {
                // Active predecessor: an access-free *active* node — it
                // will be completed by p's own commit (which consults
                // the registry) or removed by p's abort.
                tg.cg.apply(&Step::new(p, Op::Begin)).expect("ghost begin");
                tg.cg.node_of(p).expect("just admitted")
            };
            // Mark the ghost boundary *before* bridging so the new arc
            // lands in the summary.
            tg.cg.set_boundary(p, true);
            let qn = tg.cg.node_of(q).expect("registered node");
            tg.cg
                .add_order_arc(ghost, qn)
                .expect("bridge follows an existing union path");
        }
        // p is now multi-shard: grow its entry under the lock of `ps`,
        // a shard of its span, and mark its node there if it was its
        // only one.
        if self.coord.reg_extend(p, ps, target, &self.metrics) {
            let pg = guards.get_mut(ps).expect("predecessor shard is locked");
            pg.cg.set_boundary(p, true);
        }
        if p_completed {
            pending.insert(p);
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::MULTI_GC_THRESHOLD;
    use crate::engine::SHARD_LOCKS;
    use crate::{Engine, EngineConfig};
    use deltx_core::noncurrent;
    use deltx_model::TxnId;
    use std::collections::BTreeSet;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            shards: 8,
            ..EngineConfig::default()
        })
    }

    /// Commits one transaction that writes `xs`.
    fn overwrite(e: &Engine, xs: &[u32]) -> TxnId {
        let mut t = e.begin();
        let id = t.id();
        for &x in xs {
            t.write(x, 1);
        }
        t.commit().unwrap();
        id
    }

    /// `txn` has no node left in shard `s`, and the shard has nothing
    /// queued for a later sweep.
    fn assert_gone(e: &Engine, s: usize, txn: TxnId) {
        let g = e.inner.shards[s].lock().unwrap();
        assert!(g.cg.node_of(txn).is_none(), "{txn} still has a node");
        assert_eq!(g.cg.gc_candidate_count(), 0, "shard {s} left a backlog");
    }

    // No `gc_sweep` in the tests below until one says so: the
    // overwriting commit is what deletes, before it returns.

    #[test]
    fn fast_path_commit_deletes_what_it_made_noncurrent() {
        let e = engine();
        let mut r = e.begin(); // precedes every writer: none is a source
        r.read(0).unwrap();
        r.read(8).unwrap();
        let t1 = overwrite(&e, &[0, 8]); // both in shard 0
        overwrite(&e, &[0]);
        assert_eq!(e.graph_size().nodes, 3, "R, T2; T1 is current on e8");
        overwrite(&e, &[8]);
        assert_eq!(e.graph_size().nodes, 3, "R, T2 and T3; T1 went with T3");
        assert_gone(&e, 0, t1);
        let m = e.metrics();
        assert_eq!(
            (
                m.gc_deletions,
                m.gc_source_deletions,
                m.gc_sweeps,
                m.escalated_ops
            ),
            (1, 0, 0, 0)
        );
    }

    #[test]
    fn a_commit_deletes_the_chain_of_sources_it_starts() {
        let e = engine();
        let mut r = e.begin();
        r.read(0).unwrap();
        let t1 = overwrite(&e, &[0, 8]); // R -> T1, all in shard 0
        let mut t2 = e.begin();
        let t2_id = t2.id();
        t2.read(8).unwrap();
        t2.write(16, 1);
        t2.commit().unwrap(); // T1 -> T2
        assert_eq!(e.graph_size().nodes, 3, "T1 and T2 follow the active R");
        assert_eq!(e.metrics().gc_deletions, 0);
        // R's read-only commit makes it a source; its deletion orphans
        // T1, whose deletion orphans T2, all under R's one lock.
        SHARD_LOCKS.with(|c| c.set(0));
        r.commit().unwrap();
        assert_eq!(SHARD_LOCKS.with(|c| c.get()), 1);
        assert_eq!(e.graph_size().nodes, 0);
        for t in [t1, t2_id] {
            assert_gone(&e, 0, t);
        }
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_source_deletions), (3, 3));
        assert_eq!(e.peek(8), 1, "the current writers' values stay");
    }

    #[test]
    fn escalated_commit_deletes_its_single_shard_neighbours() {
        let e = engine();
        let mut r0 = e.begin(); // precede T1 and U1: neither is a source
        r0.read(0).unwrap();
        r0.read(8).unwrap();
        let mut r1 = e.begin();
        r1.read(1).unwrap();
        r1.read(9).unwrap();
        let t1 = overwrite(&e, &[0, 8]); // shard 0
        let u1 = overwrite(&e, &[1, 9]); // shard 1
        overwrite(&e, &[0, 1]); // spans shards 0 and 1
        assert_eq!(e.graph_size().nodes, 6, "R0, R1, T1, U1; T2 twice");
        overwrite(&e, &[8, 9]);
        assert_eq!(e.graph_size().nodes, 6, "R0, R1; T2 and T3 twice");
        assert_gone(&e, 0, t1);
        assert_gone(&e, 1, u1);
        let m = e.metrics();
        assert_eq!(
            (m.gc_deletions, m.gc_source_deletions, m.gc_sweeps),
            (2, 0, 0)
        );
        assert!(m.escalated_ops >= 2, "both two-shard commits escalated");
    }

    /// `txn` has a node in shard `s`.
    fn has_node(e: &Engine, s: usize, txn: TxnId) -> bool {
        e.inner.shards[s].lock().unwrap().cg.node_of(txn).is_some()
    }

    /// Boundary-node counts of shards 0, 1 and 2.
    fn boundary_counts(e: &Engine) -> [usize; 3] {
        [0, 1, 2].map(|s| e.inner.shards[s].lock().unwrap().cg.boundary_count())
    }

    /// What waits for the standalone multi-shard pass.
    fn pending(e: &Engine) -> Vec<TxnId> {
        let p = e.inner.pending_multi.lock().unwrap();
        p.iter().copied().collect()
    }

    #[test]
    fn span_closed_candidate_is_deleted_under_its_own_span() {
        let e = engine();
        let t1 = overwrite(&e, &[0, 1]); // spans shards 0 and 1
        assert!(has_node(&e, 0, t1) && has_node(&e, 1, t1));
        SHARD_LOCKS.with(|c| c.set(0));
        // T1's only neighbour, same span: its commit holds T1's closure.
        overwrite(&e, &[0, 1]);
        assert_eq!(
            SHARD_LOCKS.with(|c| c.get()),
            2,
            "the commit's; none for GC"
        );
        assert!(!has_node(&e, 0, t1) && !has_node(&e, 1, t1));
        assert_eq!(e.inner.coord.reg_get(t1, &e.inner.metrics), None);
        assert_eq!(
            pending(&e),
            [],
            "the committer is current: judged, not queued"
        );
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_sweeps), (1, 0));
        assert_eq!(m.gc_closure_hist, [0; 8]);
    }

    #[test]
    fn read_only_multi_shard_transaction_is_gone_when_its_commit_returns() {
        let e = engine();
        overwrite(&e, &[0]);
        overwrite(&e, &[1]);
        let mut r = e.begin();
        let id = r.id();
        r.read(0).unwrap();
        r.read(1).unwrap(); // R spans shards 0 and 1
        overwrite(&e, &[0]);
        overwrite(&e, &[1]); // everything R read is overwritten; R is active
        assert_eq!(boundary_counts(&e), [1, 1, 0]);
        r.commit().unwrap();
        assert!(!has_node(&e, 0, id) && !has_node(&e, 1, id));
        assert_eq!(e.inner.coord.reg_get(id, &e.inner.metrics), None);
        assert_eq!(boundary_counts(&e), [0, 0, 0]);
        assert_eq!(e.graph_size().nodes, 0, "R's overwriters went with it");
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_sweeps), (5, 0), "four writers and R");
        assert_eq!(m.gc_source_deletions, 4, "all but R were sources");
        assert_eq!((m.gc_closure_hist, m.boundary_underflows), ([0; 8], 0));
    }

    // One lock covers no multi-shard candidate: fast-path overwriters
    // leave theirs to the standalone pass, driven by hand here.

    #[test]
    fn fast_path_overwrites_leave_the_candidate_to_the_own_span_pass() {
        let e = engine();
        let t1 = overwrite(&e, &[0, 1]); // spans shards 0 and 1
        overwrite(&e, &[0]);
        overwrite(&e, &[1]);
        assert_eq!(e.metrics().escalated_ops, 1, "T1's commit only");
        assert!(has_node(&e, 0, t1) && has_node(&e, 1, t1));
        assert_eq!(pending(&e), [t1]);
        SHARD_LOCKS.with(|c| c.set(0));
        e.inner.sweep_multi_shard();
        assert_eq!(SHARD_LOCKS.with(|c| c.get()), 2, "span.len() acquisitions");
        assert!(!has_node(&e, 0, t1) && !has_node(&e, 1, t1));
        assert_eq!(e.inner.coord.reg_get(t1, &e.inner.metrics), None);
        let m = e.metrics();
        // T1, then the two overwriters its deletion left as sources.
        assert_eq!((m.gc_deletions, m.gc_source_deletions), (3, 2));
        assert_eq!(
            m.gc_closure_hist,
            [0, 1, 0, 0, 0, 0, 0, 0],
            "one 2-lock set"
        );
    }

    #[test]
    fn a_lead_spanning_every_shard_goes_in_one_own_span_acquisition() {
        let e = engine();
        let everywhere: Vec<u32> = (0..8).collect();
        let t1 = overwrite(&e, &everywhere); // spans all 8 shards
        for &x in &everywhere {
            overwrite(&e, &[x]); // fast path: T1 waits for the pass
        }
        assert_eq!(pending(&e), [t1]);
        SHARD_LOCKS.with(|c| c.set(0));
        e.inner.sweep_multi_shard();
        assert_eq!(SHARD_LOCKS.with(|c| c.get()), 8, "its own span, once");
        assert!((0..8).all(|s| !has_node(&e, s, t1)));
        assert_eq!(e.inner.coord.reg_get(t1, &e.inner.metrics), None);
        let m = e.metrics();
        // T1, then the eight overwriters its deletion left as sources.
        assert_eq!((m.gc_deletions, m.gc_partial_sweeps), (9, 0));
        assert_eq!(
            m.gc_closure_hist,
            [0, 0, 0, 0, 1, 0, 0, 0],
            "one 8-lock set"
        );
    }

    /// Shard `s` holds an order arc `from -> to`.
    fn arc_in(e: &Engine, s: usize, from: TxnId, to: TxnId) -> bool {
        let g = e.inner.shards[s].lock().unwrap();
        let (Some(f), Some(t)) = (g.cg.node_of(from), g.cg.node_of(to)) else {
            return false;
        };
        g.cg.graph().succs(f).contains(&t)
    }

    #[test]
    fn escaping_closure_is_deleted_under_its_own_span() {
        let e = engine();
        let mut r = e.begin(); // R -> T1 in shard 0; R stays active
        let rid = r.id();
        r.read(8).unwrap();
        let t1 = overwrite(&e, &[0, 1, 8]); // spans {0, 1}
        let t2 = overwrite(&e, &[1, 2]); // T1 -> T2 in shard 1; spans {1, 2}
        overwrite(&e, &[0, 8]); // T1 is now noncurrent everywhere
        assert_eq!(boundary_counts(&e), [1, 2, 1]);
        assert_eq!(pending(&e), [t1]);
        // T2's span reaches shard 2, outside T1's: T1 goes under its own
        // two locks anyway, and the bridge R -> T2 is a ghost of R in
        // T2's shard 1 — the only shard of T1's where T2 lives.
        e.gc_sweep();
        assert!(!has_node(&e, 0, t1) && !has_node(&e, 1, t1));
        assert!(has_node(&e, 1, t2) && has_node(&e, 2, t2), "T2 is current");
        assert!(arc_in(&e, 1, rid, t2), "the bridge landed in shard 1");
        let span = e.inner.coord.reg_get(rid, &e.inner.metrics);
        assert_eq!(span, Some(vec![0, 1]), "R grew into shard 1");
        assert_eq!(boundary_counts(&e), [1, 2, 1], "R's two nodes for T1's");
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_ghosts), (1, 1));
        assert_eq!(m.gc_closure_hist, [0, 1, 0, 0, 0, 0, 0, 0], "2 locks only");
        drop(r);
        assert_eq!(boundary_counts(&e), [0, 1, 1]);
        assert_eq!(e.metrics().boundary_underflows, 0);
        e.summary_audit().unwrap();
    }

    #[test]
    fn committer_holding_the_span_deletes_the_candidate_at_once() {
        let e = engine();
        let t1 = overwrite(&e, &[0, 1]); // spans {0, 1}
        let t2 = overwrite(&e, &[1, 2]); // T1 -> T2 in shard 1; spans {1, 2}
        SHARD_LOCKS.with(|c| c.set(0));
        // T3 holds T1's span; that T1's neighbour T2 reaches shard 2
        // does not matter.
        overwrite(&e, &[0, 1]);
        assert_eq!(
            SHARD_LOCKS.with(|c| c.get()),
            2,
            "the commit's; none for GC"
        );
        assert!(!has_node(&e, 0, t1) && !has_node(&e, 1, t1));
        assert_eq!(e.inner.coord.reg_get(t1, &e.inner.metrics), None);
        // T1 waits since T2's commit, which did not hold its span: a
        // stale entry the pass drops. T2's span {1, 2} is not held.
        assert_eq!(pending(&e), [t1, t2]);
        assert_eq!(boundary_counts(&e), [1, 2, 1]);
        let m = e.metrics();
        assert_eq!(
            (m.gc_deletions, m.gc_sweeps, m.gc_closure_hist),
            (1, 0, [0; 8])
        );
        e.gc_sweep();
        assert!(
            has_node(&e, 1, t2) && has_node(&e, 2, t2),
            "T2 is current on e2"
        );
        assert_eq!((pending(&e), boundary_counts(&e)), (vec![], [1, 2, 1]));
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_sweeps), (1, 1));
        assert_eq!(
            m.gc_closure_hist,
            [0, 1, 0, 0, 0, 0, 0, 0],
            "T2's own span, once"
        );
        assert_eq!(m.boundary_underflows, 0);
    }

    /// An active `P` in shards {0, 2}, a candidate `X` in {0, 1} with
    /// `P -> X` in shard 0, and `Q` in {1, 2} with `X -> Q` in shard 1;
    /// `P` and `Q` share shard 2, with no arc there. Returns `P`'s open
    /// session, `X` and `Q`.
    fn common_shard_outside_the_candidate(e: &Engine) -> (crate::Session, TxnId, TxnId) {
        let mut p = e.begin();
        p.read(0).unwrap();
        p.read(2).unwrap();
        let x = overwrite(e, &[0, 1]);
        let mut q = e.begin();
        let qid = q.id();
        q.read(10).unwrap();
        q.write(1, 1);
        q.commit().unwrap();
        overwrite(e, &[0]); // X is now noncurrent everywhere
        assert_eq!(pending(e), [x]);
        (p, x, qid)
    }

    #[test]
    fn a_locked_common_shard_gets_the_arc_and_no_ghost() {
        let e = engine();
        let (p, x, q) = common_shard_outside_the_candidate(&e);
        let pid = p.id();
        let mut guards = e.inner.lock_subset(&BTreeSet::from([0, 1, 2]), None);
        let left = e.inner.sweep_multi_batch(&mut guards, &[x]);
        drop(guards);
        assert_eq!(left, []);
        assert!(!has_node(&e, 0, x) && !has_node(&e, 1, x));
        assert!(arc_in(&e, 2, pid, q), "bridged in the first common shard");
        assert!(!has_node(&e, 1, pid), "no ghost");
        let span = e.inner.coord.reg_get(pid, &e.inner.metrics);
        assert_eq!(span, Some(vec![0, 2]));
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_ghosts), (1, 0));
        drop(p);
        assert_eq!(e.metrics().boundary_underflows, 0);
        e.summary_audit().unwrap();
    }

    #[test]
    fn a_common_shard_outside_the_span_gives_a_ghost_in_qs() {
        let e = engine();
        let (p, x, q) = common_shard_outside_the_candidate(&e);
        let pid = p.id();
        e.gc_sweep(); // X's own span, {0, 1}: shard 2 is not locked
        assert!(!has_node(&e, 0, x) && !has_node(&e, 1, x));
        assert!(arc_in(&e, 1, pid, q), "P's ghost in Q's shard 1");
        assert!(
            !arc_in(&e, 2, pid, q),
            "the unlocked common shard is untouched"
        );
        let span = e.inner.coord.reg_get(pid, &e.inner.metrics);
        assert_eq!(span, Some(vec![0, 1, 2]));
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_ghosts), (1, 1));
        assert_eq!(m.gc_closure_hist, [0, 1, 0, 0, 0, 0, 0, 0]);
        drop(p);
        assert_eq!(e.metrics().boundary_underflows, 0);
        e.summary_audit().unwrap();
    }

    /// `txn` has no node left, or one that is still current.
    fn gone_or_current(e: &Engine, txn: TxnId) -> bool {
        let shards: Vec<_> = e.inner.shards.iter().map(|s| s.lock().unwrap()).collect();
        let mut nodes = shards
            .iter()
            .filter_map(|g| g.cg.node_of(txn).map(|n| (g, n)))
            .peekable();
        nodes.peek().is_none() || nodes.any(|(g, n)| noncurrent::is_current(&g.cg, n))
    }

    #[test]
    fn idle_residue_stays_below_the_threshold_and_one_sweep_drains_it() {
        let e = engine();
        // A ring: T_k writes entities k and k+1 (mod 8), so the commit
        // that finishes overwriting a candidate never holds its span.
        for k in 0..100u32 {
            overwrite(&e, &[k % 8, (k + 1) % 8]);
            assert!(pending(&e).len() < MULTI_GC_THRESHOLD, "after commit {k}");
        }
        let m = e.metrics();
        assert!(m.gc_sweeps >= 2, "committers ran the pass themselves: {m}");
        let residue = pending(&e);
        assert!(!residue.is_empty(), "the traffic leaves some behind");
        assert!(residue.iter().any(|&t| !gone_or_current(&e, t)));
        e.gc_sweep();
        for t in residue {
            assert!(gone_or_current(&e, t), "{t} survived the sweep");
        }
        assert_eq!(e.metrics().boundary_underflows, 0);
        e.summary_audit().unwrap();
    }
}
