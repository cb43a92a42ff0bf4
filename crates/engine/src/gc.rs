//! GC sweeps and cross-shard deletion.
//!
//! *What* is deleted is decided by one rule, Corollary 1's noncurrent
//! test ([`deltx_core::noncurrent`]), which never deletes an entity's
//! current writer; this module is about *how*.
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
//! scheduler. Sustained cross-shard traffic accretes ordering arcs
//! between ghosts; the sweeps run a transitive-reduction compaction
//! over the ghost-only subgraph
//! ([`deltx_core::CgState::compact_ghost_arcs`]), which provably
//! changes no reachability.
//!
//! The multi-shard pass does **not** stop the world: it locks the lead
//! candidate's own **registered span**, ascending, and offers every
//! pending candidate to that acquisition (a hot shard pair's backlog
//! drains under one). Whether the span is enough is decided under the
//! held locks, by the one check there is: before its first mutation,
//! each candidate verifies that its registered span and every
//! neighbor's span are fully locked (a bridge lands either in a ghost
//! target — one of the candidate's own shards — or in a shard both
//! neighbors already inhabit). The registry entries it reads are
//! frozen: each can only be mutated by a thread holding the lock of a
//! shard in that span, and the check demands exactly those locks — so
//! it is authoritative with nothing planned or validated beforehand.
//!
//! A candidate whose own span is not locked leads a later round. A
//! lead whose neighbors reach outside its span shows the traffic is
//! not span-closed, and everything left goes to one all-locks pass in
//! the same sweep — so a too-narrow span can delay a deletion but
//! never misplace a bridge. Within a shard, `D(G, N)` bridging
//! preserves the boundary summary exactly except for the deleted
//! endpoint's own pairs — a pure shrink, which cannot turn a sealed
//! verdict given under another lock wrong (the all-locks baseline,
//! [`crate::Engine::open_all_locks_baseline`], stops the world
//! instead; `gc_oracle.rs` proves the decisions bit-identical).

use crate::engine::{EngineInner, Guards, Shard};
use deltx_core::{noncurrent, TxnState};
use deltx_graph::NodeId;
use deltx_model::{EntityId, Op, Step, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Pending multi-shard count at which an escalated committer runs the
/// multi-shard pass itself (inline if it already holds every lock).
pub(crate) const MULTI_GC_THRESHOLD: usize = 32;

/// Outcome of one multi-shard GC candidate under the held locks.
#[derive(Debug)]
enum MultiDelete {
    /// Deleted from every shard, bridges materialized.
    Deleted,
    /// Not deletable now (gone, active somewhere, or still current);
    /// dropped from the queue per the re-enqueue rules.
    Skipped,
    /// The candidate's closure (its span and its neighbors' spans)
    /// exceeds the locked subset.
    NeedsWider,
}

impl EngineInner {
    pub(crate) fn gc_loop(&self, interval: Duration) {
        loop {
            let key = self.shutdown_ev.prepare();
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // ENOSPC escalation: while a WAL append is parked on its
            // space backoff, every sweep is a rescue attempt — each
            // deleted transaction can retire a sealed segment and free
            // the bytes the parked append needs. Shrink the tick so a
            // rescue lands inside the append's escalation window
            // instead of one full interval later.
            let pressured = self.wal.as_ref().is_some_and(|w| w.space_pressure());
            let wait = if pressured {
                self.metrics.gc_pressure_sweeps.add(1);
                Duration::from_micros(200).min(interval)
            } else {
                interval
            };
            // Timed out → a normal tick; notified → recheck the flag
            // (shutdown is the event's only notifier).
            let _ = self.shutdown_ev.wait_timeout(key, wait);
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            self.gc_sweep();
        }
    }

    /// One full GC sweep: per-shard incremental pass (including ghost
    /// compaction), then the multi-shard pass.
    pub(crate) fn gc_sweep(&self) {
        self.sweep_shards_noncurrent();
        self.sweep_multi_shard();
        self.metrics.gc_sweeps.add(1);
    }

    /// Incremental noncurrent reclaim of one shard — **deletion at the
    /// source**: every commit calls this on each shard it holds, right
    /// after its install, so the candidates are the ones its own
    /// `WriteAll` just queued (the overwritten accessors plus itself)
    /// and the lock hold stays short and uniform. Drains the candidate
    /// queue, deletes noncurrent single-shard transactions, defers
    /// multi-shard candidates to the multi pass, prunes stale store
    /// versions. Caller holds the shard's lock. The background sweep
    /// calls it too, for what no commit drains (recovery's replay).
    pub(crate) fn reclaim_shard(&self, g: &mut Shard) {
        let t0 = self.rt.now();
        let candidates = g.cg.drain_gc_candidates();
        if candidates.is_empty() {
            return;
        }
        // A registered (multi-shard) transaction's node bumps its
        // shard's boundary count for as long as it lives there
        // (`note_multi_shard`, `bridge_cross_shard`), so in a shard
        // with none no candidate can be registered: skip the registry
        // stripe lock per candidate.
        let any_registered = g.boundary != 0;
        let mut deleted: Vec<TxnId> = Vec::new();
        let mut deferred: Vec<TxnId> = Vec::new();
        let mut written: Vec<EntityId> = Vec::new();
        for n in candidates {
            if !g.cg.is_completed(n) {
                continue;
            }
            let txn = g.cg.info(n).txn;
            if any_registered && self.coord.reg_contains(txn, &self.metrics) {
                deferred.push(txn);
                continue;
            }
            if !noncurrent::is_current(&g.cg, n) {
                for (&x, rec) in &g.cg.info(n).access {
                    if rec.mode == deltx_model::AccessMode::Write {
                        written.push(x);
                    }
                }
                g.cg.delete(n).expect("completed node deletes");
                deleted.push(txn);
            }
        }
        let truncated = g.store.truncate_versions_in(&deleted, &written);
        // D(G, N) deletion doubles as the durability checkpoint: dead
        // commits release their log segments.
        if let Some(w) = &self.wal {
            w.note_deleted(&deleted);
        }
        if !deferred.is_empty() {
            self.pending_multi.lock().unwrap().extend(deferred);
        }
        self.metrics.gc_deletions.add(deleted.len() as u64);
        self.metrics.txns_left(deleted.len() as u64);
        self.metrics.gc_versions_truncated.add(truncated as u64);
        self.metrics
            .gc_pause_nanos
            .add(self.rt.now().saturating_sub(t0).as_nanos() as u64);
    }

    /// Transitive-reduction compaction of a shard's ghost arcs,
    /// skipped entirely unless deletions added bridge arcs since the
    /// last pass (compaction needs no coordination: it changes no
    /// reachability).
    fn compact_shard_ghosts(&self, g: &mut Shard) {
        let bridges = g.cg.stats().bridge_arcs;
        if bridges == g.compacted_bridge_arcs {
            return;
        }
        g.compacted_bridge_arcs = bridges;
        let removed = g.cg.compact_ghost_arcs();
        if removed > 0 {
            self.metrics.gc_ghost_arcs_removed.add(removed as u64);
        }
    }

    /// The per-shard half of a sweep: ghost-arc compaction (which
    /// needs no coordination: it changes no reachability) and a
    /// reclaim of whatever candidates no commit drained — commits
    /// delete at the source, so that is recovery's replay and nothing
    /// else.
    fn sweep_shards_noncurrent(&self) {
        for shard in &self.shards {
            let mut g = shard
                .lock()
                .expect("a thread panicked holding this shard lock");
            self.compact_shard_ghosts(&mut g);
            self.reclaim_shard(&mut g);
        }
    }

    /// Multi-shard deletion pass: noncurrent-everywhere transactions
    /// are deleted from every shard, with `D(G, N)` bridges
    /// re-materialized across shards via ghosts.
    ///
    /// With more than one shard the pass locks candidates' own spans
    /// instead of stopping the world; the all-locks baseline takes
    /// every lock.
    pub(crate) fn sweep_multi_shard(&self) {
        if self.pending_multi.lock().unwrap().is_empty() {
            return;
        }
        if !self.all_locks && self.shards.len() > 1 {
            self.sweep_multi_partial();
        } else {
            let mut guards = self.lock_all();
            // The stop-the-world baseline: these locks were taken for
            // GC, so the acquisition is recorded.
            if self.sweep_multi_locked(&mut guards) {
                self.metrics
                    .record_gc_closure(self.shards.len(), self.shards.len());
                self.rt.emit("gc_closure", self.shards.len() as u64);
            }
        }
    }

    /// The all-locks multi-shard pass, for callers already holding
    /// every shard lock (the stop-the-world baseline, and escalated
    /// committers draining the multi-shard backlog while they happen to
    /// hold everything anyway — the coordination registry needs no
    /// lock of its own: its stripes are leaf locks). Returns whether
    /// there was anything to process — the caller decides whether the
    /// lock acquisition counts toward the GC closure metrics (an inline
    /// committer's locks were taken for the commit, not for GC).
    pub(crate) fn sweep_multi_locked(&self, guards: &mut Guards<'_>) -> bool {
        let pending = std::mem::take(&mut *self.pending_multi.lock().unwrap());
        let pending: Vec<TxnId> = pending.into_iter().collect();
        if pending.is_empty() {
            return false;
        }
        let widen = self.sweep_multi_batch(guards, &pending);
        debug_assert!(widen.is_empty(), "all-locks batch cannot need wider");
        true
    }

    /// The span-scoped multi-shard pass. Repeatedly: lock the lead
    /// candidate's registered span in ascending order and offer
    /// **every** remaining candidate to the batch — the ones whose
    /// closures the held locks cover are processed for free (a hot
    /// shard pair's whole backlog drains under one acquisition), the
    /// rest come back and lead a later round. The coverage check inside
    /// [`Self::try_delete_multi`] is the only staleness signal: a lead
    /// that comes back has neighbors outside its own span (or was
    /// ghosted into a new shard since the stripe read), so the traffic
    /// is not span-closed and everything left goes to one final
    /// all-locks pass — as does a lead whose span already is every
    /// shard.
    fn sweep_multi_partial(&self) {
        let pending = std::mem::take(&mut *self.pending_multi.lock().unwrap());
        let mut queue: Vec<TxnId> = pending.into_iter().collect();
        let n = self.shards.len();
        while let Some(&lead) = queue.first() {
            let Some(span) = self.coord.reg_get(lead, &self.metrics) else {
                // Aborted or already deleted: drop it from the queue.
                queue.remove(0);
                continue;
            };
            if span.len() >= n {
                break; // its own span is every shard: the all-locks pass
            }
            let mut guards = self.lock_subset(&span.into_iter().collect(), None);
            self.metrics.record_gc_closure(guards.len(), n);
            self.rt.emit("gc_closure", guards.len() as u64);
            queue = self.sweep_multi_batch(&mut guards, &queue);
            drop(guards);
            if queue.first() == Some(&lead) {
                self.metrics.gc_closure_fallbacks.add(1);
                self.rt.emit("gc_closure_fallback", 1);
                break;
            }
        }
        if !queue.is_empty() {
            let mut guards = self.lock_all();
            self.metrics.record_gc_closure(n, n);
            self.rt.emit("gc_closure", n as u64);
            let w = self.sweep_multi_batch(&mut guards, &queue);
            debug_assert!(w.is_empty(), "all-locks batch cannot need wider");
        }
    }

    /// Deletes every deletable candidate of `batch` under whatever
    /// shard locks are held, then truncates stores, re-queues ghosted
    /// predecessors, and flushes the touched summaries. Returns the
    /// candidates whose closure turned out to exceed the locked subset,
    /// in `batch` order (never non-empty when every lock is held).
    fn sweep_multi_batch(&self, guards: &mut Guards<'_>, batch: &[TxnId]) -> Vec<TxnId> {
        let t0 = self.rt.now();
        // Batch the bridge-arc summary maintenance: ghost marks and
        // ordering arcs between deletes coalesce, and deletes flush
        // their shard's queue themselves to stay exact.
        for g in guards.values_mut() {
            g.cg.begin_summary_batch();
        }
        let mut still_pending: BTreeSet<TxnId> = BTreeSet::new();
        let mut deleted: Vec<TxnId> = Vec::new();
        // Entities the deleted transactions wrote, per shard — the
        // targets for store truncation afterwards.
        let mut written: BTreeMap<usize, Vec<EntityId>> = BTreeMap::new();
        let mut ghosts_made = 0u64;
        let mut widen: Vec<TxnId> = Vec::new();
        for &txn in batch {
            match self.try_delete_multi(
                guards,
                txn,
                &mut still_pending,
                &mut written,
                &mut ghosts_made,
            ) {
                MultiDelete::Deleted => deleted.push(txn),
                MultiDelete::Skipped => {}
                MultiDelete::NeedsWider => widen.push(txn),
            }
        }
        // Prune the reclaimed writers' stale versions, only in the
        // entities they actually wrote.
        let mut truncated = 0usize;
        for (s, xs) in &written {
            let g = guards.get_mut(s).expect("written shard is locked");
            truncated += g.store.truncate_versions_in(&deleted, xs);
        }
        if let Some(w) = &self.wal {
            w.note_deleted(&deleted);
        }
        if !still_pending.is_empty() {
            self.pending_multi.lock().unwrap().extend(still_pending);
        }
        self.flush_summaries(guards);
        self.metrics.gc_deletions.add(deleted.len() as u64);
        self.metrics.txns_left(deleted.len() as u64);
        self.metrics.gc_ghosts.add(ghosts_made);
        self.metrics.gc_versions_truncated.add(truncated as u64);
        self.metrics
            .gc_pause_nanos
            .add(self.rt.now().saturating_sub(t0).as_nanos() as u64);
        widen
    }

    /// One candidate of the multi-shard pass: checks deletability,
    /// verifies the locked subset covers everything the deletion can
    /// touch, then deletes the transaction from every shard and
    /// re-materializes its `D(G, N)` bridges.
    ///
    /// The coverage check is authoritative because it runs under the
    /// held locks: the registry entries it reads (the candidate's own
    /// span and the spans of its boundary neighbors) can only be
    /// mutated by a thread holding the lock of a shard where the
    /// respective transaction resides — and those shards are exactly
    /// the ones this check demands be in `guards`. Bridging during
    /// *this* candidate can grow a predecessor's span, but only ever
    /// by ghost-target shards, which are shards of the candidate
    /// itself — already locked.
    fn try_delete_multi(
        &self,
        guards: &mut Guards<'_>,
        txn: TxnId,
        still_pending: &mut BTreeSet<TxnId>,
        written: &mut BTreeMap<usize, Vec<EntityId>>,
        ghosts_made: &mut u64,
    ) -> MultiDelete {
        let Some(shards) = self.coord.reg_get(txn, &self.metrics) else {
            return MultiDelete::Skipped; // aborted or already deleted
        };
        // The candidate's own span must be fully locked (it is not the
        // lead, or a concurrent sweep ghosted it into new shards since
        // the lead's span was read).
        if shards.iter().any(|s| !guards.contains_key(s)) {
            return MultiDelete::NeedsWider;
        }
        let nodes: Vec<(usize, NodeId)> = shards
            .iter()
            .filter_map(|&s| guards[&s].cg.node_of(txn).map(|n| (s, n)))
            .collect();
        // Not deletable yet? Drop it from the queue: the events
        // that can change the answer re-enqueue it — committing
        // (commit_escalated), an overwrite of one of its entities
        // (the shard candidate queue -> reclaim_shard deferral),
        // or being ghosted (bridge_cross_shard).
        let all_completed = nodes.iter().all(|&(s, n)| guards[&s].cg.is_completed(n));
        if !all_completed {
            return MultiDelete::Skipped;
        }
        let current = nodes
            .iter()
            .any(|&(s, n)| noncurrent::is_current(&guards[&s].cg, n));
        if current {
            return MultiDelete::Skipped;
        }
        // Collect cross-shard pred/succ transaction pairs (local
        // pairs are bridged by `delete` itself) and the written
        // entities, before deleting forgets them.
        let mut preds: Vec<(usize, TxnId)> = Vec::new();
        let mut succs: Vec<(usize, TxnId)> = Vec::new();
        let mut written_local: Vec<(usize, EntityId)> = Vec::new();
        for &(s, n) in &nodes {
            for &p in guards[&s].cg.graph().preds(n) {
                preds.push((s, guards[&s].cg.info(p).txn));
            }
            for &q in guards[&s].cg.graph().succs(n) {
                succs.push((s, guards[&s].cg.info(q).txn));
            }
            for (&x, rec) in &guards[&s].cg.info(n).access {
                if rec.mode == deltx_model::AccessMode::Write {
                    written_local.push((s, x));
                }
            }
        }
        // Every shard the bridges can touch must be locked: a bridge
        // lands in a ghost target (a shard of `txn` — covered above)
        // or in a shard both neighbors already inhabit (a shard of a
        // neighbor's span). Checked BEFORE the first mutation so a
        // too-narrow lock set defers the whole candidate instead of
        // half-deleting it.
        let covered = preds.iter().chain(succs.iter()).all(|(_, t)| {
            match self.coord.reg_get(*t, &self.metrics) {
                Some(span) => span.iter().all(|s| guards.contains_key(s)),
                None => true, // single-shard neighbor: its only shard is txn's
            }
        });
        if !covered {
            return MultiDelete::NeedsWider;
        }
        for &(s, n) in &nodes {
            let g = guards.get_mut(&s).expect("span shard is locked");
            if g.cg.node_of(txn) == Some(n) {
                self.dec_boundary(g);
                g.cg.delete(n).expect("completed node deletes");
            }
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
        for (s, x) in written_local {
            written.entry(s).or_default().push(x);
        }
        MultiDelete::Deleted
    }

    /// Ensures an ordering arc `pred -> succ` exists somewhere in the
    /// union graph, materializing a ghost for `pred` in `succ`'s shard
    /// if the two transactions share no shard. Returns how many ghosts
    /// were created (0 or 1). Caller holds the locks of both
    /// transactions' full spans plus the deleted transaction's shards
    /// (the ghost target) — [`Self::try_delete_multi`]'s coverage
    /// check, or all locks.
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
        // A shard where both live already?
        let p_shards: Vec<usize> = self
            .coord
            .reg_get(p, &self.metrics)
            .unwrap_or_else(|| vec![ps]);
        let q_shards: Vec<usize> = self
            .coord
            .reg_get(q, &self.metrics)
            .unwrap_or_else(|| vec![qs]);
        for &c in &p_shards {
            if q_shards.contains(&c) {
                let g = guards.get_mut(&c).expect("common neighbor shard is locked");
                let (pn, qn) = (
                    g.cg.node_of(p).expect("registered node"),
                    g.cg.node_of(q).expect("registered node"),
                );
                g.cg.add_order_arc(pn, qn)
                    .expect("bridge follows an existing union path");
                self.rt.emit("gc_bridge_local", 1);
                return 0;
            }
        }
        // Materialize p as a ghost in q's shard.
        let target = qs;
        let was_single = p_shards.len() == 1;
        let p_completed = {
            let g = &guards[&ps];
            let pn = g.cg.node_of(p).expect("registered node");
            g.cg.info(pn).state == TxnState::Completed
        };
        {
            let tg = guards
                .get_mut(&target)
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
            if !self.all_locks {
                tg.cg.set_boundary(p, true);
            }
            tg.boundary += 1;
            let qn = tg.cg.node_of(q).expect("registered node");
            tg.cg
                .add_order_arc(ghost, qn)
                .expect("bridge follows an existing union path");
        }
        // p is now multi-shard: update registry and boundary marks.
        if was_single {
            let pg = guards.get_mut(&ps).expect("predecessor shard is locked");
            pg.boundary += 1;
            if !self.all_locks {
                pg.cg.set_boundary(p, true);
            }
        }
        let mut shards: BTreeSet<usize> = p_shards.iter().copied().collect();
        shards.insert(target);
        self.coord.reg_insert(p, &shards, &self.metrics);
        if p_completed {
            pending.insert(p);
        }
        self.rt.emit("gc_bridge_ghost", 1);
        1
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::SHARD_LOCKS;
    use crate::{Engine, EngineConfig};
    use deltx_model::{EntityId, TxnId};
    use std::collections::BTreeSet;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            shards: 8,
            background_gc: false,
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

    /// No trace of `txn` or its versions of `xs` is left in shard `s`,
    /// and the shard has nothing queued for a later sweep.
    fn assert_gone(e: &Engine, s: usize, txn: TxnId, xs: [u32; 2]) {
        let g = e.inner.shards[s].lock().unwrap();
        assert!(g.cg.node_of(txn).is_none(), "{txn} still has a node");
        for x in xs {
            assert_eq!(g.store.version_count(EntityId(x)), 1, "e{x} history");
            assert_ne!(g.store.current_writer(EntityId(x)), Some(txn));
        }
        assert_eq!(g.cg.gc_candidate_count(), 0, "shard {s} left a backlog");
    }

    // No `gc_sweep` anywhere below: the second overwriting commit is
    // what deletes, before it returns.

    #[test]
    fn fast_path_commit_deletes_what_it_made_noncurrent() {
        let e = engine();
        let t1 = overwrite(&e, &[0, 8]); // both in shard 0
        overwrite(&e, &[0]);
        assert_eq!(e.graph_size().nodes, 2, "T1 is still current on e8");
        overwrite(&e, &[8]);
        assert_eq!(e.graph_size().nodes, 2, "T2 and T3; T1 went with T3");
        assert_gone(&e, 0, t1, [0, 8]);
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_sweeps, m.escalated_ops), (1, 0, 0));
    }

    #[test]
    fn escalated_commit_deletes_its_single_shard_neighbours() {
        let e = engine();
        let t1 = overwrite(&e, &[0, 8]); // shard 0
        let u1 = overwrite(&e, &[1, 9]); // shard 1
        overwrite(&e, &[0, 1]); // spans shards 0 and 1
        assert_eq!(e.graph_size().nodes, 4, "T1, U1 current; T2 twice");
        overwrite(&e, &[8, 9]);
        assert_eq!(e.graph_size().nodes, 4, "T2 and T3, a node per shard");
        assert_gone(&e, 0, t1, [0, 8]);
        assert_gone(&e, 1, u1, [1, 9]);
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_sweeps), (2, 0));
        assert!(m.escalated_ops >= 2, "both two-shard commits escalated");
    }

    // Multi-shard candidates wait for the multi pass, driven by hand.

    /// `txn` has a node in shard `s`.
    fn has_node(e: &Engine, s: usize, txn: TxnId) -> bool {
        e.inner.shards[s].lock().unwrap().cg.node_of(txn).is_some()
    }

    /// Boundary-node counts of shards 0, 1 and 2.
    fn boundary_counts(e: &Engine) -> [usize; 3] {
        [0, 1, 2].map(|s| e.inner.shards[s].lock().unwrap().boundary)
    }

    #[test]
    fn span_closed_candidate_is_deleted_under_its_own_span() {
        let e = engine();
        let t1 = overwrite(&e, &[0, 1]); // spans shards 0 and 1
        overwrite(&e, &[0, 1]); // T1's only neighbour, same span
        assert!(has_node(&e, 0, t1) && has_node(&e, 1, t1));
        SHARD_LOCKS.with(|c| c.set(0));
        e.inner.sweep_multi_shard();
        assert_eq!(SHARD_LOCKS.with(|c| c.get()), 2, "span.len() acquisitions");
        assert!(!has_node(&e, 0, t1) && !has_node(&e, 1, t1));
        assert_eq!(e.inner.coord.reg_get(t1, &e.inner.metrics), None);
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_closure_fallbacks), (1, 0));
        assert_eq!(m.gc_closure_hist, [0, 1, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn escaping_closure_is_untouched_by_own_span_then_deleted_under_all_locks() {
        let e = engine();
        let t1 = overwrite(&e, &[0, 1]); // spans {0, 1}
        let t2 = overwrite(&e, &[1, 2]); // T1 -> T2 in shard 1; spans {1, 2}
        overwrite(&e, &[0]); // T1 is now noncurrent everywhere
        assert_eq!(boundary_counts(&e), [1, 2, 1]);
        // The own-span attempt, by hand: T2's span reaches shard 2.
        let own = BTreeSet::from([0, 1]);
        let mut guards = e.inner.lock_subset(&own, None);
        let left = e.inner.sweep_multi_batch(&mut guards, &[t1]);
        drop(guards);
        assert_eq!(left, [t1], "deferred, not skipped");
        assert!(has_node(&e, 0, t1) && has_node(&e, 1, t1), "no half-delete");
        assert_eq!(
            e.inner.coord.reg_get(t1, &e.inner.metrics),
            Some(vec![0, 1])
        );
        assert_eq!(boundary_counts(&e), [1, 2, 1]);
        assert_eq!(e.metrics().gc_deletions, 0);
        // The same attempt inside a sweep falls back, once, and the
        // all-locks pass of that sweep deletes T1.
        e.gc_sweep();
        assert!(!has_node(&e, 0, t1) && !has_node(&e, 1, t1));
        assert!(has_node(&e, 1, t2) && has_node(&e, 2, t2), "T2 is current");
        assert_eq!(boundary_counts(&e), [0, 1, 1]);
        let m = e.metrics();
        assert_eq!((m.gc_deletions, m.gc_closure_fallbacks), (1, 1));
        assert_eq!(m.gc_closure_hist, [0, 1, 0, 0, 1, 0, 0, 0], "2, then 8");
        assert_eq!(m.boundary_underflows, 0);
    }
}
