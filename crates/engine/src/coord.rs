//! The coordination registry: the one piece of cross-shard state, and
//! the rule that makes reading it under held shard locks authoritative.
//!
//! A transaction present in more than one shard has its **span** — the
//! shards holding one of its nodes, ghosts included — registered here,
//! in a stripe-locked map with no global coordination mutex. An entry
//! is only ever mutated by a thread holding the lock of at least one
//! shard of its current span — a GC bridge ghosting a predecessor holds
//! just the one where the predecessor met the deleted transaction — so
//! a reader that holds every shard of the span it read sees a frozen
//! entry: that is what the escalated cycle check ([`crate::ops`]) and
//! the multi-shard deletion's own-span check ([`crate::gc`]) rest on.
//! A reader that finds a shard of the span unlocked adds it to its lock
//! set and retries; as an entry only ever grows (until its transaction
//! leaves the graph) and names at most every shard, that ends within
//! `shards` rounds. Two ghosters of one transaction can hold disjoint
//! shards of its span, so the span grows only inside one stripe hold
//! ([`Coordination::reg_extend`]).
//!
//! Each shard's `CgState` also maintains a **boundary reachability
//! summary** (per node, the boundary nodes it reaches through that
//! shard's graph) for the per-operation fast-path gate. It never
//! leaves the shard: escalated paths batch its maintenance and flush
//! it here ([`EngineInner::flush_summaries`]) before releasing their
//! locks.

use crate::engine::{EngineInner, Guards, Shard};
use crate::metrics::{lock_counted, EngineMetrics};
use deltx_model::TxnId;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard};

/// Number of registry stripes (power of two; keyed by `TxnId`).
const REG_STRIPES: usize = 16;

/// Cross-shard coordination state, readable without any shard lock: a
/// stripe-locked span registry, so commits and GC sweeps with disjoint
/// lock sets never serialize on a coordination lock.
///
/// Lock order: stripe locks are **leaf** locks — taken one at a time,
/// after any shard locks, never while holding each other or
/// `pending_multi`/`history`.
pub(crate) struct Coordination {
    /// Shard sets of multi-shard transactions, striped by id.
    /// Single-shard transactions (the common case) never appear here.
    /// Every listed shard holds a live node (possibly a ghost) of the
    /// transaction, and an entry is only ever mutated by a thread
    /// holding at least one of those shards' locks — which is what
    /// makes a read whose every shard is locked authoritative. Spans
    /// are sorted ascending.
    registry: Vec<Mutex<HashMap<TxnId, Vec<usize>>>>,
}

impl Coordination {
    pub(crate) fn new() -> Self {
        Self {
            registry: (0..REG_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn stripe(
        &self,
        txn: TxnId,
        metrics: &EngineMetrics,
    ) -> MutexGuard<'_, HashMap<TxnId, Vec<usize>>> {
        lock_counted(
            &self.registry[(txn.0 as usize) & (REG_STRIPES - 1)],
            &metrics.registry_slot_contention,
        )
    }

    /// The registered span of `txn`, if it is multi-shard.
    pub(crate) fn reg_get(&self, txn: TxnId, metrics: &EngineMetrics) -> Option<Vec<usize>> {
        self.stripe(txn, metrics).get(&txn).cloned()
    }

    pub(crate) fn reg_contains(&self, txn: TxnId, metrics: &EngineMetrics) -> bool {
        self.stripe(txn, metrics).contains_key(&txn)
    }

    /// Replaces `txn`'s registered span (callers only ever grow it).
    pub(crate) fn reg_insert(&self, txn: TxnId, span: &BTreeSet<usize>, metrics: &EngineMetrics) {
        debug_assert!(span.len() >= 2, "registry entries are multi-shard");
        self.stripe(txn, metrics)
            .insert(txn, span.iter().copied().collect());
    }

    /// Adds `shard` to `txn`'s span — which becomes `{home, shard}` if
    /// `txn` was single-shard in `home` — reading and writing the entry
    /// in one stripe hold, so extenders holding disjoint shards of the
    /// span all land. Returns whether `txn` was single-shard.
    pub(crate) fn reg_extend(
        &self,
        txn: TxnId,
        home: usize,
        shard: usize,
        metrics: &EngineMetrics,
    ) -> bool {
        let mut stripe = self.stripe(txn, metrics);
        let Some(span) = stripe.get_mut(&txn) else {
            stripe.insert(txn, vec![home.min(shard), home.max(shard)]);
            return true;
        };
        if let Err(i) = span.binary_search(&shard) {
            span.insert(i, shard);
        }
        false
    }

    /// Unregisters a multi-shard transaction (abort or deletion).
    pub(crate) fn reg_remove(&self, txn: TxnId, metrics: &EngineMetrics) -> Option<Vec<usize>> {
        self.stripe(txn, metrics).remove(&txn)
    }
}

impl EngineInner {
    /// The registry/mark tripwire, after a registered transaction's
    /// node left shard `g` (an abort or a multi-shard deletion) while
    /// the shard held `marks` boundary marks: every such node carries
    /// one, so the count must have dropped by one. If it did not, the
    /// registry and the marks disagree — a bookkeeping bug, counted in
    /// `boundary_underflows`.
    pub(crate) fn check_mark_dropped(&self, g: &Shard, marks: usize) {
        if g.cg.boundary_count() + 1 != marks {
            debug_assert!(false, "registered node carried no boundary mark");
            self.metrics.boundary_underflows.add(1);
        }
    }

    /// Registers that `txn` now spans `shards` (2+), marking its nodes
    /// boundary in the shards it just spread to. Caller holds the locks
    /// of every shard in `shards`.
    pub(crate) fn note_multi_shard(
        &self,
        guards: &mut Guards<'_>,
        txn: TxnId,
        shards: &BTreeSet<usize>,
    ) {
        if shards.len() < 2 {
            return;
        }
        let old: BTreeSet<usize> = self
            .coord
            .reg_get(txn, &self.metrics)
            .into_iter()
            .flatten()
            .collect();
        for &s in shards.difference(&old) {
            let g = guards.get_mut(s).expect("spanned shard is locked");
            if g.cg.node_of(txn).is_some() {
                g.cg.set_boundary(txn, true);
            }
        }
        if old != *shards {
            self.coord.reg_insert(txn, shards, &self.metrics);
        }
    }

    /// Runs `f` under `guards` inside one summary batch per locked
    /// shard, flushed before the caller releases the locks.
    pub(crate) fn batched<'a, T>(
        &self,
        guards: &mut Guards<'a>,
        f: impl FnOnce(&mut Guards<'a>) -> T,
    ) -> T {
        for g in guards.values_mut() {
            g.cg.begin_summary_batch();
        }
        let out = f(guards);
        self.flush_summaries(guards);
        out
    }

    /// Ends the summary batch of every locked shard — one combined
    /// propagation of the marks and fan-ins queued since it was opened,
    /// timed when there is something to flush. Escalated operations,
    /// the multi-shard GC pass and recovery's replay open a batch on
    /// the shards they lock and call this before releasing them, so the
    /// fast-path gate never reads a mask with work queued.
    pub(crate) fn flush_summaries(&self, guards: &mut Guards<'_>) {
        for g in guards.values_mut() {
            // With nothing queued the call only clears the mode flag.
            let t0 = g.cg.summary_batch_pending().then(|| self.rt.now());
            g.cg.end_summary_batch();
            if let Some(t0) = t0 {
                self.metrics
                    .note_boundary_index_hwm(g.cg.boundary_index_hwm());
                self.metrics
                    .record_summary_update(self.rt.now().saturating_sub(t0).as_nanos() as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Coordination;
    use crate::metrics::EngineMetrics;
    use deltx_model::TxnId;

    #[test]
    fn extending_a_single_shard_transaction_registers_both_shards_sorted() {
        let (c, m) = (Coordination::new(), EngineMetrics::default());
        assert!(c.reg_extend(TxnId(7), 5, 2, &m), "it was single-shard");
        assert_eq!(c.reg_get(TxnId(7), &m), Some(vec![2, 5]));
    }

    #[test]
    fn extending_a_span_keeps_it_sorted_and_a_repeat_changes_nothing() {
        let (c, m) = (Coordination::new(), EngineMetrics::default());
        c.reg_extend(TxnId(7), 1, 6, &m);
        assert!(!c.reg_extend(TxnId(7), 1, 3, &m), "already multi-shard");
        assert_eq!(c.reg_get(TxnId(7), &m), Some(vec![1, 3, 6]));
        assert!(!c.reg_extend(TxnId(7), 6, 3, &m));
        assert_eq!(c.reg_get(TxnId(7), &m), Some(vec![1, 3, 6]));
    }

    #[test]
    fn concurrent_extends_of_one_entry_lose_none() {
        let (c, m) = (Coordination::new(), EngineMetrics::default());
        c.reg_extend(TxnId(7), 0, 1, &m);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (c, m) = (&c, &m);
                scope.spawn(move || {
                    for k in 0..16 {
                        c.reg_extend(TxnId(7), 0, 2 + t * 16 + k, m);
                    }
                });
            }
        });
        let span: Vec<usize> = (0..2 + 8 * 16).collect();
        assert_eq!(c.reg_get(TxnId(7), &m), Some(span));
    }
}
