//! The coordination registry and the per-shard summary mirrors: the
//! cross-shard state a planner reads without holding any shard lock,
//! and the publication protocol that keeps those reads sound.
//!
//! Each shard's `CgState` maintains a **boundary reachability summary**
//! (which boundary transactions reach which, through that shard's
//! graph, ghosts included) as bitmask reach-sets over a compact
//! boundary-txn index. Whenever it changes it is mirrored into the
//! **sharded** [`Coordination`] state — one mirror slot per shard, a
//! striped span registry, no global coordination mutex. Every summary
//! mutation happens under the owning shard's lock and is published —
//! mirror slot and registry first, growth epoch second — before that
//! lock is released, so the planner's post-acquisition epoch re-read
//! is authoritative even though its slot-at-a-time snapshot is fuzzy
//! (see [`crate::planner`] for the argument).

use crate::engine::{EngineInner, Guards, Shard};
use crate::metrics::{lock_counted, EngineMetrics};
use crate::planner::shard_bit;
use deltx_model::TxnId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

/// Number of registry stripes (power of two; keyed by `TxnId`).
const REG_STRIPES: usize = 16;

/// One shard's slice of the coordination state, behind its own lock:
/// its published summary mirror and the boundary transactions resident
/// in it. Updated only by threads holding that *shard's* graph lock
/// (plus this mirror lock for memory safety), read lock-free-ish by
/// planners chasing closures — so two operations whose plans touch
/// disjoint shards never serialize on any coordination lock.
pub(crate) struct ShardMirror {
    /// The shard's published boundary reachability summary: boundary
    /// transaction → reach bitmask over the shard's compact
    /// boundary-slot index, decoded through `slot_txns`. Only
    /// **nonempty** reach-sets are stored (an absent entry and an
    /// empty one are indistinguishable to the chase), so no-op
    /// shrinks never force a copy — and a copy is one word per 64
    /// boundary slots, not a materialized transaction list.
    pub(crate) summary: HashMap<TxnId, deltx_graph::BitSet>,
    /// slot → transaction decode table, copied out together with the
    /// dirty masks (so the two are mutually consistent even across
    /// slot recycling).
    pub(crate) slot_txns: Vec<TxnId>,
    /// Boundary transactions resident in this shard, each with its
    /// registered span as a bitmask. Seeds the planner's closure at
    /// entry shards, and makes the adjacency-mask rebuild a pure fold
    /// over this map — no cross-structure reads under the lock.
    pub(crate) residents: BTreeMap<TxnId, u64>,
}

/// Cross-shard coordination state, readable without any shard lock —
/// **sharded**: per-shard summary mirrors behind their own locks plus
/// a stripe-locked span registry, so partial commits and GC sweeps
/// with disjoint closures proceed fully in parallel (the old single
/// coordination mutex serialized them even when their shard locks
/// didn't conflict).
///
/// Lock order: mirror and stripe locks are **leaf** locks — taken one
/// at a time, after any shard locks, never while holding each other or
/// `pending_multi`/`history`. Soundness of lock-free readers rests on
/// the publication protocol: every mutation that *grows* what a shard
/// can reach is made while holding that shard's graph lock, published
/// here, and only then bumps the shard's planner epoch — all before
/// the shard lock is released — so a plan validated under the subset's
/// locks against unmoved epochs has seen every relevant growth.
pub(crate) struct Coordination {
    /// Per-shard mirror slots.
    pub(crate) mirrors: Vec<Mutex<ShardMirror>>,
    /// Shard sets of multi-shard transactions, striped by id.
    /// Single-shard transactions (the common case) never appear here.
    /// Every listed shard holds a live node (possibly a ghost) of the
    /// transaction, and an entry is only ever mutated by a thread
    /// holding at least one of those shards' locks — which is what
    /// makes reads under a covering lock set authoritative.
    registry: Vec<Mutex<HashMap<TxnId, Vec<usize>>>>,
}

impl Coordination {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            mirrors: (0..shards)
                .map(|_| {
                    Mutex::new(ShardMirror {
                        summary: HashMap::new(),
                        slot_txns: Vec::new(),
                        residents: BTreeMap::new(),
                    })
                })
                .collect(),
            registry: (0..REG_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn stripe(t: TxnId) -> usize {
        (t.0 as usize) & (REG_STRIPES - 1)
    }

    /// The registered span of `txn`, if it is multi-shard.
    pub(crate) fn reg_get(&self, txn: TxnId, metrics: &EngineMetrics) -> Option<Vec<usize>> {
        lock_counted(
            &self.registry[Self::stripe(txn)],
            &metrics.registry_slot_contention,
        )
        .get(&txn)
        .cloned()
    }

    pub(crate) fn reg_contains(&self, txn: TxnId, metrics: &EngineMetrics) -> bool {
        lock_counted(
            &self.registry[Self::stripe(txn)],
            &metrics.registry_slot_contention,
        )
        .contains_key(&txn)
    }

    fn reg_insert(&self, txn: TxnId, span: Vec<usize>, metrics: &EngineMetrics) {
        lock_counted(
            &self.registry[Self::stripe(txn)],
            &metrics.registry_slot_contention,
        )
        .insert(txn, span);
    }

    fn reg_remove(&self, txn: TxnId, metrics: &EngineMetrics) -> Option<Vec<usize>> {
        lock_counted(
            &self.registry[Self::stripe(txn)],
            &metrics.registry_slot_contention,
        )
        .remove(&txn)
    }
}

impl EngineInner {
    /// Decrements a shard's boundary-node count. If the registry and
    /// the counts ever disagree this saturates (with a metrics
    /// breadcrumb) instead of underflow-panicking in release builds
    /// with overflow checks on.
    pub(crate) fn dec_boundary(&self, g: &mut Shard) {
        debug_assert!(g.boundary > 0, "boundary count underflow");
        match g.boundary.checked_sub(1) {
            Some(b) => g.boundary = b,
            None => self.metrics.boundary_underflows.add(1),
        }
    }

    /// Registers that `txn` now spans `shards` (2+), bumping boundary
    /// counts and marking `CgState` boundary nodes where they just
    /// became boundary. Caller holds the locks of every shard in
    /// `shards`. On the all-locks baseline the `CgState` marks are
    /// skipped — nothing consults the summaries, so the maintenance
    /// BFS on every arc would be pure overhead.
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
            let g = guards.get_mut(&s).expect("spanned shard is locked");
            if g.cg.node_of(txn).is_some() {
                g.boundary += 1;
                if !self.all_locks {
                    g.cg.set_boundary(txn, true);
                }
            }
        }
        self.set_txn_shards(txn, shards);
    }

    /// Flushes batched summary propagation and mirrors every locked
    /// shard's summary into its coordination slot (rev-gated: free
    /// when nothing changed). Escalated and GC paths call this before
    /// releasing their locks.
    pub(crate) fn mirror_guards(&self, guards: &mut Guards<'_>) {
        for (&s, g) in guards.iter_mut() {
            self.mirror_shard(s, g);
        }
    }

    /// Ends shard `s`'s summary batch (one combined propagation) and
    /// applies its summary changes to the published mirror slot (only
    /// the entries the `CgState` marked dirty; empty reach-sets are
    /// simply absent), bumping the shard's growth epoch when the
    /// change includes growth — shrinks carry no bump, they cannot
    /// invalidate a planned superset. Must run before `s`'s lock is
    /// released: publication happens-before the epoch bump, which
    /// happens-before the lock release a validator synchronizes with.
    pub(crate) fn mirror_shard(&self, s: usize, g: &mut Shard) {
        if !g.cg.summary_batch_pending() && g.cg.summary_rev() == g.mirrored_rev {
            g.cg.end_summary_batch(); // cheap: clears the mode flag
            return;
        }
        let t0 = self.rt.now();
        g.cg.end_summary_batch();
        let rev = g.cg.summary_rev();
        if rev != g.mirrored_rev {
            let dirty = g.cg.take_summary_dirty();
            if !dirty.is_empty() {
                let mut mir = lock_counted(
                    &self.coord.mirrors[s],
                    &self.metrics.registry_slot_contention,
                );
                for t in dirty {
                    match g.cg.boundary_reach_mask_of(t) {
                        Some(m) if !m.is_empty() => {
                            mir.summary
                                .entry(t)
                                .and_modify(|cur| cur.copy_from(m))
                                .or_insert_with(|| m.clone());
                        }
                        _ => {
                            mir.summary.remove(&t);
                        }
                    }
                }
                // Republish the decode table with the masks: a dirty
                // mask may carry a freshly recycled slot.
                mir.slot_txns.clear();
                mir.slot_txns.extend_from_slice(g.cg.boundary_slot_txns());
            }
            let epoch = g.cg.summary_epoch();
            if epoch != g.mirrored_epoch {
                self.planner.bump_epoch(s);
                g.mirrored_epoch = epoch;
            }
            g.mirrored_rev = rev;
            self.metrics
                .note_boundary_index_hwm(g.cg.boundary_index_hwm());
        }
        self.metrics
            .record_summary_update(self.rt.now().saturating_sub(t0).as_nanos() as u64);
    }

    /// Replaces `txn`'s registered shard set (callers only ever grow
    /// it), bumping the epoch of **every** shard in the new set on
    /// growth: each shard holding one of `txn`'s nodes can now leak
    /// paths into the added shards. Publication order matters — mirror
    /// slots, then the registry stripe, then the epoch bumps — so a
    /// planner that snapshots epochs after the bumps reads
    /// post-publication data (mutex release/acquire pairs order it).
    pub(crate) fn set_txn_shards(&self, txn: TxnId, shards: &BTreeSet<usize>) {
        debug_assert!(shards.len() >= 2, "registry entries are multi-shard");
        let old: BTreeSet<usize> = self
            .coord
            .reg_get(txn, &self.metrics)
            .into_iter()
            .flatten()
            .collect();
        if old == *shards {
            return;
        }
        let grew = shards.difference(&old).next().is_some();
        let mask: u64 = shards.iter().map(|&s| shard_bit(s)).sum();
        for &s in shards {
            // The adjacency OR runs inside the mirror critical section
            // so it cannot be clobbered by a concurrent exact rebuild
            // (rebuilds also hold the mirror lock).
            let mut mir = lock_counted(
                &self.coord.mirrors[s],
                &self.metrics.registry_slot_contention,
            );
            mir.residents.insert(txn, mask);
            self.planner.adj_or(s, mask);
        }
        for &s in old.difference(shards) {
            self.release_resident(s, txn);
        }
        self.coord
            .reg_insert(txn, shards.iter().copied().collect(), &self.metrics);
        if grew {
            for &s in shards {
                self.planner.bump_epoch(s);
            }
        }
    }

    /// Drops `txn` from shard `s`'s resident set and rebuilds the
    /// shard's adjacency mask exactly (a pure fold over the remaining
    /// residents' span masks, all under the mirror lock).
    fn release_resident(&self, s: usize, txn: TxnId) {
        let mut mir = lock_counted(
            &self.coord.mirrors[s],
            &self.metrics.registry_slot_contention,
        );
        mir.residents.remove(&txn);
        let mask = shard_bit(s) | mir.residents.values().fold(0u64, |a, &b| a | b);
        self.planner.adj_set(s, mask);
    }

    /// Unregisters a multi-shard transaction (abort or deletion). A
    /// shrink: no epoch bump.
    pub(crate) fn unregister_txn(&self, txn: TxnId) -> Option<Vec<usize>> {
        let shards = self.coord.reg_remove(txn, &self.metrics)?;
        for &s in &shards {
            self.release_resident(s, txn);
        }
        Some(shards)
    }
}
