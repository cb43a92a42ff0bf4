//! The shard-closure planner of the multi-shard GC pass.
//!
//! A multi-shard deletion needs to know, before it holds any lock,
//! *which shards its `D(G, N)` bridges can land in*: the transaction's
//! own shards plus the shard sets of its boundary neighbors — every one
//! of which is a resident boundary transaction the summary chase
//! visits. The planner answers that from lock-free state. (Session
//! operations used to plan their lock subsets here too; they now lock
//! their own shards and let the cycle-check BFS report a miss — see
//! [`crate::ops`] — so the GC closure pass is the planner's only
//! client.)
//!
//! The planner is a pair of lock-free per-shard atomics plus a fine,
//! summary-driven chase over the per-shard mirror slots:
//!
//! * `plan_adj[s]` — adjacency bitmask: shard `s` itself plus the
//!   union of the shard sets of boundary transactions resident in
//!   `s`. A superset of anything the summary chase can produce, so a
//!   fixpoint over these masks detects the saturated case (plan =
//!   every shard) and the already-minimal case (closure = entry set)
//!   without taking any lock.
//! * `plan_epoch[s]` — **growth epoch**: bumped whenever shard `s`'s
//!   published reachability, boundary membership, or a resident
//!   transaction's shard set *grows*. A subset planned at epoch `e`
//!   is still a superset of every reachable shard while the epoch
//!   stays `e` — shrinkage can never invalidate a superset — so the
//!   sweep locks its subset, re-reads the epochs, and defers the
//!   candidate to its all-locks pass only on movement.
//!
//! The coordination state the fine chase reads is **sharded** (one
//! mirror slot per shard, a stripe-locked span registry), so the chase
//! takes no global lock: it snapshots one slot at a time. That makes
//! the view *fuzzy* — different shards may be read at different
//! moments — but the epoch protocol keeps it sound: every mutation
//! that grows what shard `s` contributes is published to `s`'s slot
//! and then bumps `s`'s epoch, all while holding `s`'s graph lock. If
//! the epochs of the planned subset are unmoved after acquisition,
//! none of the subset's inputs grew anywhere in the window, so each
//! slot the chase read was the validation-time truth or a superset of
//! it (shrinks only) — and a superset only over-locks. (A sealed
//! fast-path operation adds arcs under one shard lock without
//! publishing anything — correctly: arcs into a node that reaches no
//! boundary node grow no reach-pair.)
//!
//! Both atomics are written before the owning shard's lock is released
//! — which is what makes the post-acquisition epoch re-read
//! authoritative.

use crate::coord::Coordination;
use crate::metrics::{lock_counted, EngineMetrics};
use deltx_model::TxnId;
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Adjacency-closure size up to which the planner takes the closure
/// as the lock subset directly, skipping the summary fine chase.
const SMALL_PLAN_LOCKS: usize = 4;

/// Bit of shard `s` in an adjacency mask (meaningful for < 64 shards;
/// larger indices fall off the mask and force the fine chase).
pub(crate) fn shard_bit(s: usize) -> u64 {
    if s < 64 {
        1u64 << s
    } else {
        0
    }
}

/// Lock-free planner inputs plus the closure computation. One per
/// engine; see the module docs for the maintenance contract.
pub(crate) struct Planner {
    plan_adj: Vec<AtomicU64>,
    plan_epoch: Vec<AtomicU64>,
}

impl Planner {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            plan_adj: (0..shards).map(|s| AtomicU64::new(shard_bit(s))).collect(),
            plan_epoch: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Bumps shard `s`'s growth epoch (call on any growth of its
    /// published summary, boundary membership, or a resident
    /// transaction's shard set).
    pub(crate) fn bump_epoch(&self, s: usize) {
        self.plan_epoch[s].fetch_add(1, Ordering::Relaxed);
    }

    /// Ors `mask` into shard `s`'s adjacency bits (growth).
    pub(crate) fn adj_or(&self, s: usize, mask: u64) {
        self.plan_adj[s].fetch_or(mask, Ordering::Relaxed);
    }

    /// Replaces shard `s`'s adjacency bits (exact rebuild on shrink).
    pub(crate) fn adj_set(&self, s: usize, mask: u64) {
        self.plan_adj[s].store(mask, Ordering::Relaxed);
    }

    /// True if none of `subset`'s epochs moved since the plan's
    /// `token` was computed — the planned subset is still a superset
    /// of every shard a path could reach. Call *after* acquiring the
    /// subset's locks. The token is the wrapping sum of the subset's
    /// epochs at plan time (Relaxed is enough: the shard-mutex
    /// release/acquire pair orders the stores against this re-read);
    /// epochs only ever increment, so any movement strictly grows the
    /// sum and equality certifies that none moved.
    pub(crate) fn validate(&self, subset: &BTreeSet<usize>, token: u64) -> bool {
        subset.iter().fold(0u64, |acc, &s| {
            acc.wrapping_add(self.plan_epoch[s].load(Ordering::Relaxed))
        }) == token
    }

    /// Plans the shard closure of deletion candidate `txn`: the entry
    /// shards (`base`, the candidate's registered span) closed under
    /// summary-chasing. Any boundary transaction resident in an entry
    /// shard may be a neighbor of `txn`, so all of them are potential
    /// exits; entering shard `t` at transaction `b`'s twin, a path can
    /// only leave `t` through `b` itself or a boundary transaction
    /// `t`'s summary says `b` reaches. Returns the subset plus the
    /// epoch token to validate after acquisition.
    ///
    /// The common cases never touch a lock: the adjacency-mask
    /// fixpoint over `plan_adj` computes a superset of the summary
    /// chase, so when it saturates (uniform cross-shard traffic —
    /// plan is every shard) or collapses onto the entry set (traffic
    /// confined to a hot shard group — nothing to shrink) the answer
    /// is final. Only the intermediate regime runs the fine chase,
    /// one mirror-slot lock at a time. Note the lock-free paths derive
    /// `txn`'s registered shards from the masks themselves: a
    /// registered transaction is resident in its `base` shards, so
    /// its span is folded into their adjacency masks.
    pub(crate) fn plan(
        &self,
        txn: TxnId,
        base: &BTreeSet<usize>,
        coord: &Coordination,
        metrics: &EngineMetrics,
    ) -> (BTreeSet<usize>, u64) {
        // Epochs are snapshotted BEFORE the plan inputs are read:
        // growth landing between the two reads then shows as an epoch
        // mismatch at validation instead of silently blessing a plan
        // built from pre-growth inputs. The snapshot lives on the
        // stack (no per-plan allocation); the returned token is the
        // wrapping sum over the final subset.
        let n = self.plan_adj.len();
        let mut stack_snap = [0u64; 64];
        let mut heap_snap: Vec<u64> = Vec::new();
        let epochs: &[u64] = if n <= 64 {
            for (s, slot) in stack_snap.iter_mut().enumerate().take(n) {
                *slot = self.plan_epoch[s].load(Ordering::Relaxed);
            }
            &stack_snap[..n]
        } else {
            heap_snap.extend(self.plan_epoch.iter().map(|e| e.load(Ordering::Relaxed)));
            &heap_snap
        };
        let token_of = |subset: &BTreeSet<usize>| {
            subset
                .iter()
                .fold(0u64, |acc, &s| acc.wrapping_add(epochs[s]))
        };
        if n <= 64 {
            let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let entry_mask: u64 = base.iter().map(|&s| shard_bit(s)).sum();
            let mut mask = entry_mask;
            loop {
                let mut next = mask;
                let mut bits = mask;
                while bits != 0 {
                    let s = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    next |= self.plan_adj[s].load(Ordering::Relaxed);
                }
                if next == full {
                    let subset: BTreeSet<usize> = (0..n).collect();
                    let token = token_of(&subset);
                    return (subset, token);
                }
                if next == mask {
                    break;
                }
                mask = next;
            }
            // A small closure is taken as-is: the fine chase can only
            // refine *within* it, and shaving one lock off an
            // already-tiny subset is worth less than the chase costs.
            // Pruning pays when the adjacency closure is large but the
            // reach-sets cut paths through it — the regime below.
            if mask == entry_mask || (mask.count_ones() as usize) <= SMALL_PLAN_LOCKS {
                let mut subset = BTreeSet::new();
                let mut bits = mask;
                while bits != 0 {
                    subset.insert(bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
                let token = token_of(&subset);
                return (subset, token);
            }
        }
        // Intermediate regime: the fine, summary-driven chase over the
        // sharded mirrors — one slot lock at a time, never nested, so
        // chases over disjoint closures run fully in parallel.
        let mut subset: BTreeSet<usize> = base.clone();
        subset.extend(coord.reg_get(txn, metrics).into_iter().flatten());
        let mut stack: Vec<(usize, TxnId)> = Vec::new();
        let mut seen: HashSet<(usize, TxnId)> = HashSet::new();
        let entry: Vec<usize> = subset.iter().copied().collect();
        for u in entry {
            let mir = lock_counted(&coord.mirrors[u], &metrics.registry_slot_contention);
            for &b in mir.residents.keys() {
                if seen.insert((u, b)) {
                    stack.push((u, b));
                }
            }
        }
        // Saturation short-circuit: once every shard is in, further
        // chasing cannot change the answer.
        while subset.len() < n {
            let Some((u, b)) = stack.pop() else { break };
            let reach: Vec<TxnId> = {
                let mir = lock_counted(&coord.mirrors[u], &metrics.registry_slot_contention);
                match mir.summary.get(&b) {
                    Some(mask) => mask.iter().map(|slot| mir.slot_txns[slot]).collect(),
                    None => Vec::new(),
                }
            };
            for e in std::iter::once(b).chain(reach) {
                for t in coord.reg_get(e, metrics).into_iter().flatten() {
                    subset.insert(t);
                    if seen.insert((t, e)) {
                        stack.push((t, e));
                    }
                }
            }
        }
        let token = token_of(&subset);
        (subset, token)
    }
}
