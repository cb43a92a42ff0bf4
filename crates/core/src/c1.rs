//! Condition **C1** — Theorem 1 (and Theorem 3 for reduced graphs).
//!
//! > *Let `p` be a schedule and `Ti` a completed transaction. The
//! > following condition is necessary and sufficient for the removal of
//! > `Ti`:*
//! >
//! > **(C1)** *For all active tight predecessors `Tj` of `Ti` and for all
//! > entities `x` accessed by `Ti` there is a completed tight successor
//! > `Tk` (≠ `Ti`) of `Tj` that accesses `x` at least as strongly as
//! > `Ti`.*
//!
//! Theorem 3 extends the claim verbatim to *reduced* graphs, which is why
//! [`holds`] takes the live [`CgState`] (possibly already reduced by
//! earlier deletions).
//!
//! Complexity: polynomial — one restricted BFS per active tight
//! predecessor plus a per-entity maximum over its tight successors'
//! access maps.
//!
//! ## A node without predecessors (Lemma 1)
//!
//! A completed node with no predecessors has no active tight predecessor,
//! so C1 holds vacuously. [`violation`] answers that case before any
//! search: no predecessor BFS, no successor BFS, no cover map.
//!
//! ## No deletion makes another node eligible
//!
//! Deleting a completed node `d` with bridging (`D(G, {d})`) keeps every
//! tight relation among the survivors. A tight path through `d` runs
//! `p -> d -> s` and now uses the bridge `p -> s`. A path over a bridge
//! `p -> s` stood for `p -> d -> s` before, with `d` a completed (tight)
//! intermediate. `d` is not active, so no survivor gains or loses an
//! active tight predecessor, and no survivor's accesses change. What a
//! survivor `Ti` loses is `d` as a cover: C1 for `Ti` quantifies over
//! the same `Tj` and `x` with one candidate `Tk` fewer. A deletion can
//! therefore turn C1 from true to false (Example 1, below) but never from
//! false to true. So a graph with no eligible node stays irreducible
//! under further deletions, and one ascending pass that deletes each node
//! still eligible when reached deletes exactly what "delete the smallest
//! eligible node, rescan, repeat" does ([`crate::policy::GreedyC1`]).
//!
//! ```
//! use deltx_core::{CgState, c1};
//! use deltx_model::{dsl, TxnId};
//!
//! // Example 1: the active reader T1 keeps history relevant.
//! let p = dsl::parse("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)").unwrap();
//! let mut cg = CgState::new();
//! cg.run(p.steps()).unwrap();
//! let t2 = cg.node_of(TxnId(2)).unwrap();
//! assert!(c1::holds(&cg, t2), "T3 covers T2's accesses of x");
//! cg.delete(t2).unwrap();           // safe by Theorem 1
//! let t3 = cg.node_of(TxnId(3)).unwrap();
//! assert!(!c1::holds(&cg, t3), "the last cover must stay (Theorem 3)");
//! ```

use crate::cg::CgState;
use crate::tight;
use deltx_graph::NodeId;
use deltx_model::{AccessMode, EntityId};
use std::collections::BTreeMap;

/// A counterexample to C1: the pair `(Tj, x)` the paper calls a
/// *witness* in §4 — `tj` is an active tight predecessor of the candidate
/// and no completed tight successor of `tj` covers entity `x` strongly
/// enough.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct C1Violation {
    /// The active tight predecessor.
    pub tj: NodeId,
    /// The uncovered entity.
    pub x: EntityId,
    /// How strongly the candidate accesses `x` (the bar `Tk` must meet).
    pub mode: AccessMode,
}

/// Strongest access per entity over the completed tight successors of
/// `tj`, excluding `exclude` as an endpoint.
fn successor_cover(cg: &CgState, tj: NodeId, exclude: NodeId) -> BTreeMap<EntityId, AccessMode> {
    let mut cover: BTreeMap<EntityId, AccessMode> = BTreeMap::new();
    for tk in tight::completed_tight_successors(cg, tj) {
        if tk == exclude {
            continue;
        }
        for (&x, rec) in &cg.info(tk).access {
            cover
                .entry(x)
                .and_modify(|m| *m = (*m).max(rec.mode))
                .or_insert(rec.mode);
        }
    }
    cover
}

/// Returns the first C1 violation for completed node `ti`, or `None` if
/// C1 holds (deterministic: smallest `tj`, then smallest `x`).
///
/// # Panics
/// Panics (debug) if `ti` is not a live completed node.
pub fn violation(cg: &CgState, ti: NodeId) -> Option<C1Violation> {
    debug_assert!(cg.is_completed(ti), "C1 is about completed transactions");
    if cg.graph().preds(ti).is_empty() {
        return None; // Lemma 1: no active tight predecessor (module doc)
    }
    let accesses = &cg.info(ti).access;
    for tj in tight::active_tight_predecessors(cg, ti) {
        let cover = successor_cover(cg, tj, ti);
        for (&x, rec) in accesses {
            let covered = cover
                .get(&x)
                .is_some_and(|m| m.at_least_as_strong_as(rec.mode));
            if !covered {
                return Some(C1Violation {
                    tj,
                    x,
                    mode: rec.mode,
                });
            }
        }
    }
    None
}

/// True if condition C1 holds for `ti` — i.e. deleting `ti` from the
/// current (reduced) graph is **safe** (Theorems 1 and 3).
pub fn holds(cg: &CgState, ti: NodeId) -> bool {
    violation(cg, ti).is_none()
}

/// *All* C1 violations of `ti` — its full witness set in the sense of
/// §4's closing argument. An irreducible graph assigns every completed
/// node a nonempty witness set, and the paper shows those sets are
/// pairwise disjoint, bounding the graph size by `a · e` (see
/// [`crate::witness`]).
pub fn violations_all(cg: &CgState, ti: NodeId) -> Vec<C1Violation> {
    debug_assert!(cg.is_completed(ti));
    let accesses = &cg.info(ti).access;
    let mut out = Vec::new();
    for tj in tight::active_tight_predecessors(cg, ti) {
        let cover = successor_cover(cg, tj, ti);
        for (&x, rec) in accesses {
            let covered = cover
                .get(&x)
                .is_some_and(|m| m.at_least_as_strong_as(rec.mode));
            if !covered {
                out.push(C1Violation {
                    tj,
                    x,
                    mode: rec.mode,
                });
            }
        }
    }
    out
}

/// All completed nodes currently satisfying C1 (the paper's set `M` in
/// §4), ascending. Each is *individually* safely deletable; joint
/// deletability is condition C2.
pub fn eligible(cg: &CgState) -> Vec<NodeId> {
    cg.completed_nodes()
        .into_iter()
        .filter(|&n| holds(cg, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltx_model::dsl::parse;
    use deltx_model::workload::{WorkloadConfig, WorkloadGen};
    use deltx_model::TxnId;

    fn state(src: &str) -> CgState {
        let p = parse(src).unwrap();
        let mut cg = CgState::new();
        cg.run(p.steps()).unwrap();
        cg
    }

    #[test]
    fn lemma1_no_active_predecessor_is_vacuous() {
        // Two completed txns, no actives at all.
        let cg = state("b1 r1(x) w1(x) b2 r2(x) w2(x)");
        let t1 = cg.node_of(TxnId(1)).unwrap();
        let t2 = cg.node_of(TxnId(2)).unwrap();
        assert!(holds(&cg, t1));
        assert!(holds(&cg, t2));
        assert_eq!(eligible(&cg).len(), 2);
    }

    #[test]
    fn example1_both_eligible_individually() {
        let cg = state("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        let t3 = cg.node_of(TxnId(3)).unwrap();
        // T2 is covered by T3 (T3 wrote x >= T2's write of x);
        // T3 is covered by T2 symmetric? T2 wrote x as strongly as T3.
        assert!(holds(&cg, t2));
        assert!(holds(&cg, t3));
        assert_eq!(eligible(&cg), vec![t2, t3]);
    }

    #[test]
    fn example1_deleting_one_disables_the_other() {
        let mut cg = state("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        let t3 = cg.node_of(TxnId(3)).unwrap();
        cg.delete(t3).unwrap();
        // Now T2 is the only completed accessor of x: C1 fails (Thm 3 on
        // the reduced graph).
        let v = violation(&cg, t2).expect("must be violated");
        assert_eq!(v.tj, cg.node_of(TxnId(1)).unwrap());
        assert_eq!(v.x, deltx_model::EntityId(0));
        assert!(eligible(&cg).is_empty());
    }

    #[test]
    fn deleting_an_eligible_node_never_makes_another_eligible() {
        // The module doc's argument, checked on every reachable state of
        // a few generated schedules: after deleting any one eligible
        // node, the eligible set is a subset of what it was.
        for seed in 0..3u64 {
            let mut cg = CgState::new();
            for step in WorkloadGen::new(WorkloadConfig {
                n_entities: 5,
                concurrency: 4,
                total_txns: 30,
                seed,
                ..WorkloadConfig::default()
            }) {
                cg.apply(&step).unwrap();
                let before = eligible(&cg);
                for &d in &before {
                    let mut reduced = cg.clone();
                    reduced.delete(d).unwrap();
                    for n in eligible(&reduced) {
                        assert!(
                            before.contains(&n),
                            "seed {seed}: deleting {d:?} enabled {n:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uncovered_entity_blocks_deletion() {
        // T2 reads private z2 nobody else accesses: not coverable while T1
        // (tight predecessor via x) is active.
        let cg = state("b1 r1(x) b2 r2(z2) r2(x) w2(x) b3 r3(x) w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        let t3 = cg.node_of(TxnId(3)).unwrap();
        let v = violation(&cg, t2).expect("z2 uncovered");
        assert_eq!(v.mode, AccessMode::Read);
        assert!(holds(&cg, t3));
    }

    #[test]
    fn write_requires_write_cover() {
        // T2 writes y; T3 only READS y: read does not cover a write.
        let cg = state("b1 r1(y) b2 w2(y) b3 r3(y) w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        let v = violation(&cg, t2).expect("write of y uncovered by read");
        assert_eq!(v.x, deltx_model::EntityId(0)); // y interned first
        assert_eq!(v.mode, AccessMode::Write);
        // Strengthen T3's successor... add T4 writing y: covers.
        let cg2 = state("b1 r1(y) b2 w2(y) b3 r3(y) w3(x) b4 r4(x) w4(y)");
        let t2 = cg2.node_of(TxnId(2)).unwrap();
        assert!(holds(&cg2, t2));
        cg2.check_invariants();
    }

    #[test]
    fn read_covered_by_write() {
        // T2 reads x; successor T3 WRITES x: write covers read.
        let cg = state("b1 r1(x) b2 r2(x) w2() b3 w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        assert!(holds(&cg, t2));
    }

    #[test]
    fn tight_successor_path_may_pass_through_candidate() {
        // T1 active reads x. T2 accesses x and a second entity w; the only
        // completed cover for w sits BEHIND T2 (path T1 -> T2 -> T4).
        // C1 must still accept: the tight path to T4 may run through T2
        // (deletion bridges it).
        let cg = state("b1 r1(x) b2 r2(x) w2(w,x) b4 r4(w) w4(w,x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        assert!(holds(&cg, t2), "cover may lie behind the candidate");
    }

    #[test]
    fn multiple_active_predecessors_all_quantified() {
        // Two actives T1, T5 both tight predecessors of T2; T3 covers for
        // T1 but nobody covers for T5's side... actually coverage is per
        // (Tj): successor sets differ per Tj.
        let cg = state("b1 r1(x) b5 r5(y) b2 r2(x) r2(y) w2(x,y) b3 r3(x) w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        // T2 wrote y, and no completed successor of either active reader
        // covers y — both T1 and T5 witness the violation; the first
        // (smallest id) is reported, with entity y.
        let v = violation(&cg, t2).expect("y uncovered");
        assert_eq!(v.x, deltx_model::EntityId(1), "entity y");
        let t1 = cg.node_of(TxnId(1)).unwrap();
        let t5 = cg.node_of(TxnId(5)).unwrap();
        assert!(v.tj == t1 || v.tj == t5);
        // Covering y with a later completed writer clears the violation.
        let cg2 = state("b1 r1(x) b5 r5(y) b2 r2(x) r2(y) w2(x,y) b3 r3(x) w3(x) b4 r4(x) w4(y)");
        let t2 = cg2.node_of(TxnId(2)).unwrap();
        assert!(holds(&cg2, t2));
    }
}
