//! Corollary 1 — noncurrent transactions are removable.
//!
//! > *Say that a completed transaction is **current** if it has read or
//! > written the current value of some entity (i.e., the entity has not
//! > been subsequently overwritten). … A noncurrent transaction can be
//! > removed.*
//!
//! The check is O(accesses): [`crate::cg::CgState`] keeps a monotone write
//! counter per entity and stamps each access with the version it touched —
//! a transaction is current iff some stamped version is still the latest.
//!
//! §4 warns that the corollary is a statement about the **conflict
//! graph**: Example 1 shows a noncurrent transaction in a *reduced* graph
//! whose deletion is unsafe (`T2` after `T3` was deleted). Under a policy
//! that deletes *only* noncurrent transactions this cannot happen — the
//! last writer of an entity is current by definition and therefore never
//! deleted by the policy, so every noncurrent transaction's cover is still
//! present (see `policy::Noncurrent`). Mixing noncurrency with other
//! deletion criteria re-opens the trap; experiment E6 demonstrates it.
//!
//! One mix stays safe, and the online engine runs it: noncurrency plus
//! Lemma 1's completed **sources** (`c1.rs`). E6 deletes by C1 a
//! writer that still has a predecessor — Example 1's `T3`, behind the
//! active `T1` — and so removes the cover a later noncurrent deletion
//! needs. The cover of a noncurrent `Ti` is a later writer of `Ti`'s
//! entity; that writer follows `Ti` for as long as `Ti` lives, so it
//! is never a source, and deleting sources never removes it. Nothing
//! else ever becomes a source's predecessor: every new arc lands on
//! the stepping active node or on a node that already has one.
//! `deltx_sched`'s `equiv` tests run the mix against the full
//! scheduler (`sources_then_noncurrent_never_diverges`).

use crate::cg::CgState;
use deltx_graph::NodeId;

/// True if the **completed** node has read or written the current value
/// of at least one entity.
pub fn is_current(cg: &CgState, n: NodeId) -> bool {
    cg.info(n)
        .access
        .iter()
        .any(|(&x, rec)| rec.version == cg.version_of(x))
}

/// All completed nodes that are noncurrent (deletable per Corollary 1),
/// ascending.
pub fn noncurrent_completed(cg: &CgState) -> Vec<NodeId> {
    cg.completed_nodes()
        .into_iter()
        .filter(|&n| !is_current(cg, n))
        .collect()
}

/// The noncurrent completed nodes **among** `candidates` — the
/// incremental form of [`noncurrent_completed`] driven by
/// [`CgState::drain_gc_candidates`]: a sweep touches only nodes whose
/// status can have changed instead of scanning the whole graph. Stale
/// candidates (deleted or re-aborted since they were enqueued) are
/// filtered out, so the result is always safe to pass to
/// [`CgState::delete`].
///
/// ```
/// use deltx_core::{noncurrent, CgState};
/// use deltx_model::dsl::parse;
/// use deltx_model::TxnId;
///
/// // Example 1's prefix: T2 writes x, then T3 overwrites it.
/// let mut cg = CgState::new();
/// cg.set_gc_tracking(true);
/// let p = parse("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)").unwrap();
/// cg.run(p.steps()).unwrap();
///
/// // The overwrite enqueued T2 (and T3's completion enqueued T3);
/// // only T2 is noncurrent — T3 wrote the current version of x.
/// let candidates = cg.drain_gc_candidates();
/// let deletable = noncurrent::noncurrent_among(&cg, &candidates);
/// assert_eq!(deletable, vec![cg.node_of(TxnId(2)).unwrap()]);
///
/// // Corollary 1: deleting it is safe, and its memory is reclaimed.
/// cg.delete(deletable[0]).unwrap();
/// assert!(cg.node_of(TxnId(2)).is_none());
/// ```
pub fn noncurrent_among(cg: &CgState, candidates: &[NodeId]) -> Vec<NodeId> {
    candidates
        .iter()
        .copied()
        .filter(|&n| cg.is_completed(n) && !is_current(cg, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c1;
    use deltx_model::dsl::parse;
    use deltx_model::TxnId;

    fn state(src: &str) -> CgState {
        let p = parse(src).unwrap();
        let mut cg = CgState::new();
        cg.run(p.steps()).unwrap();
        cg
    }

    #[test]
    fn example1_t2_noncurrent_t3_current() {
        let cg = state("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        let t3 = cg.node_of(TxnId(3)).unwrap();
        assert!(!is_current(&cg, t2), "T2's write of x was overwritten");
        assert!(is_current(&cg, t3), "T3 wrote the current x");
        assert_eq!(noncurrent_completed(&cg), vec![t2]);
    }

    #[test]
    fn corollary1_noncurrent_implies_c1() {
        // Randomized-ish structural check on a handful of schedules.
        for src in [
            "b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)",
            "b1 r1(a) b2 w2(a,b) b3 r3(b) w3(a,b) b4 w4(b)",
            "b9 r9(p) r9(q) b1 w1(p) b2 w2(q) b3 w3(p,q)",
        ] {
            let cg = state(src);
            for n in noncurrent_completed(&cg) {
                assert!(
                    c1::holds(&cg, n),
                    "Corollary 1 violated on `{src}` for {:?}",
                    cg.info(n).txn
                );
            }
        }
    }

    #[test]
    fn reader_of_current_value_is_current() {
        let cg = state("b1 w1(x) b2 r2(x) w2()");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        assert!(is_current(&cg, t2), "T2 read the current x");
        // After overwriting x, T2 (and T1) become noncurrent.
        let cg = state("b1 w1(x) b2 r2(x) w2() b3 w3(x)");
        let t1 = cg.node_of(TxnId(1)).unwrap();
        let t2 = cg.node_of(TxnId(2)).unwrap();
        assert!(!is_current(&cg, t2));
        assert!(!is_current(&cg, t1));
    }

    #[test]
    fn current_on_any_single_entity_suffices() {
        // T2 accessed x (overwritten) and y (still current).
        let cg = state("b1 r1(x) b2 r2(x) w2(x,y) b3 r3(x) w3(x)");
        let t2 = cg.node_of(TxnId(2)).unwrap();
        assert!(is_current(&cg, t2), "y keeps T2 current");
    }

    #[test]
    fn empty_write_read_only_txn() {
        // Read-only txn is current until its read value is overwritten.
        let cg = state("b1 r1(x) w1()");
        let t1 = cg.node_of(TxnId(1)).unwrap();
        assert!(is_current(&cg, t1));
        let cg = state("b1 r1(x) w1() b2 w2(x)");
        let t1 = cg.node_of(TxnId(1)).unwrap();
        assert!(!is_current(&cg, t1));
    }
}
