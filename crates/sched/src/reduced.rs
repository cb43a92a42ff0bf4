//! The reduced scheduler: conflict-graph scheduling plus a deletion
//! policy (§4's scheduling algorithm `R_P`).
//!
//! `R_P` runs the policy after every step. [`Reduced::feed`] runs it only
//! after the two kinds of step that can make a completed transaction
//! deletable: an accepted final write (`WriteAll`), and a step rejected
//! because it would close a cycle, which aborts its transaction. Every
//! condition a policy tests — C1 (Theorems 1 and 3), C2 (Theorem 4) and
//! noncurrency (Corollary 1) — reads three facts about a completed node:
//! its active tight predecessors, the completed tight successors of those
//! that cover its accesses, and whether it touched the latest version of
//! some entity. No other step changes any of them:
//!
//! * **BEGIN** adds an isolated active node: no arc, no access, no
//!   version.
//! * **An accepted read** by `Ti` adds arcs only *into* `Ti` (Rule 2) and
//!   records an access of `Ti`'s own. `Ti` is active, so a path that uses
//!   a new arc either passes through `Ti` (not tight) or ends at `Ti`. A
//!   path ending at an active node neither leads to a completed node (no
//!   new active tight predecessor) nor reaches a cover (covers are
//!   completed). A read installs no version.
//! * **A step of an aborted transaction** is ignored and changes nothing.
//!
//! So after such a step the graph is exactly as reduced as the policy
//! left it. An abort, by contrast, removes an active node, which may have
//! been the last active tight predecessor keeping a completed node;
//! reducing right there means every `feed` returns a graph the policy
//! has finished with, instead of leaving the deletion to the next
//! accepted step. The rule is one for every policy and needs nothing from
//! the [`DeletionPolicy`] trait.

use crate::outcome::{FeedOutcome, Scheduler, StateSize};
use deltx_core::policy::DeletionPolicy;
use deltx_core::{Applied, CgError, CgState, CycleStrategy};
use deltx_model::{Step, TxnId};

/// Conflict-graph scheduler with deletion policy `P`.
#[derive(Clone, Debug)]
pub struct Reduced<P: DeletionPolicy> {
    state: CgState,
    policy: P,
}

impl<P: DeletionPolicy> Reduced<P> {
    /// Fresh scheduler with policy `policy`.
    pub fn new(policy: P) -> Self {
        Self {
            state: CgState::new(),
            policy,
        }
    }

    /// Fresh scheduler with an explicit cycle-check strategy.
    pub fn with_strategy(policy: P, strategy: CycleStrategy) -> Self {
        Self {
            state: CgState::with_strategy(strategy),
            policy,
        }
    }

    /// Read access to the underlying graph state.
    pub fn state(&self) -> &CgState {
        &self.state
    }

    /// Total deletions performed so far.
    pub fn deletions(&self) -> u64 {
        self.state.stats().deletions
    }
}

impl<P: DeletionPolicy> Scheduler for Reduced<P> {
    fn name(&self) -> String {
        format!("cg/{}", self.policy.name())
    }

    fn feed(&mut self, step: &Step) -> Result<FeedOutcome, CgError> {
        // Only a completion or an abort can enable a deletion (module doc).
        let out = match self.state.apply(step)? {
            Applied::Accepted if step.op.is_terminal() => {
                self.policy.reduce(&mut self.state);
                FeedOutcome::Accepted
            }
            Applied::Accepted => FeedOutcome::Accepted,
            Applied::SelfAborted => {
                self.policy.reduce(&mut self.state);
                FeedOutcome::Aborted(vec![step.txn])
            }
            Applied::IgnoredAborted => FeedOutcome::Ignored,
        };
        Ok(out)
    }

    fn state_size(&self) -> StateSize {
        StateSize {
            nodes: self.state.graph().node_count(),
            arcs: self.state.graph().arc_count(),
            aux: 0,
        }
    }

    fn aborted_txns(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self.state.aborted_txns().iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltx_core::policy::{GreedyC1, Noncurrent};
    use deltx_model::dsl::parse;

    #[test]
    fn greedy_policy_bounds_long_reader_scenario() {
        let mut s = Reduced::new(GreedyC1);
        for step in parse("b1 r1(x)").unwrap().steps() {
            s.feed(step).unwrap();
        }
        for i in 2..52 {
            s.feed(&Step::begin(i)).unwrap();
            s.feed(&Step::read(i, 0)).unwrap();
            s.feed(&Step::write_all(i, [0])).unwrap();
            // At most reader + a couple of completed writers retained.
            assert!(
                s.state_size().nodes <= 3,
                "graph must stay bounded, got {}",
                s.state_size().nodes
            );
        }
        assert!(s.deletions() >= 48, "almost every writer reclaimed");
    }

    #[test]
    fn name_includes_policy() {
        assert_eq!(Reduced::new(GreedyC1).name(), "cg/greedy-C1");
        assert_eq!(Reduced::new(Noncurrent).name(), "cg/noncurrent");
    }

    #[test]
    fn aborts_reported_like_preventive() {
        let mut s = Reduced::new(GreedyC1);
        for step in parse("b1 r1(x) b2 r2(y) w2(x)").unwrap().steps() {
            s.feed(step).unwrap();
        }
        let out = s.feed(&Step::write_all(1, [1])).unwrap();
        assert_eq!(out, FeedOutcome::Aborted(vec![TxnId(1)]));
    }

    #[test]
    fn abort_deletes_what_it_frees_in_the_same_feed() {
        // T1 is T2's only active tight predecessor and nothing covers
        // T2's accesses, so T2 stays until T1's cycle-closing write
        // aborts T1; that feed deletes T2.
        let mut s = Reduced::new(GreedyC1);
        for step in parse("b1 r1(x) b2 r2(y) w2(x)").unwrap().steps() {
            s.feed(step).unwrap();
        }
        assert_eq!(s.state_size().nodes, 2);
        s.feed(&Step::write_all(1, [1])).unwrap();
        assert_eq!((s.state_size().nodes, s.deletions()), (0, 1));
    }
}
