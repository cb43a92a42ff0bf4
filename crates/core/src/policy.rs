//! Deletion policies (§4, Theorem 2).
//!
//! A *deletion policy* `P` maps the current (reduced) graph to a set of
//! completed nodes to delete; the scheduling algorithm applies `P` after
//! every step (the reduced scheduler in `deltx-sched` skips BEGINs and
//! reads, which enable no deletion). Theorem 2: **a deletion policy is
//! correct iff every deletion it performs is safe** — so the safe
//! policies below only ever delete sets satisfying C1/C2, while
//! [`CommitTimeUnsafe`] deliberately violates safety to reproduce the
//! paper's opening observation that closing at commit time (which is
//! fine for pure locking) is *wrong* for conflict-graph schedulers.
//!
//! ```
//! use deltx_core::policy::{run_with_policy, GreedyC1, NoDeletion};
//! use deltx_model::dsl;
//!
//! let p = dsl::parse("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)").unwrap();
//! let kept = run_with_policy(p.steps(), &mut NoDeletion).unwrap();
//! let reduced = run_with_policy(p.steps(), &mut GreedyC1).unwrap();
//! assert_eq!(kept.completed_count(), 2);
//! assert_eq!(reduced.completed_count(), 1); // one of T2/T3 reclaimed
//! ```

use crate::cg::CgState;
use crate::{c1, c2, noncurrent};
use deltx_graph::NodeId;

/// A deletion policy: invoked by the reduced scheduler after each step
/// that can enable a deletion — an accepted final write or an abort —
/// and free to do nothing.
pub trait DeletionPolicy {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Performs this policy's deletions directly on the state.
    fn reduce(&mut self, cg: &mut CgState);
}

impl<P: DeletionPolicy + ?Sized> DeletionPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reduce(&mut self, cg: &mut CgState) {
        (**self).reduce(cg)
    }
}

/// Never deletes anything: the plain conflict-graph scheduler. The graph
/// grows without bound (baseline for experiment E12).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDeletion;

impl DeletionPolicy for NoDeletion {
    fn name(&self) -> &'static str {
        "no-deletion"
    }

    fn reduce(&mut self, _cg: &mut CgState) {}
}

/// **Deliberately unsafe**: deletes every transaction the moment it
/// completes, i.e. "close at commit time" — correct for pure two-phase
/// locking, incorrect for conflict-graph scheduling (§1). Used by
/// experiment E6 to exhibit an accepted non-CSR schedule.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommitTimeUnsafe;

impl DeletionPolicy for CommitTimeUnsafe {
    fn name(&self) -> &'static str {
        "commit-time (unsafe)"
    }

    fn reduce(&mut self, cg: &mut CgState) {
        for n in cg.completed_nodes() {
            cg.delete(n).expect("completed");
        }
    }
}

/// Deletes every *noncurrent* completed transaction (Corollary 1).
///
/// Safe **as a standalone policy**: the cover used in the corollary's
/// proof is the last writer of each entity, which is current by
/// definition and therefore never deleted by this same policy — so the
/// corollary's argument keeps applying to the reduced graphs this policy
/// produces. (Mixing noncurrency with other deletion criteria breaks
/// this; see §4's discussion of Example 1.) Cheap: no path queries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noncurrent;

impl DeletionPolicy for Noncurrent {
    fn name(&self) -> &'static str {
        "noncurrent"
    }

    fn reduce(&mut self, cg: &mut CgState) {
        for n in noncurrent::noncurrent_completed(cg) {
            cg.delete(n).expect("completed");
        }
    }
}

/// Deletes every completed node that satisfies C1 when its turn comes,
/// in one ascending pass, leaving the graph irreducible. No deletion
/// makes another node eligible (see [`c1`]), so the pass deletes the
/// same sequence as "delete the smallest eligible node, rescan, repeat".
/// Safe by Theorem 3 (C1 is exact on reduced graphs) and Theorem 2 (safe
/// deletions compose). This is the maximal-eagerness baseline; its end
/// states feed the `a·e` bound of experiment E9.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyC1;

impl DeletionPolicy for GreedyC1 {
    fn name(&self) -> &'static str {
        "greedy-C1"
    }

    fn reduce(&mut self, cg: &mut CgState) {
        for n in cg.completed_nodes() {
            if c1::holds(cg, n) {
                cg.delete(n).expect("completed");
            }
        }
    }
}

/// One batch per call: computes the C1-eligible set, greedily grows a
/// C2-safe subset, deletes it in one go (Theorem 4). The reduced
/// scheduler calls it once per completion or abort. Fewer passes than
/// [`GreedyC1`]; may delete a different (never unsafe) set.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchC2;

impl DeletionPolicy for BatchC2 {
    fn name(&self) -> &'static str {
        "batch-C2"
    }

    fn reduce(&mut self, cg: &mut CgState) {
        let eligible = c1::eligible(cg);
        if eligible.is_empty() {
            return;
        }
        let n_set = c2::grow_greedy(cg, &eligible);
        let ns: Vec<NodeId> = n_set.into_iter().collect();
        cg.delete_set(&ns).expect("C2-safe set");
    }
}

/// A nameable deletion policy, shared by every consumer that selects
/// policies at run time (the simulation drivers, the reduced scheduler
/// CLIs, and the online engine's GC configuration) so the zoo of
/// `match`-and-construct blocks lives in one place.
///
/// ```
/// use deltx_core::policy::{run_with_policy, PolicyKind};
/// use deltx_model::dsl::parse;
///
/// // Parse by the same stable names `name()` reports...
/// let kind: PolicyKind = "noncurrent".parse().unwrap();
/// assert_eq!(kind, PolicyKind::Noncurrent);
/// assert_eq!(kind.name(), "noncurrent");
/// assert!(PolicyKind::SAFE.contains(&kind));
///
/// // ...and build the policy to drive a scheduler run: T2's write of
/// // x is overwritten by T3, so the noncurrent policy reclaims T2.
/// let p = parse("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)").unwrap();
/// let cg = run_with_policy(p.steps(), &mut kind.build()).unwrap();
/// assert_eq!(cg.completed_count(), 1);
/// assert_eq!(cg.stats().deletions, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`NoDeletion`].
    NoDeletion,
    /// [`Noncurrent`].
    Noncurrent,
    /// [`GreedyC1`].
    GreedyC1,
    /// [`BatchC2`].
    BatchC2,
    /// [`CommitTimeUnsafe`] — kept selectable for the experiments that
    /// demonstrate *why* it is wrong.
    CommitTimeUnsafe,
}

impl PolicyKind {
    /// Every kind, safe ones first.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::NoDeletion,
        PolicyKind::Noncurrent,
        PolicyKind::GreedyC1,
        PolicyKind::BatchC2,
        PolicyKind::CommitTimeUnsafe,
    ];

    /// The kinds whose every deletion is safe (Theorem 2 compliant).
    pub const SAFE: [PolicyKind; 4] = [
        PolicyKind::NoDeletion,
        PolicyKind::Noncurrent,
        PolicyKind::GreedyC1,
        PolicyKind::BatchC2,
    ];

    /// Stable display name (matches the built policy's
    /// [`DeletionPolicy::name`]).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::NoDeletion => "no-deletion",
            PolicyKind::Noncurrent => "noncurrent",
            PolicyKind::GreedyC1 => "greedy-C1",
            PolicyKind::BatchC2 => "batch-C2",
            PolicyKind::CommitTimeUnsafe => "commit-time (unsafe)",
        }
    }

    /// Constructs the policy.
    pub fn build(self) -> Box<dyn DeletionPolicy + Send> {
        match self {
            PolicyKind::NoDeletion => Box::new(NoDeletion),
            PolicyKind::Noncurrent => Box::new(Noncurrent),
            PolicyKind::GreedyC1 => Box::new(GreedyC1),
            PolicyKind::BatchC2 => Box::new(BatchC2),
            PolicyKind::CommitTimeUnsafe => Box::new(CommitTimeUnsafe),
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "no-deletion" | "none" => Ok(PolicyKind::NoDeletion),
            "noncurrent" => Ok(PolicyKind::Noncurrent),
            "greedy-c1" | "c1" => Ok(PolicyKind::GreedyC1),
            "batch-c2" | "c2" => Ok(PolicyKind::BatchC2),
            "commit-time" | "unsafe" => Ok(PolicyKind::CommitTimeUnsafe),
            other => Err(format!("unknown deletion policy `{other}`")),
        }
    }
}

/// Runs a full step stream through a scheduler with policy `p`, applying
/// the policy after every step; returns the final state.
/// (The simulation driver in `deltx-sim` offers a metered version.)
pub fn run_with_policy<'a, P: DeletionPolicy>(
    steps: impl IntoIterator<Item = &'a deltx_model::Step>,
    p: &mut P,
) -> Result<CgState, crate::error::CgError> {
    let mut cg = CgState::new();
    for step in steps {
        cg.apply(step)?;
        p.reduce(&mut cg);
    }
    Ok(cg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::Applied;
    use deltx_model::dsl::parse;
    use deltx_model::workload::{WorkloadConfig, WorkloadGen};
    use deltx_model::TxnId;

    fn steps(src: &str) -> deltx_model::Schedule {
        parse(src).unwrap()
    }

    #[test]
    fn no_deletion_keeps_everything() {
        let p = steps("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let cg = run_with_policy(p.steps(), &mut NoDeletion).unwrap();
        assert_eq!(cg.completed_count(), 2);
        assert_eq!(cg.stats().deletions, 0);
    }

    #[test]
    fn commit_time_deletes_everything_completed() {
        let p = steps("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let cg = run_with_policy(p.steps(), &mut CommitTimeUnsafe).unwrap();
        assert_eq!(cg.completed_count(), 0);
        assert_eq!(cg.stats().deletions, 2);
    }

    #[test]
    fn commit_time_accepts_non_csr() {
        // The paper's core point. Schedule: T1 reads x; T2 reads y then
        // writes x (completes; commit-time policy deletes it). Then T1
        // writes y: in the full graph this closes the cycle T1->T2->T1 and
        // T1 must abort; with T2 deleted the reduced scheduler accepts,
        // and the accepted subschedule is NOT conflict-serializable.
        let p = steps("b1 r1(x) b2 r2(y) w2(x) w1(y)");
        // Full scheduler rejects the last step:
        let mut full = CgState::new();
        let outcomes = full.run(p.steps()).unwrap();
        assert_eq!(*outcomes.last().unwrap(), crate::cg::Applied::SelfAborted);
        // Commit-time policy accepts it:
        let mut cg = CgState::new();
        let mut pol = CommitTimeUnsafe;
        let mut accepted_all = true;
        for step in p.steps() {
            let r = cg.apply(step).unwrap();
            accepted_all &= r == crate::cg::Applied::Accepted;
            pol.reduce(&mut cg);
        }
        assert!(
            accepted_all,
            "unsafe policy accepted the cycle-closing step"
        );
        // Ground truth: accepted subschedule (= everything) is not CSR.
        assert!(!deltx_model::history::is_csr(&p));
    }

    #[test]
    fn greedy_c1_reduces_example1_to_one_completed() {
        let p = steps("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let cg = run_with_policy(p.steps(), &mut GreedyC1).unwrap();
        // One of T2/T3 must remain (deleting both is unsafe).
        assert_eq!(cg.completed_count(), 1);
        assert!(c1::eligible(&cg).is_empty(), "irreducible");
    }

    #[test]
    fn batch_c2_matches_greedy_on_example1() {
        let p = steps("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let cg = run_with_policy(p.steps(), &mut BatchC2).unwrap();
        assert_eq!(cg.completed_count(), 1);
    }

    #[test]
    fn noncurrent_policy_deletes_overwritten_only() {
        let p = steps("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let cg = run_with_policy(p.steps(), &mut Noncurrent).unwrap();
        // T2 became noncurrent when T3 overwrote x; T3 stays (current).
        assert_eq!(cg.completed_count(), 1);
        let t3 = cg.node_of(TxnId(3)).unwrap();
        assert!(cg.is_completed(t3));
        assert!(cg.node_of(TxnId(2)).is_none());
    }

    #[test]
    fn policy_kinds_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
            let parsed: PolicyKind = kind
                .name()
                .split(' ')
                .next()
                .unwrap()
                .to_lowercase()
                .parse()
                .unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("gibberish".parse::<PolicyKind>().is_err());
        assert!(PolicyKind::SAFE
            .iter()
            .all(|k| *k != PolicyKind::CommitTimeUnsafe));
        // Built policies are live trait objects.
        let p = steps("b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x)");
        let mut boxed = PolicyKind::GreedyC1.build();
        let mut cg = CgState::new();
        for s in p.steps() {
            cg.apply(s).unwrap();
            boxed.reduce(&mut cg);
        }
        assert_eq!(cg.completed_count(), 1);
    }

    #[test]
    fn begin_and_read_change_no_deletion_verdict() {
        // Why the reduced scheduler skips the policy after these steps:
        // neither changes any completed node's C1 verdict or currency.
        // Checked on the full graph and on graphs the noncurrent policy
        // reduced after each final write (bridge arcs included).
        for seed in 0..4u64 {
            for reducer in [&mut NoDeletion as &mut dyn DeletionPolicy, &mut Noncurrent] {
                let mut cg = CgState::new();
                for step in WorkloadGen::new(WorkloadConfig {
                    n_entities: 6,
                    concurrency: 4,
                    total_txns: 40,
                    seed,
                    ..WorkloadConfig::default()
                }) {
                    let verdicts =
                        |cg: &CgState| (c1::eligible(cg), noncurrent::noncurrent_completed(cg));
                    let before = verdicts(&cg);
                    let applied = cg.apply(&step).unwrap();
                    if step.op.is_terminal() || applied == Applied::SelfAborted {
                        reducer.reduce(&mut cg);
                    } else {
                        assert_eq!(verdicts(&cg), before, "seed {seed}: {step:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn safe_policies_never_delete_unsafely() {
        // Drive a random-ish workload through each safe policy and check
        // at each step that the policy state and the full scheduler agree
        // on every outcome (Theorem 2 direction "safe => correct").
        let src = "b1 r1(x) b2 r2(y) w2(y) b3 r3(x) r3(y) w3(x) b4 r4(y) w4(x,y) \
                   b5 r5(x) w5(y) w1(x)";
        let p = steps(src);
        let run_outcomes = |mk: &mut dyn FnMut(&mut CgState)| {
            let mut cg = CgState::new();
            let mut out = Vec::new();
            for step in p.steps() {
                out.push(cg.apply(step).unwrap());
                mk(&mut cg);
            }
            out
        };
        let full = run_outcomes(&mut |_| {});
        let mut g = GreedyC1;
        let greedy = run_outcomes(&mut |cg| g.reduce(cg));
        let mut b = BatchC2;
        let batch = run_outcomes(&mut |cg| b.reduce(cg));
        let mut nc = Noncurrent;
        let noncur = run_outcomes(&mut |cg| nc.reduce(cg));
        assert_eq!(full, greedy, "GreedyC1 diverged from the full scheduler");
        assert_eq!(full, batch, "BatchC2 diverged from the full scheduler");
        assert_eq!(full, noncur, "Noncurrent diverged from the full scheduler");
    }
}
