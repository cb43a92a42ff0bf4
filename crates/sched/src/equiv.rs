//! Lock-step equivalence harness — the executable form of Theorem 2.
//!
//! A deletion policy is correct iff the reduced scheduler *behaves
//! exactly like* the full conflict-graph scheduler on every input
//! (Lemma 2(2) lifted through Theorem 2). This module runs both on the
//! same stream and reports the first divergence, plus a ground-truth CSR
//! audit of whatever a scheduler accepted.

use crate::outcome::{FeedOutcome, Scheduler};
use deltx_core::policy::DeletionPolicy;
use deltx_core::{Applied, CgState};
use deltx_model::history::is_csr;
use deltx_model::{Schedule, Step, TxnId};
use std::collections::HashSet;

/// First behavioural difference between two schedulers on a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Step index.
    pub at: usize,
    /// Outcome in the full (no-deletion) scheduler.
    pub full: Applied,
    /// Outcome in the policy scheduler.
    pub reduced: Applied,
}

/// Runs `steps` through the full scheduler and through a fresh scheduler
/// using `policy`; returns the first divergence if any. A safe policy
/// must return `None` on **every** stream (Theorem 2).
pub fn compare_policy_against_full<P: DeletionPolicy>(
    steps: &[Step],
    policy: &mut P,
) -> Option<Divergence> {
    let mut full = CgState::new();
    let mut red = CgState::new();
    for (i, step) in steps.iter().enumerate() {
        let a = full.apply(step).expect("well-formed stream");
        let b = red.apply(step).expect("well-formed stream");
        if a != b {
            return Some(Divergence {
                at: i,
                full: a,
                reduced: b,
            });
        }
        policy.reduce(&mut red);
    }
    None
}

/// Runs a stream through any [`Scheduler`] and audits the result: the
/// accepted subschedule (steps of non-aborted transactions, with
/// `Blocked` steps retried in submission order at the end) must be
/// conflict-serializable. Returns `(csr, accepted_schedule)`.
///
/// For blocking schedulers the retry model is simplistic (single final
/// retry pass); the simulation driver in `deltx-sim` does full per-txn
/// queued retries — this audit is for non-blocking schedulers.
pub fn csr_audit<S: Scheduler>(steps: &[Step], sched: &mut S) -> (bool, Schedule) {
    let mut executed: Vec<Step> = Vec::new();
    for step in steps {
        match sched.feed(step).expect("well-formed stream") {
            FeedOutcome::Accepted => executed.push(step.clone()),
            FeedOutcome::Aborted(_) | FeedOutcome::Ignored | FeedOutcome::Blocked => {}
        }
    }
    let aborted: HashSet<TxnId> = sched.aborted_txns().into_iter().collect();
    let accepted = Schedule::from_steps(executed).accepted_subschedule(&aborted);
    (is_csr(&accepted), accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preventive::Preventive;
    use crate::reduced::Reduced;
    use deltx_core::noncurrent;
    use deltx_core::policy::{BatchC2, CommitTimeUnsafe, GreedyC1, Noncurrent};
    use deltx_model::dsl::parse;
    use deltx_model::workload::{WorkloadConfig, WorkloadGen};

    #[test]
    fn safe_policies_never_diverge_on_random_streams() {
        for seed in 0..6u64 {
            let cfg = WorkloadConfig {
                n_entities: 6,
                concurrency: 4,
                total_txns: 40,
                seed,
                ..WorkloadConfig::default()
            };
            let steps: Vec<Step> = WorkloadGen::new(cfg).collect();
            assert_eq!(
                compare_policy_against_full(&steps, &mut GreedyC1),
                None,
                "GreedyC1 diverged, seed {seed}"
            );
            assert_eq!(
                compare_policy_against_full(&steps, &mut BatchC2),
                None,
                "BatchC2 diverged, seed {seed}"
            );
            assert_eq!(
                compare_policy_against_full(&steps, &mut Noncurrent),
                None,
                "Noncurrent diverged, seed {seed}"
            );
        }
    }

    #[test]
    fn unsafe_policy_diverges_on_adversarial_stream() {
        let p = parse("b1 r1(x) b2 r2(y) w2(x) w1(y)").unwrap();
        let d = compare_policy_against_full(p.steps(), &mut CommitTimeUnsafe)
            .expect("commit-time deletion must diverge");
        assert_eq!(d.full, Applied::SelfAborted);
        assert_eq!(d.reduced, Applied::Accepted);
        assert_eq!(d.at, 5, "the final write of T1");
    }

    /// The online engine's mix, offline and test-only (no `PolicyKind`
    /// entry): delete every completed source (Lemma 1), then every
    /// noncurrent node (Corollary 1), until neither rule applies.
    /// Counts what it deleted.
    #[derive(Default)]
    struct SourcesThenNoncurrent {
        deletions: u64,
    }

    impl DeletionPolicy for SourcesThenNoncurrent {
        fn name(&self) -> &'static str {
            "sources-then-noncurrent"
        }

        fn reduce(&mut self, cg: &mut CgState) {
            loop {
                let completed = cg.completed_nodes().into_iter();
                let mut doomed: Vec<_> = completed
                    .filter(|&n| cg.graph().preds(n).is_empty())
                    .collect();
                if doomed.is_empty() {
                    doomed = noncurrent::noncurrent_completed(cg);
                }
                if doomed.is_empty() {
                    return;
                }
                cg.delete_set(&doomed).expect("completed nodes delete");
                self.deletions += doomed.len() as u64;
            }
        }
    }

    /// Runs the mix against the full scheduler on `streams` random
    /// streams over 3–10 entities at concurrency 2–6; returns how many
    /// nodes it deleted.
    fn mix_on_random_streams(streams: u64) -> u64 {
        let mut mix = SourcesThenNoncurrent::default();
        for seed in 0..streams {
            let cfg = WorkloadConfig {
                n_entities: 3 + (seed % 8) as u32,
                concurrency: 2 + (seed / 8 % 5) as usize,
                total_txns: 30,
                seed,
                ..WorkloadConfig::default()
            };
            let steps: Vec<Step> = WorkloadGen::new(cfg).collect();
            let d = compare_policy_against_full(&steps, &mut mix);
            assert_eq!(d, None, "sources-then-noncurrent diverged, seed {seed}");
        }
        mix.deletions
    }

    #[test]
    fn sources_then_noncurrent_never_diverges() {
        assert!(mix_on_random_streams(1_000) > 10_000);
        // The stream that convicts deletion at commit time, and Example
        // 1 followed by w1(x): deleting T3 there makes T2 unsafe (E6),
        // but T3 follows the active T1 and is never a source.
        for src in [
            "b1 r1(x) b2 r2(y) w2(x) w1(y)",
            "b1 r1(x) b2 r2(x) w2(x) b3 r3(x) w3(x) w1(x)",
        ] {
            let p = parse(src).unwrap();
            let mut mix = SourcesThenNoncurrent::default();
            assert_eq!(
                compare_policy_against_full(p.steps(), &mut mix),
                None,
                "{src}"
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "20 000 streams take minutes in a debug build; CI runs this with --release"
    )]
    fn sources_then_noncurrent_never_diverges_on_20k_streams() {
        assert!(mix_on_random_streams(20_000) > 0);
    }

    #[test]
    fn csr_audit_passes_for_safe_schedulers() {
        for seed in [3u64, 17] {
            let cfg = WorkloadConfig {
                n_entities: 5,
                concurrency: 4,
                total_txns: 30,
                seed,
                ..WorkloadConfig::default()
            };
            let steps: Vec<Step> = WorkloadGen::new(cfg).collect();
            let (ok, _) = csr_audit(&steps, &mut Preventive::new());
            assert!(ok, "preventive accepted non-CSR (seed {seed})");
            let (ok, _) = csr_audit(&steps, &mut Reduced::new(GreedyC1));
            assert!(ok, "greedy-C1 accepted non-CSR (seed {seed})");
        }
    }

    #[test]
    fn csr_audit_catches_the_unsafe_policy() {
        let p = parse("b1 r1(x) b2 r2(y) w2(x) w1(y)").unwrap();
        let (ok, accepted) = csr_audit(p.steps(), &mut Reduced::new(CommitTimeUnsafe));
        assert!(!ok, "unsafe policy accepted a non-CSR schedule");
        assert_eq!(accepted.txn_ids().len(), 2);
    }
}
