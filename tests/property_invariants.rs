//! Property-based tests over randomly generated schedules: structural
//! invariants of the scheduler state, exactness of C1 vs the constructive
//! oracle, reduced-graph well-formedness under every policy, nothing left
//! for the policy after any `Reduced::feed`, and noncurrency ⊆ C1.

use deltx::core::policy::{BatchC2, DeletionPolicy, GreedyC1, Noncurrent};
use deltx::core::{c1, c2, noncurrent, oracle, reduced, CgState};
use deltx::model::{Op, Schedule, Step, TxnId};
use deltx::sched::reduced::Reduced;
use deltx::sched::Scheduler;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a well-formed basic-model step stream over small domains.
/// Transactions begin in order; each is a few reads then a final write.
fn arb_schedule() -> impl Strategy<Value = Vec<Step>> {
    // Per-txn program: (reads: Vec<entity>, writes: Vec<entity>)
    let program = (
        prop::collection::vec(0u32..4, 0..3),
        prop::collection::vec(0u32..4, 0..2),
    );
    (prop::collection::vec(program, 1..7), any::<u64>()).prop_map(|(programs, seed)| {
        // Interleave round-robin with a seed-driven skew.
        let specs: Vec<Vec<Step>> = programs
            .into_iter()
            .enumerate()
            .map(|(i, (reads, writes))| {
                let id = i as u32 + 1;
                let mut v = vec![Step::begin(id)];
                v.extend(reads.into_iter().map(|x| Step::read(id, x)));
                v.push(Step::write_all(id, writes));
                v
            })
            .collect();
        let mut queues: Vec<std::collections::VecDeque<Step>> =
            specs.into_iter().map(Into::into).collect();
        let mut out = Vec::new();
        let mut rng = seed;
        while queues.iter().any(|q| !q.is_empty()) {
            // xorshift for cheap determinism
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let live: Vec<usize> = queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(i, _)| i)
                .collect();
            let pick = live[(rng as usize) % live.len()];
            out.push(queues[pick].pop_front().expect("nonempty"));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_state_invariants_hold(steps in arb_schedule()) {
        let mut cg = CgState::new();
        for s in &steps {
            let _ = cg.apply(s).expect("well-formed");
        }
        cg.check_invariants();
    }

    #[test]
    fn c1_matches_singleton_c2(steps in arb_schedule()) {
        let mut cg = CgState::new();
        for s in &steps {
            let _ = cg.apply(s).expect("well-formed");
        }
        for n in cg.completed_nodes() {
            prop_assert_eq!(
                c1::holds(&cg, n),
                c2::holds(&cg, &BTreeSet::from([n]))
            );
        }
    }

    #[test]
    fn noncurrent_implies_c1(steps in arb_schedule()) {
        let mut cg = CgState::new();
        for s in &steps {
            let _ = cg.apply(s).expect("well-formed");
        }
        for n in noncurrent::noncurrent_completed(&cg) {
            prop_assert!(c1::holds(&cg, n), "Corollary 1 violated");
        }
    }

    #[test]
    fn c1_violations_have_diverging_witnesses(steps in arb_schedule()) {
        let mut cg = CgState::new();
        for s in &steps {
            let _ = cg.apply(s).expect("well-formed");
        }
        for n in cg.completed_nodes() {
            if let Some(v) = c1::violation(&cg, n) {
                let cont = oracle::necessity_witness(&cg, n, &v);
                let mut red = cg.clone();
                red.delete(n).expect("completed");
                prop_assert!(
                    oracle::diverges(&cg, &red, &cont).is_some(),
                    "Theorem 1 necessity: witness must diverge"
                );
            }
        }
    }

    #[test]
    fn policies_produce_wellformed_reduced_graphs(steps in arb_schedule()) {
        let run = |mk: &mut dyn DeletionPolicy| {
            let mut cg = CgState::new();
            let mut p = Schedule::new();
            for s in &steps {
                p.push(s.clone());
                let _ = cg.apply(s).expect("well-formed");
                mk.reduce(&mut cg);
                assert_eq!(
                    reduced::is_reduced_graph_of(&cg, &p),
                    Ok(()),
                    "policy {}",
                    mk.name()
                );
            }
        };
        run(&mut GreedyC1);
        run(&mut BatchC2);
        run(&mut Noncurrent);
    }

    #[test]
    fn every_feed_leaves_nothing_for_the_policy(steps in arb_schedule()) {
        // `Reduced::feed` runs the policy only after a final write or an
        // abort; BEGINs and reads enable no deletion, so the graph it
        // returns is always one the policy has finished with.
        let mut greedy = Reduced::new(GreedyC1);
        let mut batch = Reduced::new(BatchC2);
        let mut noncur = Reduced::new(Noncurrent);
        for s in &steps {
            greedy.feed(s).expect("well-formed");
            batch.feed(s).expect("well-formed");
            noncur.feed(s).expect("well-formed");
            prop_assert!(c1::eligible(greedy.state()).is_empty(), "greedy-C1 after {:?}", s);
            prop_assert!(c1::eligible(batch.state()).is_empty(), "batch-C2 after {:?}", s);
            prop_assert!(
                noncurrent::noncurrent_completed(noncur.state()).is_empty(),
                "noncurrent after {:?}",
                s
            );
        }
    }

    #[test]
    fn greedy_deletions_never_change_decisions(steps in arb_schedule()) {
        let mut full = CgState::new();
        let mut red = CgState::new();
        let mut pol = GreedyC1;
        for s in &steps {
            let a = full.apply(s).expect("well-formed");
            let b = red.apply(s).expect("well-formed");
            prop_assert_eq!(a, b, "Theorem 2 violated");
            pol.reduce(&mut red);
        }
    }

    #[test]
    fn c2_is_monotone_downward(steps in arb_schedule()) {
        // If deleting N is safe, deleting any subset of N is safe: the
        // subset's covers only gain candidates. (Implicit in Theorem 4's
        // proof; the policies rely on it.)
        let mut cg = CgState::new();
        for s in &steps {
            let _ = cg.apply(s).expect("well-formed");
        }
        let eligible = c1::eligible(&cg);
        let n_set = c2::grow_greedy(&cg, &eligible);
        prop_assert!(c2::holds(&cg, &n_set));
        // Drop each element in turn; safety must persist.
        for &drop in &n_set {
            let mut smaller = n_set.clone();
            smaller.remove(&drop);
            prop_assert!(
                c2::holds(&cg, &smaller),
                "C2 not downward monotone: removing {:?} broke safety",
                drop
            );
        }
    }

    #[test]
    fn accepted_subschedule_is_always_csr(steps in arb_schedule()) {
        let mut cg = CgState::new();
        let mut executed = Vec::new();
        for s in &steps {
            if cg.apply(s).expect("well-formed") == deltx::core::Applied::Accepted {
                executed.push(s.clone());
            }
        }
        let accepted = Schedule::from_steps(executed)
            .accepted_subschedule(cg.aborted_txns());
        prop_assert!(deltx::model::history::is_csr(&accepted));
    }
}

#[test]
fn txn_ids_unique_in_generated_streams() {
    // Plain test guarding the strategy itself.
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::default();
    for _ in 0..10 {
        let steps = arb_schedule().new_tree(&mut runner).expect("gen").current();
        let begins: Vec<TxnId> = steps
            .iter()
            .filter(|s| matches!(s.op, Op::Begin))
            .map(|s| s.txn)
            .collect();
        let mut dedup = begins.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(begins.len(), dedup.len());
    }
}
