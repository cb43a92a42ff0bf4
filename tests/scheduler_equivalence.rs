//! Cross-crate integration: every scheduler accepts only
//! conflict-serializable subschedules, and every safe deletion policy is
//! observationally equivalent to the full conflict-graph scheduler
//! (Theorem 2) across randomized workloads.

use deltx::core::policy::{BatchC2, CommitTimeUnsafe, GreedyC1, NoDeletion, Noncurrent};
use deltx::core::{c1, Applied, CgState};
use deltx::model::workload::{
    long_running_reader, LongReaderConfig, ModelKind, WorkloadConfig, WorkloadGen,
};
use deltx::model::{Step, TxnId};
use deltx::sched::certifier::Certifier;
use deltx::sched::equiv::compare_policy_against_full;
use deltx::sched::locking::TwoPhaseLocking;
use deltx::sched::multiwrite::MultiWrite;
use deltx::sched::preventive::Preventive;
use deltx::sched::reduced::Reduced;
use deltx::sched::{FeedOutcome, Scheduler};
use deltx::sim::driver::drive;

fn workloads() -> Vec<(String, Vec<Step>)> {
    let mut out = Vec::new();
    for seed in 0..5u64 {
        let cfg = WorkloadConfig {
            n_entities: 6,
            concurrency: 4,
            total_txns: 60,
            seed,
            ..WorkloadConfig::default()
        };
        out.push((format!("uniform/{seed}"), WorkloadGen::new(cfg).collect()));
    }
    for seed in 0..3u64 {
        let cfg = WorkloadConfig {
            n_entities: 16,
            concurrency: 5,
            total_txns: 60,
            zipf_exponent: Some(1.2),
            seed: 100 + seed,
            ..WorkloadConfig::default()
        };
        out.push((format!("zipf/{seed}"), WorkloadGen::new(cfg).collect()));
    }
    out.push((
        "long-reader".to_string(),
        long_running_reader(&LongReaderConfig::default())
            .steps()
            .to_vec(),
    ));
    out
}

#[test]
fn safe_policies_match_full_scheduler_everywhere() {
    for (name, steps) in workloads() {
        assert_eq!(
            compare_policy_against_full(&steps, &mut NoDeletion),
            None,
            "{name}"
        );
        assert_eq!(
            compare_policy_against_full(&steps, &mut Noncurrent),
            None,
            "{name}"
        );
        assert_eq!(
            compare_policy_against_full(&steps, &mut GreedyC1),
            None,
            "{name}"
        );
        assert_eq!(
            compare_policy_against_full(&steps, &mut BatchC2),
            None,
            "{name}"
        );
    }
}

#[test]
fn every_scheduler_passes_the_csr_audit() {
    for (name, steps) in workloads() {
        let m = drive(&steps, &mut Preventive::new(), 0);
        assert!(m.csr_ok, "preventive on {name}");
        let m = drive(&steps, &mut Reduced::new(GreedyC1), 0);
        assert!(m.csr_ok, "greedy-C1 on {name}");
        let m = drive(&steps, &mut Reduced::new(BatchC2), 0);
        assert!(m.csr_ok, "batch-C2 on {name}");
        let m = drive(&steps, &mut Reduced::new(Noncurrent), 0);
        assert!(m.csr_ok, "noncurrent on {name}");
        let m = drive(&steps, &mut Certifier::new(), 0);
        assert!(m.csr_ok, "certifier on {name}");
        let m = drive(&steps, &mut TwoPhaseLocking::new(), 0);
        assert!(m.csr_ok, "2PL on {name}");
        // On fully-completing workloads deadlock detection must unstick
        // everything; under the long reader, writers of scanned entities
        // legitimately wait forever for its S-locks.
        if name != "long-reader" {
            assert_eq!(m.stuck_steps, 0, "2PL wedged on {name}");
        }
    }
}

#[test]
fn multiwrite_scheduler_csr_and_gc() {
    for seed in 0..4u64 {
        let cfg = WorkloadConfig {
            n_entities: 6,
            concurrency: 3,
            total_txns: 40,
            model: ModelKind::MultiWrite,
            seed: 500 + seed,
            ..WorkloadConfig::default()
        };
        let steps: Vec<Step> = WorkloadGen::new(cfg).collect();
        let m_plain = drive(&steps, &mut MultiWrite::new(), 0);
        assert!(m_plain.csr_ok, "multiwrite plain, seed {seed}");
        let mut gc = MultiWrite::with_gc(6);
        let m_gc = drive(&steps, gc_as_scheduler(&mut gc), 0);
        assert!(m_gc.csr_ok, "multiwrite gc, seed {seed}");
        assert_eq!(
            m_plain.accepted, m_gc.accepted,
            "C3 deletions must not change decisions (seed {seed})"
        );
        assert!(m_gc.peak_nodes <= m_plain.peak_nodes);
    }
}

fn gc_as_scheduler(mw: &mut MultiWrite) -> &mut MultiWrite {
    mw
}

#[test]
fn deletion_policies_vastly_reduce_memory_on_long_reader() {
    let steps = long_running_reader(&LongReaderConfig {
        reader_scan: 8,
        n_writers: 120,
        n_entities: 12,
        seed: 9,
    });
    let m_none = drive(steps.steps(), &mut Preventive::new(), 0);
    let m_greedy = drive(steps.steps(), &mut Reduced::new(GreedyC1), 0);
    assert!(m_none.peak_nodes > 100);
    assert!(m_greedy.peak_nodes < 20);
}

/// The `offline_c1` benchmark shape, seed 1: 200 000 transactions over
/// 1 024 entities at concurrency 8, through `Reduced<GreedyC1>` — which
/// runs the policy only after final writes and aborts, in one ascending
/// pass — against a plain reference that, after every accepted step and
/// every abort, deletes the smallest C1-eligible node until none is left.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "200 000 transactions: run with `cargo test --release`"
)]
fn reduced_greedy_c1_matches_the_reference_loop_on_the_offline_c1_shape() {
    let steps: Vec<Step> = WorkloadGen::new(WorkloadConfig {
        n_entities: 1024,
        concurrency: 8,
        total_txns: 200_000,
        seed: 1,
        ..WorkloadConfig::default()
    })
    .collect();
    let live = |cg: &CgState| -> Vec<TxnId> { cg.nodes().map(|n| cg.info(n).txn).collect() };
    let mut sched = Reduced::new(GreedyC1);
    let mut reference = CgState::new();
    let mut committed = 0u64;
    for (i, s) in steps.iter().enumerate() {
        let out = sched.feed(s).expect("well-formed");
        let expected = match reference.apply(s).expect("well-formed") {
            Applied::IgnoredAborted => FeedOutcome::Ignored,
            applied => {
                while let Some(&n) = c1::eligible(&reference).first() {
                    reference.delete(n).expect("completed");
                }
                match applied {
                    Applied::Accepted => FeedOutcome::Accepted,
                    _ => FeedOutcome::Aborted(vec![s.txn]),
                }
            }
        };
        assert_eq!(out, expected, "decision at step {i}");
        assert_eq!(
            live(sched.state()),
            live(&reference),
            "live nodes after step {i}"
        );
        assert_eq!(
            sched.state_size().arcs,
            reference.graph().arc_count(),
            "arcs after step {i}"
        );
        committed += u64::from(s.op.is_terminal() && out == FeedOutcome::Accepted);
    }
    println!(
        "offline_c1 shape: {committed} committed, {} deletions, {} aborts",
        sched.deletions(),
        sched.state().stats().aborts
    );

    // Theorem 2 against the undeleted graph, on the prefix it can afford
    // (its graph grows with history): the first 5 000 transactions.
    let end = steps
        .iter()
        .position(|s| s.txn.0 > 5_000)
        .unwrap_or(steps.len());
    let decisions = |sched: &mut dyn Scheduler| -> Vec<FeedOutcome> {
        steps[..end]
            .iter()
            .map(|s| sched.feed(s).expect("well-formed"))
            .collect()
    };
    assert_eq!(
        decisions(&mut Reduced::new(GreedyC1)),
        decisions(&mut Reduced::new(NoDeletion))
    );
}

#[test]
fn unsafe_policy_breaks_serializability_somewhere() {
    // Not on every workload — but the adversarial one suffices, and no
    // safe policy may break it anywhere (checked above).
    let p = deltx::model::dsl::parse("b1 r1(x) b2 r2(y) w2(x) w1(y)").unwrap();
    let d = compare_policy_against_full(p.steps(), &mut CommitTimeUnsafe);
    assert!(d.is_some());
}
