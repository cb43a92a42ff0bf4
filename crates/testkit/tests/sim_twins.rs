//! Simulated twins of the wall-clock stress tests: the engine suite's
//! `stress_replay::run_mix` churn and `crash_recovery`'s
//! crash-under-concurrent-load, re-expressed as [`WorkloadSpec`]s so
//! they run under the virtual scheduler — same shape of traffic, but
//! deterministic, seed-replayable, and an order of magnitude faster.
//! The wall-clock originals stay in `deltx-engine` as the
//! real-threads smoke layer; these twins are where the interleaving
//! space actually gets explored.

use deltx_engine::{run_seed, CrashPoint};
use deltx_testkit::{run_spec, zoo, FaultPlan, Profile, WorkloadSpec};

/// The `run_mix` churn twin: 8 sessions of banking transfers with
/// client rollbacks every 17th transaction, enough volume that GC
/// deletes the bulk of the history while traffic is still flowing.
fn churn_twin() -> WorkloadSpec {
    WorkloadSpec {
        name: "churn_twin".into(),
        sessions: 8,
        txns_per_session: 150,
        entities: 32,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 60 },
        abort_every: 17,
        think_ns: 1_000,
        gc_interval_us: 50,
        durable: false,
        fault: FaultPlan::None,
        bounded: true,
    }
}

/// The crash-under-concurrent-load twin: durable transfers with the
/// plug pulled mid-flight (torn flush), recovery running *in-sim* on
/// the same virtual timeline.
fn crash_load_twin() -> WorkloadSpec {
    WorkloadSpec {
        name: "crash_load_twin".into(),
        sessions: 4,
        txns_per_session: 100,
        entities: 32,
        shards: 4,
        profile: Profile::Transfer { cross_pct: 30 },
        abort_every: 0,
        think_ns: 2_000,
        gc_interval_us: 50,
        durable: true,
        fault: FaultPlan::Crash {
            after_commits: 50,
            point: CrashPoint::MidFlushTorn,
        },
        // Post-crash residue legitimately exceeds the O(active)
        // bound.
        bounded: false,
    }
}

/// The churn twin sustains real load — most of the history both
/// commits and gets deleted — and replays bit-identically.
#[test]
fn churn_twin_sustains_load_and_replays() {
    let seed = run_seed(0x0C4A);
    let a = run_spec(&churn_twin(), seed).expect("churn twin runs green");
    assert!(
        a.commits > 300,
        "churn twin must commit real volume, got {}",
        a.commits
    );
    assert!(
        a.gc_deletions > 150,
        "GC must keep up with the churn, got {} deletions",
        a.gc_deletions
    );
    assert!(a.client_aborts > 0, "the rollback mix must exercise aborts");
    let b = run_spec(&churn_twin(), seed).expect("second run");
    assert_eq!(a, b, "churn twin must replay bit-identically");
}

/// The crash twin loses the tail but recovers a consistent prefix:
/// recovery replays a meaningful number of commits, the balance-sum
/// oracle holds on the recovered image, and the whole crash +
/// recovery timeline replays bit-identically.
#[test]
fn crash_under_load_twin_recovers_in_sim() {
    let seed = run_seed(0x0C4B);
    let a = run_spec(&crash_load_twin(), seed).expect("crash twin runs green");
    assert!(
        a.commits_replayed >= 40,
        "recovery must replay the pre-crash commits, got {}",
        a.commits_replayed
    );
    let b = run_spec(&crash_load_twin(), seed).expect("second run");
    assert_eq!(a, b, "crash + in-sim recovery must replay bit-identically");
}

/// The acceptance bar for repeated in-sim recovery: three engine
/// lifetimes (crash, recover, crash, recover, finish) inside one
/// simulated timeline, bit-identical under `DELTX_SEED`.
#[test]
fn crash_recover_twice_replays_bit_identically() {
    let spec = zoo::durable_crash_recover_twice();
    let seed = run_seed(0x0C4C);
    let a = run_spec(&spec, seed).expect("crash-loop spec runs green");
    assert!(
        a.commits_replayed > 0,
        "at least one recovery wave must replay commits"
    );
    let b = run_spec(&spec, seed).expect("second run");
    assert_eq!(
        a, b,
        "repeated crash + recovery must replay bit-identically"
    );
}
