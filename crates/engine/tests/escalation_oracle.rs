//! Partial-escalation oracle tests.
//!
//! The tentpole claim is that locking only the summary-closure subset
//! of shards changes **no** accept/reject decision. Two oracles check
//! it:
//!
//! 1. **Lockstep against the full scheduler**: a randomized mixed
//!    single/multi-shard workload is replayed operation-by-operation
//!    into a monolithic, never-deleting [`CgState`]; every engine
//!    outcome (accept vs scheduler-abort) must match the full
//!    scheduler's — even while GC keeps deleting between steps
//!    (Theorem 2 lifts reduced-graph equivalence to the full graph).
//! 2. **A/B against all-locks**: the identical workload driven through
//!    the all-locks baseline twin engine must produce the
//!    identical outcome sequence — the union cycle check restricted to
//!    the planned subset equals the all-shards check.
//!
//! Plus regression coverage for the boundary-count underflow fix.

use deltx_core::CgState;
use deltx_engine::{run_seed, Engine, EngineConfig, EngineError, GcPolicy};
use deltx_model::{Op, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 4;
const ENTITIES: u32 = 16;

/// One scripted transaction: which entities to read, which to write,
/// and whether to roll back instead of committing.
#[derive(Debug, Clone)]
struct Script {
    reads: Vec<u32>,
    writes: Vec<u32>,
    client_abort: bool,
}

/// Deterministic mixed workload: single-shard, two-shard, and
/// scatter transactions, with occasional voluntary rollbacks.
fn make_scripts(n: usize, seed: u64) -> Vec<Script> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let kind = rng.gen_range(0u32..10);
            let pick_in_shard = |rng: &mut StdRng, s: u32| {
                s + SHARDS as u32 * rng.gen_range(0..ENTITIES / SHARDS as u32)
            };
            let (reads, writes) = if kind < 5 {
                // Single-shard read-modify-write.
                let s = rng.gen_range(0..SHARDS as u32);
                let x = pick_in_shard(&mut rng, s);
                let y = pick_in_shard(&mut rng, s);
                (vec![x], vec![x, y])
            } else if kind < 8 {
                // Two-shard transfer.
                let x = rng.gen_range(0..ENTITIES);
                let y = rng.gen_range(0..ENTITIES);
                (vec![x, y], vec![x, y])
            } else if kind < 9 {
                // Scatter write over three entities.
                let xs: Vec<u32> = (0..3).map(|_| rng.gen_range(0..ENTITIES)).collect();
                (vec![xs[0]], xs)
            } else {
                // Read-only.
                (vec![rng.gen_range(0..ENTITIES)], vec![])
            };
            Script {
                reads,
                writes,
                client_abort: i % 13 == 7,
            }
        })
        .collect()
}

/// What the engine decided for one script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Committed,
    SchedulerAborted,
    ClientAborted,
}

/// Runs one script on `e`, returning the decision.
fn run_script(e: &Engine, sc: &Script) -> Outcome {
    let mut t = e.begin();
    for &x in &sc.reads {
        if t.read(x).is_err() {
            return Outcome::SchedulerAborted;
        }
    }
    if sc.client_abort {
        t.abort();
        return Outcome::ClientAborted;
    }
    for (i, &x) in sc.writes.iter().enumerate() {
        t.write(x, i as i64 + 1);
    }
    match t.commit() {
        Ok(()) => Outcome::Committed,
        Err(EngineError::Aborted(_)) => Outcome::SchedulerAborted,
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

#[test]
fn partial_escalation_decisions_match_full_scheduler_lockstep() {
    let e = Engine::new(EngineConfig {
        shards: SHARDS,
        gc: GcPolicy::Noncurrent,
        background_gc: false, // deterministic: sweep from the driver
        record_history: true,
        ..EngineConfig::default()
    });
    let scripts = make_scripts(1200, run_seed(0xE5CA));
    for (i, sc) in scripts.iter().enumerate() {
        run_script(&e, sc);
        if i % 7 == 0 {
            e.gc_sweep();
        }
    }
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.commits > 800, "workload must make progress: {m}");
    assert!(
        m.escalated_partial > 100,
        "partial escalation must actually be exercised: {m}"
    );
    assert!(m.gc_deletions > 300, "GC must be deleting mid-run: {m}");
    assert_eq!(m.boundary_underflows, 0, "counts stayed consistent");

    // Lockstep oracle: replay the linearized history into the full,
    // never-deleting scheduler; outcomes must agree exactly.
    let h = e.recorded_history().expect("recording enabled");
    let mut full = CgState::new();
    for ev in &h.events {
        match ev {
            deltx_engine::Event::Step { step, outcome } => {
                let got = full
                    .apply(step)
                    .unwrap_or_else(|err| panic!("full scheduler rejected {step:?}: {err}"));
                assert_eq!(
                    got, *outcome,
                    "partial escalation diverged from the full union check on {step:?}"
                );
            }
            deltx_engine::Event::ClientAbort(t) => {
                full.abort_txn(*t).expect("client abort of live txn");
            }
        }
    }
    full.check_invariants();
}

#[test]
fn partial_and_all_locks_engines_agree_on_every_decision() {
    // Identical deterministic workloads through a partial-escalation
    // engine and an all-locks twin: the decision sequences must be
    // equal, operation for operation.
    let mk = |partial: bool| {
        let cfg = EngineConfig {
            shards: SHARDS,
            gc: GcPolicy::Noncurrent,
            background_gc: false,
            record_history: false,
            ..EngineConfig::default()
        };
        if partial {
            Engine::new(cfg)
        } else {
            Engine::open_all_locks_baseline(cfg).expect("open engine").0
        }
    };
    let a = mk(true);
    let b = mk(false);
    let scripts = make_scripts(1500, run_seed(0xAB));
    for (i, sc) in scripts.iter().enumerate() {
        let oa = run_script(&a, sc);
        let ob = run_script(&b, sc);
        assert_eq!(oa, ob, "decision diverged on script {i}: {sc:?}");
        if i % 11 == 0 {
            a.gc_sweep();
            b.gc_sweep();
        }
    }
    let (ma, mb) = (a.metrics(), b.metrics());
    assert_eq!(ma.commits, mb.commits);
    assert_eq!(ma.aborts_scheduler, mb.aborts_scheduler);
    assert!(ma.escalated_partial > 100, "subset plans exercised: {ma}");
    assert_eq!(mb.escalated_partial, 0, "baseline never locks subsets");
    // Same committed values everywhere.
    for x in 0..ENTITIES {
        assert_eq!(a.peek(x), b.peek(x), "stores diverged at entity {x}");
    }
    // The point of the feature, in one line: identical decisions with
    // strictly fewer locks.
    assert!(
        ma.escalated_locks_taken < mb.escalated_locks_taken,
        "partial escalation must take fewer locks: {} vs {}",
        ma.escalated_locks_taken,
        mb.escalated_locks_taken
    );
}

#[test]
fn escalated_subsets_are_strict_on_skewed_traffic() {
    // Cross-shard traffic confined to shards {0, 1}: every escalated
    // acquisition should lock ~2 shards, never all 4, and single-shard
    // traffic on shards 2..4 must stay on the fast path.
    let e = Engine::new(EngineConfig {
        shards: SHARDS,
        gc: GcPolicy::Noncurrent,
        background_gc: false,
        record_history: false,
        ..EngineConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(run_seed(7));
    for i in 0..600 {
        let mut t = e.begin();
        if i % 3 == 0 {
            // Hot pair: entity in shard 0 and entity in shard 1.
            let x = SHARDS as u32 * rng.gen_range(0..2u32);
            let y = 1 + SHARDS as u32 * rng.gen_range(0..2u32);
            let Ok(a) = t.read(x) else { continue };
            t.write(x, a + 1);
            t.write(y, a);
        } else {
            // Cold single-shard traffic in shards 2..4.
            let s = 2 + rng.gen_range(0..(SHARDS as u32 - 2));
            let x = s + SHARDS as u32 * rng.gen_range(0..2u32);
            let Ok(a) = t.read(x) else { continue };
            t.write(x, a + 1);
        }
        let _ = t.commit();
        if i % 16 == 0 {
            e.gc_sweep();
        }
    }
    let m = e.metrics();
    assert!(m.fast_path_ops > 0, "cold shards must stay fast-path: {m}");
    assert!(m.escalated_partial > 50, "hot pair must plan subsets: {m}");
    // No acquisition beyond 2 locks outside the rare fallbacks.
    let full_acqs = m.escalated_subset_hist[2..].iter().sum::<u64>();
    assert!(
        full_acqs <= m.escalation_fallbacks,
        "subsets must stay at 2 locks except fallbacks: {m}"
    );
    assert_eq!(m.boundary_underflows, 0);
}

#[test]
fn boundary_underflow_regression_cross_shard_abort_churn() {
    // The PR-1 decrement sites could underflow if the registry and the
    // per-shard counts ever disagreed. Drive the paths that mutate
    // both in every order: multi-shard commits, cycle aborts of
    // multi-shard transactions, client aborts, GC deletion with ghost
    // re-bridging — then assert the saturating decrement never fired
    // and the graph drains to empty.
    let e = Engine::new(EngineConfig {
        shards: 3,
        gc: GcPolicy::Noncurrent,
        background_gc: false,
        record_history: true,
        ..EngineConfig::default()
    });

    // Build a cross-shard cycle that aborts a multi-shard txn.
    let mut t1 = e.begin();
    t1.read(0).unwrap(); // shard 0
    let mut t2 = e.begin();
    t2.read(1).unwrap(); // shard 1
    t2.write(0, 1);
    t2.commit().unwrap(); // T1 -> T2
    t1.write(1, 2);
    assert!(t1.commit().is_err(), "cycle must abort T1 (multi-shard)");

    // Client-abort a multi-shard transaction after it spans shards.
    let mut t3 = e.begin();
    t3.read(0).unwrap();
    t3.read(1).unwrap();
    t3.read(2).unwrap();
    t3.abort();

    // Churn: overlapping multi-shard commits + sweeps force deletion
    // with ghost bridging and re-registration.
    let mut rng = StdRng::seed_from_u64(run_seed(3));
    for i in 0..300 {
        let x = rng.gen_range(0..9u32);
        let y = rng.gen_range(0..9u32);
        let mut t = e.begin();
        let Ok(a) = t.read(x) else { continue };
        t.write(x, a + 1);
        if y != x {
            t.write(y, i);
        }
        let _ = t.commit();
        if i % 5 == 0 {
            e.gc_sweep();
        }
    }
    e.gc_sweep();
    let m = e.metrics();
    assert_eq!(
        m.boundary_underflows, 0,
        "boundary counts must never disagree with the registry: {m}"
    );
    assert!(m.gc_deletions > 100, "GC exercised: {m}");

    // Replay sanity: the whole interleaving still matches the full
    // scheduler (the regression scenario preserved correctness, not
    // just the absence of a panic).
    let h = e.recorded_history().expect("recording enabled");
    let mut full = CgState::new();
    for ev in &h.events {
        match ev {
            deltx_engine::Event::Step { step, outcome } => {
                let got = full.apply(step).expect("well-formed history");
                assert_eq!(got, *outcome, "diverged on {step:?}");
            }
            deltx_engine::Event::ClientAbort(t) => {
                full.abort_txn(*t).expect("client abort of live txn");
            }
        }
    }
}

#[test]
fn empty_write_set_commit_completes_ghost_spanning_txn() {
    // A read-only transaction that became multi-shard still commits
    // through the escalated path with an empty WriteAll in each shard.
    let e = Engine::new(EngineConfig {
        shards: 2,
        background_gc: false,
        record_history: false,
        ..EngineConfig::default()
    });
    let mut t = e.begin();
    t.read(0).unwrap();
    t.read(1).unwrap();
    t.commit().unwrap();
    assert_eq!(e.metrics().commits, 1);

    // Sanity: a WriteAll step with no entities is the recorded form.
    let s = Step::new(deltx_model::TxnId(9), Op::WriteAll(vec![]));
    assert!(matches!(s.op, Op::WriteAll(ref v) if v.is_empty()));
}
