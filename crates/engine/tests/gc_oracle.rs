//! Partial multi-shard GC oracle tests.
//!
//! The tentpole claim: deleting a multi-shard transaction while
//! holding only the shard locks of its own registered span — whether
//! those are the locks of the commit that finished overwriting it or
//! of a standalone pass, which retries under a lead's span as re-read
//! when it grew — leaves union reachability, and therefore
//! every subsequent accept/reject decision, bit-identical to an engine
//! that never deletes across shards. Three oracles check it:
//!
//! 1. **Lockstep against the full scheduler**: a skewed mixed
//!    workload runs with hot-pair committers deleting mid-stream under
//!    their own two locks; the recorded history replayed into a
//!    monolithic, never-deleting `CgState` must produce identical
//!    outcomes (Theorem 2 lifts reduced-graph equivalence to the full
//!    graph).
//! 2. **A/B against one shard**: the identical workload driven through
//!    a one-shard twin — no ghost, no span registry, no GC lock set —
//!    must yield the identical decision sequence and identical
//!    committed values — on
//!    skewed traffic (every closure is the committer's own span, so
//!    no standalone pass ever has work) and on uniform traffic
//!    (closures escape the committers, and the standalone pass locks
//!    each lead's own span).
//! 3. **A constructed scenario** where losing a single cross-shard
//!    bridge would flip a decision: the subset-locked deletion must
//!    still force the abort the preserved ordering demands.
//!
//! Plus closure-strictness: on traffic whose cross-shard pairs stay
//! inside a hot shard pair, no lock is ever taken for GC.

use deltx_engine::{run_seed, Engine, EngineConfig, EngineError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 4;
const ENTITIES: u32 = 16;

/// One scripted transaction: reads, writes, or a voluntary rollback.
#[derive(Debug, Clone)]
struct Script {
    reads: Vec<u32>,
    writes: Vec<u32>,
    client_abort: bool,
}

/// Deterministic **skewed** workload: cross-shard transfers confined
/// to the hot pair {0, 1}, cold single-shard traffic on shards 2..4,
/// and occasional rollbacks. Skew is what gives GC closures something
/// to be strict about — under uniform scatter neighbors live anywhere.
fn make_skewed_scripts(n: usize, seed: u64) -> Vec<Script> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let kind = rng.gen_range(0u32..10);
            let pick_in_shard = |rng: &mut StdRng, s: u32| {
                s + SHARDS as u32 * rng.gen_range(0..ENTITIES / SHARDS as u32)
            };
            let (reads, writes) = if kind < 4 {
                // Hot-pair transfer: shard 0 <-> shard 1.
                let x = pick_in_shard(&mut rng, 0);
                let y = pick_in_shard(&mut rng, 1);
                (vec![x, y], vec![x, y])
            } else if kind < 9 {
                // Cold single-shard read-modify-write on shards 2..4.
                let s = 2 + rng.gen_range(0..(SHARDS as u32 - 2));
                let x = pick_in_shard(&mut rng, s);
                let y = pick_in_shard(&mut rng, s);
                (vec![x], vec![x, y])
            } else {
                // Read-only, anywhere.
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

/// Deterministic **uniform** workload: every transfer picks its two
/// accounts anywhere, so a candidate's neighbors are registered in
/// shards outside its own span.
fn make_uniform_scripts(n: usize, seed: u64) -> Vec<Script> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (x, y) = (rng.gen_range(0..ENTITIES), rng.gen_range(0..ENTITIES));
            Script {
                reads: vec![x, y],
                writes: vec![x, y],
                client_abort: i % 13 == 7,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Committed,
    SchedulerAborted,
    ClientAborted,
}

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

/// An engine of `shards` shards (1 for the twin reference), with GC
/// driven from the test.
fn mk_engine(shards: usize, record: bool) -> Engine {
    Engine::new(EngineConfig {
        shards,
        record_history: record,
        ..EngineConfig::default()
    })
}

/// The one-shard reference ran none of the cross-shard code it is
/// compared against: no escalation, no ghost, no GC lock set.
fn assert_took_no_cross_shard_path(m: &deltx_engine::MetricsSnapshot) {
    assert_eq!(m.escalated_ops, 0, "one shard never escalates: {m}");
    assert_eq!(m.gc_ghosts, 0, "one shard never ghosts: {m}");
    assert!(
        m.gc_closure_hist.iter().all(|&n| n == 0),
        "one shard takes no GC lock set: {m}"
    );
}

#[test]
fn partial_gc_decisions_match_full_scheduler_lockstep() {
    let e = mk_engine(SHARDS, true);
    let scripts = make_skewed_scripts(1500, run_seed(0x6C05));
    for (i, sc) in scripts.iter().enumerate() {
        run_script(&e, sc);
        if i % 7 == 0 {
            e.gc_sweep();
        }
    }
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.commits > 1000, "workload must make progress: {m}");
    assert!(m.gc_deletions > 400, "GC must be deleting mid-run: {m}");
    assert_eq!(
        m.gc_closure_hist, [0; 8],
        "every hot-pair candidate goes with the commit that overwrote it: {m}"
    );
    assert_eq!(m.boundary_underflows, 0, "counts stayed consistent");

    // Lockstep oracle: replay the linearized history into the full,
    // never-deleting scheduler; outcomes must agree exactly — any
    // ordering lost by a subset-locked deletion would accept a step
    // the full scheduler rejects.
    let h = e.recorded_history().expect("recording enabled");
    h.replay_full()
        .unwrap_or_else(|err| panic!("partial GC: {err}"));
}

/// Drives `scripts` through the sharded engine and a one-shard twin:
/// decision sequences must be equal, operation for operation, the
/// stores must converge to the same values, and the twin must have
/// taken no cross-shard path. Returns the sharded engine's metrics.
fn assert_twins_agree(scripts: &[Script]) -> deltx_engine::MetricsSnapshot {
    let a = mk_engine(SHARDS, false);
    let b = mk_engine(1, false);
    for (i, sc) in scripts.iter().enumerate() {
        let oa = run_script(&a, sc);
        let ob = run_script(&b, sc);
        assert_eq!(oa, ob, "decision diverged on script {i}: {sc:?}");
        if i % 9 == 0 {
            a.gc_sweep();
            b.gc_sweep();
        }
    }
    a.gc_sweep();
    b.gc_sweep();
    let (ma, mb) = (a.metrics(), b.metrics());
    assert_eq!(ma.commits, mb.commits);
    assert_eq!(ma.aborts_scheduler, mb.aborts_scheduler);
    for x in 0..ENTITIES {
        assert_eq!(a.peek(x), b.peek(x), "stores diverged at entity {x}");
    }
    assert_took_no_cross_shard_path(&mb);
    ma
}

#[test]
fn sharded_and_one_shard_gc_agree_on_every_decision() {
    let m = assert_twins_agree(&make_skewed_scripts(1500, run_seed(0xF6C)));
    assert!(m.gc_deletions > 400, "GC must be deleting mid-run: {m}");
    assert_eq!(
        m.gc_closure_hist, [0; 8],
        "identical decisions without one lock taken for GC: {m}"
    );
}

#[test]
fn uniform_traffic_twins_agree_with_closures_below_all_shards() {
    let m = assert_twins_agree(&make_uniform_scripts(1500, run_seed(0x0F1F)));
    assert!(m.gc_deletions > 400, "GC must be deleting mid-run: {m}");
    // The point of the own-span pass, in one line: identical decisions
    // with a strictly smaller mean GC closure than the all-shards sweep.
    assert!(m.gc_partial_sweeps > 0, "subset closures exercised: {m}");
    assert!(
        m.gc_closure_locks_taken < SHARDS as u64 * m.gc_closure_hist.iter().sum::<u64>(),
        "mean GC closure must be below all-shards: {m}"
    );
    // Every lock set taken for GC is one lead's registered span — two
    // shards or more, never a lone lock.
    assert_eq!(
        m.gc_closure_hist[0], 0,
        "every GC lock set is a lead's own span: {m}"
    );
}

#[test]
fn gc_closures_are_strict_on_skewed_traffic() {
    // Cross-shard deletions confined to the hot pair {0, 1} need no
    // lock of their own: whoever overwrites a hot-pair transaction is
    // a hot-pair committer, and its two locks are the closure.
    let e = mk_engine(SHARDS, false);
    let scripts = make_skewed_scripts(1200, run_seed(0x51));
    for (i, sc) in scripts.iter().enumerate() {
        run_script(&e, sc);
        if i % 11 == 0 {
            e.gc_sweep();
        }
    }
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.gc_deletions > 400, "the hot pair must be deleting: {m}");
    // This workload's cross traffic never leaves the hot pair, so every
    // closure is the committer's own span (the escalation strictness
    // test relies on the same property of its workload): the sweeps
    // above found nothing pending, and took no lock set.
    assert_eq!(
        m.gc_closure_hist, [0; 8],
        "no lock may be taken for GC on span-closed traffic: {m}"
    );
    assert_eq!(m.boundary_underflows, 0);
}

#[test]
fn subset_locked_deletion_preserves_cross_shard_ordering() {
    // Constructed so that ONE lost bridge flips a decision. Entities:
    // x = 0 (shard 0), y = 1 (shard 1), with 4 shards — the GC
    // closure for M below is {0, 1}, a strict subset.
    //
    //   T1 (active) reads x            — shard 0
    //   M  writes {x, y}, completes    — multi-shard, arc T1 -> M
    //   S  reads y, writes y           — shard 1, arc M -> S
    //   W  writes x                    — shard 0 (makes M noncurrent)
    //
    // Deleting M must materialize a ghost of T1 in shard 1 carrying
    // T1 -> S. Then T1 writing y would add S -> T1 — a cycle with the
    // preserved ordering — so the commit MUST abort. An engine that
    // dropped the bridge would accept it and break serializability.
    let e = mk_engine(SHARDS, true);
    let mut t1 = e.begin();
    t1.read(0).unwrap();

    let mut m = e.begin();
    m.write(0, 10);
    m.write(1, 11);
    m.commit().unwrap();

    let mut s = e.begin();
    s.read(1).unwrap();
    s.write(1, 12);
    s.commit().unwrap();

    let mut w = e.begin();
    w.write(0, 13);
    w.commit().unwrap();

    let before = e.metrics();
    e.gc_sweep();
    let after = e.metrics();
    assert!(
        after.gc_deletions > before.gc_deletions,
        "M must be reclaimed: {after}"
    );
    assert!(
        after.gc_partial_sweeps > before.gc_partial_sweeps,
        "M's closure is {{0, 1}} of 4 shards — must sweep partially: {after}"
    );
    assert!(after.gc_ghosts >= 1, "T1 must be ghosted into shard 1");

    // The preserved ordering forces the abort.
    t1.write(1, 99);
    assert!(
        t1.commit().is_err(),
        "T1 -> S ordering was lost by the subset-locked deletion"
    );

    // And the whole interleaving still replays through the full
    // scheduler outcome-for-outcome.
    let h = e.recorded_history().expect("recording enabled");
    h.replay_full().unwrap_or_else(|err| panic!("{err}"));
}

#[test]
fn one_shard_engine_takes_no_cross_shard_path() {
    // shards = 1, the twins' reference: every deletion is single-shard,
    // so nothing escalates, ghosts or locks a GC closure.
    let e = mk_engine(1, false);
    for i in 0..200 {
        let mut t = e.begin();
        let Ok(a) = t.read(i % 8) else { continue };
        t.write(i % 8, a + 1);
        let _ = t.commit();
        if i % 16 == 0 {
            e.gc_sweep();
        }
    }
    e.gc_sweep();
    let m = e.metrics();
    assert_took_no_cross_shard_path(&m);
    assert!(m.gc_deletions > 0);
}
