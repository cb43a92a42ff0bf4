//! Escalation oracle tests.
//!
//! The claim is that neither the per-operation fast-path gate (stay on
//! one lock when the transaction reaches no boundary node) nor
//! own-shards-first escalation (lock the transaction's own shards,
//! retake everything only when the BFS needs more) changes **any**
//! accept/reject decision. Two oracles check it:
//!
//! 1. **Lockstep against the full scheduler**: a randomized mixed
//!    single/multi-shard workload is replayed operation-by-operation
//!    into a monolithic, never-deleting [`CgState`]; every engine
//!    outcome (accept vs scheduler-abort) must match the full
//!    scheduler's — even while GC keeps deleting between steps
//!    (Theorem 2 lifts reduced-graph equivalence to the full graph).
//! 2. **A/B against one shard**: the identical workload driven through
//!    a one-shard twin engine must produce the identical outcome
//!    sequence and store. The twin is the reduced scheduler with no
//!    cross-shard machinery at all — no escalation, no ghost, no span
//!    registry, no reach mask — so the union cycle check restricted to
//!    the transaction's own shards must equal a plain local check.
//!
//! Both run over a randomized script mix (with parked long readers)
//! and over three constructed scenarios aimed at the gate: a parked
//! multi-shard reader, a three-transaction cycle the shard-local
//! check alone would accept, and an active transaction ghosted into a
//! second shard by a GC bridge. Plus regression coverage for the
//! boundary-count underflow fix.

use deltx_core::CgState;
use deltx_engine::{run_seed, Engine, EngineConfig, EngineError, Session};
use deltx_model::{Op, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 4;
const ENTITIES: u32 = 16;
/// Floor on the sharded twin's fast-path share of operations in the
/// scripted mix (≈ 0.72–0.74 over seeds).
const FAST_SHARE_MIN: f64 = 0.5;

/// One scripted transaction: which entities to read, which to write,
/// whether to roll back instead of committing, and how many later
/// scripts run while it stays open between its reads and its commit.
#[derive(Debug, Clone)]
struct Script {
    reads: Vec<u32>,
    writes: Vec<u32>,
    client_abort: bool,
    park: usize,
}

/// Deterministic mixed workload: single-shard, two-shard, and
/// scatter transactions, occasional voluntary rollbacks, and every
/// 97th script a **long reader** — 12 reads over all 4 shards, parked
/// across the next 25 scripts, every other one then writing back an
/// entity it read (which the traffic in between has usually
/// overwritten: a cycle through the reader).
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
            if i % 97 == 41 {
                let reads: Vec<u32> = (0..ENTITIES)
                    .filter(|x| (x / SHARDS as u32 + x + i as u32) % 4 != 1)
                    .collect();
                let writes = reads[..(i / 97) % 2].to_vec();
                return Script {
                    reads,
                    writes,
                    client_abort: false,
                    park: 25,
                };
            }
            Script {
                reads,
                writes,
                client_abort: i % 13 == 7,
                park: 0,
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

/// Runs a script's reads; `Err` is the decision if one of them aborted.
fn start_script(e: &Engine, sc: &Script) -> Result<Session, Outcome> {
    let mut t = e.begin();
    for &x in &sc.reads {
        if t.read(x).is_err() {
            return Err(Outcome::SchedulerAborted);
        }
    }
    Ok(t)
}

/// Finishes a started script: rollback, or stage the writes and commit.
fn finish_script(mut t: Session, sc: &Script) -> Outcome {
    if sc.client_abort {
        t.abort();
        return Outcome::ClientAborted;
    }
    for (i, &x) in sc.writes.iter().enumerate() {
        t.write(x, i as i64 + 1);
    }
    commit_outcome(t)
}

fn commit_outcome(t: Session) -> Outcome {
    match t.commit() {
        Ok(()) => Outcome::Committed,
        Err(EngineError::Aborted(_)) => Outcome::SchedulerAborted,
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

/// Drives `scripts` through every engine of `engines` in lockstep —
/// parked scripts stay open across the following `park` scripts —
/// sweeping each engine every `sweep_every` scripts and asserting that
/// all engines decide every script alike.
fn run_scripts(engines: &[&Engine], scripts: &[Script], sweep_every: usize) {
    // (due at script index, script, one open session per engine)
    let mut parked: Vec<(usize, &Script, Vec<Session>)> = Vec::new();
    let agree = |i: usize, sc: &Script, outs: &[Outcome]| {
        assert!(
            outs.iter().all(|o| *o == outs[0]),
            "decision diverged on script {i}: {sc:?}: {outs:?}"
        );
    };
    for (i, sc) in scripts.iter().enumerate() {
        let started: Vec<Result<Session, Outcome>> =
            engines.iter().map(|e| start_script(e, sc)).collect();
        if sc.park > 0 && started.iter().all(|r| r.is_ok()) {
            let sessions = started.into_iter().map(|r| r.ok().unwrap()).collect();
            parked.push((i + sc.park, sc, sessions));
        } else {
            let outs: Vec<Outcome> = started
                .into_iter()
                .map(|r| r.map_or_else(|o| o, |t| finish_script(t, sc)))
                .collect();
            agree(i, sc, &outs);
        }
        while parked.first().is_some_and(|p| p.0 <= i) {
            let (_, psc, sessions) = parked.remove(0);
            let outs: Vec<Outcome> = sessions
                .into_iter()
                .map(|t| finish_script(t, psc))
                .collect();
            agree(i, psc, &outs);
        }
        if i % sweep_every == 0 {
            engines.iter().for_each(|e| e.gc_sweep());
        }
    }
    for (_, psc, sessions) in parked {
        let outs: Vec<Outcome> = sessions
            .into_iter()
            .map(|t| finish_script(t, psc))
            .collect();
        agree(scripts.len(), psc, &outs);
    }
}

/// An engine of `shards` shards (1 for the twin reference), with GC
/// driven from the test.
fn mk_engine(shards: usize, record_history: bool) -> Engine {
    Engine::new(EngineConfig {
        shards,
        record_history,
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

/// Lockstep oracle: every recorded outcome of `e` must be the full,
/// never-deleting scheduler's own (Theorem 2).
fn assert_matches_full_scheduler(e: &Engine) {
    let h = e.recorded_history().expect("recording enabled");
    h.replay_full().unwrap_or_else(|err| panic!("{err}"));
}

#[test]
fn partial_escalation_decisions_match_full_scheduler_lockstep() {
    let e = mk_engine(SHARDS, true);
    let scripts = make_scripts(1200, run_seed(0xE5CA));
    run_scripts(&[&e], &scripts, 7);
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.commits > 800, "workload must make progress: {m}");
    assert!(
        m.escalated_partial > 100,
        "own-shards escalation must actually be exercised: {m}"
    );
    assert!(m.gc_deletions > 300, "GC must be deleting mid-run: {m}");
    assert_eq!(m.boundary_underflows, 0, "counts stayed consistent");
    assert_matches_full_scheduler(&e);
    e.summary_audit().expect("every node's reach mask exact");
}

#[test]
fn sharded_and_one_shard_engines_agree_on_every_decision() {
    // Identical deterministic workloads through the sharded engine and
    // a one-shard twin: the decision sequences must be equal,
    // operation for operation.
    let a = mk_engine(SHARDS, false);
    let b = mk_engine(1, false);
    let scripts = make_scripts(1500, run_seed(0xAB));
    run_scripts(&[&a, &b], &scripts, 11);
    let (ma, mb) = (a.metrics(), b.metrics());
    assert_eq!(ma.commits, mb.commits);
    assert_eq!(ma.aborts_scheduler, mb.aborts_scheduler);
    assert!(ma.escalated_partial > 100, "own-shard sets exercised: {ma}");
    assert_took_no_cross_shard_path(&mb);
    // Same committed values everywhere.
    for x in 0..ENTITIES {
        assert_eq!(a.peek(x), b.peek(x), "stores diverged at entity {x}");
    }
    // The point of the feature, in two lines: identical decisions with
    // most operations on the one-lock path, and escalations that take
    // fewer locks than the engine has.
    let fast_share = ma.fast_path_ops as f64 / (ma.fast_path_ops + ma.escalated_ops) as f64;
    assert!(
        fast_share > FAST_SHARE_MIN,
        "the per-operation gate must keep most operations fast: {fast_share:.3}: {ma}"
    );
    let locks_per_escalation = ma.escalated_locks_taken as f64 / ma.escalated_ops as f64;
    assert!(
        locks_per_escalation < SHARDS as f64,
        "own-shards escalation must take fewer than every lock: {locks_per_escalation:.2}: {ma}"
    );
}

/// Runs `scenario` on the sharded engine and on a one-shard twin (both
/// recording), demands identical decision vectors and stores, replays
/// both histories through the full scheduler, audits the sharded
/// engine's masks, and hands back its decisions. `scenario`'s flag is
/// `true` on the sharded engine, where its metric assertions belong.
fn on_twins(shards: usize, scenario: impl Fn(&Engine, bool) -> Vec<Outcome>) -> Vec<Outcome> {
    let (a, b) = (mk_engine(shards, true), mk_engine(1, true));
    let (da, db) = (scenario(&a, true), scenario(&b, false));
    assert_eq!(da, db, "sharded and one-shard engines decided differently");
    assert_took_no_cross_shard_path(&b.metrics());
    for e in [&a, &b] {
        assert_matches_full_scheduler(e);
        assert_eq!(e.metrics().boundary_underflows, 0);
    }
    for x in 0..2 * ENTITIES {
        assert_eq!(a.peek(x), b.peek(x), "stores diverged at entity {x}");
    }
    a.summary_audit().expect("every node's reach mask exact");
    da
}

#[test]
fn parked_reader_leaves_unrelated_writers_on_the_fast_path() {
    // A multi-shard reader (16 reads, 4 per shard) stays open while
    // single-shard transfers run on entities it read (0..16) and did
    // not read (16..32). Every shard then holds a boundary node, yet no
    // transfer reaches it: all of them must stay on the one-lock path.
    for reader_writes in [false, true] {
        let decisions = on_twins(SHARDS, |e, default_engine| {
            let transfer = |i: u32| {
                let s = i % SHARDS as u32;
                let x = s + SHARDS as u32 * (i / SHARDS as u32 % 8);
                let y = s + SHARDS as u32 * ((i / SHARDS as u32 + 3) % 8);
                let sc = Script {
                    reads: vec![x, y],
                    writes: vec![x, y],
                    client_abort: false,
                    park: 0,
                };
                finish_script(start_script(e, &sc).expect("reads accepted"), &sc)
            };
            // Warm-up, so the reader's reads see writers (arcs W -> R).
            let mut out: Vec<Outcome> = (0..32).map(transfer).collect();
            let mut reader = e.begin();
            for x in 0..16 {
                reader.read(x).expect("reader reads");
            }
            let parked = e.metrics();
            for i in 32..232 {
                out.push(transfer(i));
                if i % 20 == 0 {
                    e.gc_sweep();
                }
            }
            let m = e.metrics();
            if default_engine {
                assert_eq!(
                    m.fast_path_ops - parked.fast_path_ops,
                    3 * 200,
                    "2 reads + 1 commit per transfer, all sealed: {m}"
                );
                assert_eq!(m.escalated_ops, parked.escalated_ops, "{m}");
            }
            if reader_writes {
                // Entity 0 was overwritten while the reader was parked
                // (R -> W); writing it back adds W -> R: a cycle.
                reader.write(0, 7);
            }
            out.push(commit_outcome(reader));
            out
        });
        let want = if reader_writes {
            Outcome::SchedulerAborted
        } else {
            Outcome::Committed
        };
        assert_eq!(decisions.last(), Some(&want), "the reader's own commit");
        assert!(decisions[..decisions.len() - 1]
            .iter()
            .all(|o| *o == Outcome::Committed));
    }
}

#[test]
fn cycle_through_two_multi_shard_txns_is_caught_by_the_gate() {
    // T -> M(a) = M(b) -> N(b) = N(a) -> T, with T single-shard in a.
    // Shard a alone sees T -> M and N -> T — no cycle.
    let (xa, za, yb) = (0, SHARDS as u32, 1); // two entities of shard 0, one of shard 1
    let mut local = CgState::new();
    for st in [
        Step::begin(1),
        Step::read(1, xa),
        Step::begin(2),
        Step::write_all(2, [xa]),
        Step::begin(3),
        Step::write_all(3, [za]),
        Step::read(1, za),
    ] {
        let got = local.apply(&st).unwrap();
        assert_eq!(got, deltx_core::Applied::Accepted, "shard-local view");
    }
    let decisions = on_twins(SHARDS, |e, default_engine| {
        let mut t = e.begin();
        t.read(xa).unwrap();
        let mut m = e.begin();
        m.write(xa, 1); // T -> M in a
        m.write(yb, 1);
        m.commit().unwrap();
        let mut n = e.begin();
        n.read(yb).unwrap(); // M -> N in b
        n.write(za, 2);
        n.commit().unwrap();
        let before = e.metrics();
        let last_read = t.read(za); // N -> T in a closes the cycle
        let after = e.metrics();
        assert!(
            matches!(last_read, Err(EngineError::Aborted(_))),
            "T must self-abort: {last_read:?}"
        );
        assert_eq!(after.aborts_scheduler, before.aborts_scheduler + 1);
        if default_engine {
            assert_eq!(after.escalated_ops, before.escalated_ops + 1, "{after}");
            assert_eq!(after.fast_path_ops, before.fast_path_ops, "{after}");
            // Own shards {a} first; the BFS meets M, whose twin lives
            // in unlocked b: one fallback, retried under {a, b} — not
            // under every shard.
            assert_eq!(after.escalation_fallbacks, before.escalation_fallbacks + 1);
            assert_eq!(
                after.escalated_locks_taken,
                before.escalated_locks_taken + 1 + 2,
                "{after}"
            );
        }
        vec![Outcome::SchedulerAborted]
    });
    assert_eq!(decisions, [Outcome::SchedulerAborted]);
}

#[test]
fn ghosted_active_predecessor_leaves_the_fast_path() {
    // P (active, single-shard in a) precedes N (multi-shard {a, b}),
    // which precedes Q in b. Deleting N must bridge P -> Q, and the two
    // share no shard: GC ghosts the still-active P into b. P is now a
    // boundary transaction, so its next operation in a must escalate
    // and lock both of its shards.
    let (xa, za, yb) = (0, SHARDS as u32, 1);
    on_twins(SHARDS, |e, default_engine| {
        let mut p = e.begin();
        p.read(xa).unwrap();
        let mut n = e.begin();
        n.write(xa, 1); // P -> N in a
        n.write(yb, 1);
        n.commit().unwrap();
        let mut q = e.begin();
        q.read(yb).unwrap(); // N -> Q in b
        for x in [xa, yb] {
            let mut o = e.begin(); // overwrite: N becomes noncurrent
            o.write(x, 2);
            o.commit().unwrap();
        }
        e.gc_sweep();
        let before = e.metrics();
        p.read(za).unwrap();
        let after = e.metrics();
        if default_engine {
            assert_eq!(before.gc_ghosts, 1, "P ghosted into b: {before}");
            assert_eq!(after.fast_path_ops, before.fast_path_ops, "{after}");
            assert_eq!(after.escalated_ops, before.escalated_ops + 1, "{after}");
            assert_eq!(
                after.escalated_locks_taken,
                before.escalated_locks_taken + 2,
                "own shards = a plus the ghost's b"
            );
        }
        p.write(za, 3);
        p.commit().unwrap();
        q.commit().unwrap();
        e.gc_sweep();
        Vec::new() // every decision above is an `unwrap`
    });
}

#[test]
fn escalated_subsets_are_strict_on_skewed_traffic() {
    // Cross-shard traffic confined to shards {0, 1}: every escalated
    // acquisition should lock ~2 shards, never all 4, and single-shard
    // traffic on shards 2..4 must stay on the fast path.
    let e = mk_engine(SHARDS, false);
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
    assert!(m.escalated_partial > 50, "hot pair must lock subsets: {m}");
    // No acquisition beyond 2 locks, retries included: a stale set
    // grows only by the shards its BFS met, and every twin here lives
    // in the pair.
    let wide_acqs = m.escalated_subset_hist[2..].iter().sum::<u64>();
    assert_eq!(wide_acqs, 0, "subsets must stay at 2 locks: {m}");
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
    assert_matches_full_scheduler(&e);
}

#[test]
fn empty_write_set_commit_completes_ghost_spanning_txn() {
    // A read-only transaction that became multi-shard still commits
    // through the escalated path with an empty WriteAll in each shard.
    let e = Engine::new(EngineConfig {
        shards: 2,
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
