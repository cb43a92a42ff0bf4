//! The engine's headline guarantees, exercised under real concurrency:
//!
//! 1. **Replay equivalence** (Theorem 2): the linearized history an
//!    8-thread contended run records, replayed step-for-step through a
//!    single full (never-deleting) `CgState`, produces *identical*
//!    outcomes — so the sharded engine plus its GC is indistinguishable
//!    from the monolithic full scheduler.
//! 2. **Serializability**: the accepted subschedule of the run passes
//!    the ground-truth CSR test (`deltx_model::history::is_csr`).
//! 3. **Bounded memory**: under the engine's deletion rules the live graph
//!    stays `O(active sessions + entities)` no matter how many
//!    thousands of transactions flow through.

use deltx_engine::{live_graph_bound, run_seed, Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `threads` workers, each executing `txns` banking-style
/// transactions (read two balances, transfer between them). A
/// `cross_pct` fraction picks the two entities in different shards.
/// `shards` must match the engine's.
fn run_mix(
    e: &Engine,
    shards: u32,
    threads: usize,
    txns: usize,
    n_entities: u32,
    cross_pct: u32,
    seed: u64,
) {
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let e = &e;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + tid as u64);
                for i in 0..txns {
                    let (x, y) = if rng.gen_range(0u32..100) < cross_pct {
                        // Cross-shard pair.
                        (rng.gen_range(0..n_entities), rng.gen_range(0..n_entities))
                    } else {
                        // Same-shard pair: same residue class mod `shards`.
                        let s = rng.gen_range(0..shards);
                        let span = n_entities / shards;
                        (
                            s + shards * rng.gen_range(0..span),
                            s + shards * rng.gen_range(0..span),
                        )
                    };
                    let mut t = e.begin();
                    let a = match t.read(x) {
                        Ok(v) => v,
                        Err(_) => continue, // scheduler abort: retry next
                    };
                    let b = if x != y {
                        match t.read(y) {
                            Ok(v) => v,
                            Err(_) => continue,
                        }
                    } else {
                        0
                    };
                    if i % 17 == 0 {
                        t.abort(); // client rollback in the mix
                        continue;
                    }
                    // A true transfer: the sum of balances is an
                    // end-to-end serializability invariant.
                    let amount = rng.gen_range(1i64..10);
                    if x != y {
                        t.write(x, a - amount);
                        t.write(y, b + amount);
                    } else {
                        t.write(x, a); // self-transfer
                    }
                    let _ = t.commit(); // scheduler aborts are fine
                }
            });
        }
    });
}

#[test]
fn contended_run_replays_identically_and_stays_serializable() {
    let e = Engine::new(EngineConfig {
        shards: 4,
        record_history: true,
        ..EngineConfig::default()
    });
    run_mix(&e, 4, 8, 125, 16, 30, run_seed(0xBEEF));
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.commits > 100, "the mix must make progress: {m}");

    let h = e.recorded_history().expect("recording enabled");
    // 1. Replay through the full (never-deleting) scheduler.
    let full = h.replay_full().unwrap_or_else(|err| panic!("{err}"));
    // 2. The accepted subschedule is conflict-serializable.
    assert!(h.is_csr(&full), "accepted subschedule must be CSR");
}

#[test]
fn gc_under_churn_partial_sweeps_keep_graph_bounded_and_balances_exact() {
    // 8 threads commit cross-shard transfers, each deleting what it
    // overwrote under its own locks and running the closure-scoped
    // multi-shard pass when the backlog fills — deletions, ghost
    // bridging, and commits race on overlapping lock subsets.
    // Two end-to-end invariants must hold anyway: the live graph
    // stays O(active + entities), and the sum of balances is exactly
    // conserved (any mis-bridged deletion that let a stale ordering
    // slip through could admit a lost update).
    let n_entities = 32u32;
    let e = Engine::new(EngineConfig {
        shards: 4,
        record_history: false,
        ..EngineConfig::default()
    });
    run_mix(&e, 4, 8, 200, n_entities, 60, run_seed(0xC0FE));
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.commits > 400, "the mix must make progress: {m}");
    assert!(m.gc_deletions > 200, "GC must keep up under churn: {m}");
    assert_eq!(m.boundary_underflows, 0, "counts stayed consistent: {m}");
    // Balance conservation: every committed transfer moved value, so
    // the end-to-end sum must still be zero.
    let sum: i64 = (0..n_entities).map(|x| e.peek(x)).sum();
    assert_eq!(sum, 0, "transfers must conserve the total balance");
    // Live-graph bound: active sessions are gone, so what remains is
    // current transactions (≤ a few per recently-written entity) plus
    // cross-shard residue — it must not scale with the 1600 txns run.
    let bound = live_graph_bound(8, n_entities);
    assert!(
        (m.live_txns as usize) <= bound,
        "live graph escaped its bound: {} > {bound}",
        m.live_txns
    );
}

#[test]
fn more_than_64_shards_replay_identically_and_conserve_balances() {
    // Nothing in the engine is sized by a 64-bit shard mask: 65 shards
    // run cross transfers, span-scoped sweeps and grown-set retries
    // under the same oracles as 4.
    let (shards, n_entities) = (65u32, 130u32);
    let e = Engine::new(EngineConfig {
        shards: shards as usize,
        record_history: true,
        ..EngineConfig::default()
    });
    run_mix(&e, shards, 4, 150, n_entities, 60, run_seed(0x41));
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.commits > 300, "the mix must make progress: {m}");
    assert!(
        m.gc_ghosts > 0,
        "cross-shard bridges were materialized: {m}"
    );
    assert!(m.gc_partial_sweeps > 0, "own-span sweeps exercised: {m}");
    assert_eq!(m.boundary_underflows, 0, "counts stayed consistent: {m}");
    let sum: i64 = (0..n_entities).map(|x| e.peek(x)).sum();
    assert_eq!(sum, 0, "transfers must conserve the total balance");
    e.summary_audit().expect("reach masks exact in every shard");
    let h = e.recorded_history().expect("recording enabled");
    h.replay_full().unwrap_or_else(|err| panic!("{err}"));
}

#[test]
fn own_span_deletions_racing_on_disjoint_lock_sets_replay_identically() {
    // A multi-shard deletion holds only its candidate's own span, so two
    // passes with disjoint lock sets can ghost the same predecessor into
    // different shards at once, and a cycle check can read a span
    // another pass is growing. Only real threads interleave inside a
    // lock hold; mostly cross traffic over 8 shards makes both races
    // likely. Every oracle must hold anyway.
    let (shards, n_entities) = (8u32, 64u32);
    let e = Engine::new(EngineConfig {
        shards: shards as usize,
        record_history: true,
        ..EngineConfig::default()
    });
    run_mix(&e, shards, 8, 200, n_entities, 70, run_seed(0x5BA2));
    e.gc_sweep();
    let m = e.metrics();
    assert!(m.commits > 400, "the mix must make progress: {m}");
    assert!(
        m.gc_ghosts > 0,
        "cross-shard bridges were materialized: {m}"
    );
    assert!(
        m.gc_partial_sweeps > 0,
        "some GC lock set was smaller than all shards: {m}"
    );
    assert_eq!(m.boundary_underflows, 0, "counts stayed consistent: {m}");
    let sum: i64 = (0..n_entities).map(|x| e.peek(x)).sum();
    assert_eq!(sum, 0, "transfers must conserve the total balance");
    let bound = live_graph_bound(8, n_entities);
    assert!(
        (m.live_txns as usize) <= bound,
        "live graph escaped its bound: {} > {bound}",
        m.live_txns
    );
    e.summary_audit().expect("reach masks exact in every shard");
    let h = e.recorded_history().expect("recording enabled");
    let full = h.replay_full().unwrap_or_else(|err| panic!("{err}"));
    assert!(h.is_csr(&full), "accepted subschedule must be CSR");
}

#[test]
fn version_truncation_racing_reads_never_surfaces_stale_values() {
    // Every commit of the writer drops the version it overwrote (the
    // store keeps one value per entity) and deletes the previous
    // writer from the graph, current writer or not, *while* readers
    // keep opening sessions against the hot entity. Every read must
    // return some value the writer actually committed — and since the
    // writer commits a strictly increasing counter, each reader's
    // observations must be monotonically non-decreasing. An install or
    // a deletion that clipped the current version (or resurrected an
    // old one) breaks that order.
    let e = Engine::new(EngineConfig {
        shards: 2,
        record_history: false,
        ..EngineConfig::default()
    });
    let total = 2000i64;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 1..=total {
                let mut t = e.begin();
                let _ = t.read(0);
                t.write(0, i);
                t.commit().expect("sole writer cannot conflict");
            }
        });
        for _ in 0..3 {
            scope.spawn(|| {
                let mut last = 0i64;
                loop {
                    let mut t = e.begin();
                    let Ok(v) = t.read(0) else { continue };
                    t.abort();
                    assert!(
                        v >= last,
                        "read went backwards under truncation: {v} < {last}"
                    );
                    last = v;
                    if v == total {
                        return;
                    }
                }
            });
        }
        writer.join().unwrap();
    });
    e.gc_sweep();
    assert_eq!(e.peek(0), total, "newest version survived every sweep");
    let m = e.metrics();
    assert!(
        m.gc_source_deletions > 0,
        "the race must actually delete current writers: {m}"
    );
}

#[test]
fn live_graph_stays_bounded_under_noncurrent_gc() {
    let n_entities = 32u32;
    let e = Engine::new(EngineConfig {
        shards: 4,
        record_history: false,
        ..EngineConfig::default()
    });
    // Two long-running readers pin a few entities for the whole run —
    // the workload from Example 1 that makes unbounded growth easy.
    let mut pin1 = e.begin();
    pin1.read(0).unwrap();
    pin1.read(1).unwrap();
    let mut pin2 = e.begin();
    pin2.read(2).unwrap();
    pin2.read(3).unwrap();

    let mut rng = StdRng::seed_from_u64(run_seed(7));
    let total = 4000usize;
    // Bound: active sessions + one current txn per recently-written
    // entity + readers-of-current + in-flight multi-shard residue. The
    // point is it does NOT scale with `total`.
    let bound = live_graph_bound(3, n_entities);
    let mut peak_after_gc = 0usize;
    for i in 0..total {
        let x = rng.gen_range(0..n_entities);
        let y = rng.gen_range(0..n_entities);
        let mut t = e.begin();
        let Ok(a) = t.read(x) else { continue };
        t.write(x, a + 1);
        if y != x {
            t.write(y, i as i64);
        }
        let _ = t.commit();
        if i % 16 == 0 {
            e.gc_sweep();
            let nodes = e.graph_size().nodes;
            peak_after_gc = peak_after_gc.max(nodes);
            assert!(
                nodes <= bound,
                "live graph escaped its bound at txn {i}: {nodes} > {bound}"
            );
        }
    }
    e.gc_sweep();
    let m = e.metrics();
    assert!(
        m.gc_deletions as usize > total / 2,
        "GC must be doing the heavy lifting: only {} deletions",
        m.gc_deletions
    );
    assert!(
        (m.live_txns as usize) <= bound,
        "final live txns {} above bound {bound}",
        m.live_txns
    );
    assert!(
        m.gc_source_deletions > 0 && m.gc_source_deletions < m.gc_deletions,
        "the pinned readers leave work for both rules: {m}"
    );
    drop(pin1);
    drop(pin2);
}
