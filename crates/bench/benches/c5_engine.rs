//! C5: online engine throughput — the end-to-end cost of serving
//! transactions through the sharded conflict-graph scheduler, across
//! the axes that matter: GC policy (does deletion pay for itself?),
//! shard-locality (fast path vs escalated commits), and thread count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deltx_engine::{bench_report, DurabilityConfig, Engine, EngineConfig, GcPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 4;
const ENTITIES: u32 = 64;

/// Drives `txns` transfer transactions from `threads` workers.
fn drive(engine: &Engine, threads: usize, txns: usize, cross_pct: u32, seed: u64) {
    std::thread::scope(|scope| {
        for tid in 0..threads {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + tid as u64);
                for _ in 0..txns / threads {
                    let (x, y) = if rng.gen_range(0u32..100) < cross_pct {
                        (rng.gen_range(0..ENTITIES), rng.gen_range(0..ENTITIES))
                    } else {
                        let s = rng.gen_range(0..SHARDS as u32);
                        let span = ENTITIES / SHARDS as u32;
                        (
                            s + SHARDS as u32 * rng.gen_range(0..span),
                            s + SHARDS as u32 * rng.gen_range(0..span),
                        )
                    };
                    let mut t = engine.begin();
                    let Ok(a) = t.read(x) else { continue };
                    t.write(x, a + 1);
                    if y != x {
                        t.write(y, a);
                    }
                    let _ = t.commit();
                }
            });
        }
    });
}

/// Whether an untimed diagnostic pass should run under the current
/// CLI filter: true iff the (first positional) filter would select at
/// least one of `ids` — the same substring rule the stub criterion
/// harness applies to the timed benches.
fn runs_under_filter(ids: &[&str]) -> bool {
    std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .is_none_or(|f| ids.iter().any(|id| id.contains(&f)))
}

fn engine(gc: GcPolicy) -> Engine {
    Engine::new(EngineConfig {
        shards: SHARDS,
        gc,
        background_gc: false, // commit-path GC only: deterministic work
        record_history: false,
        ..EngineConfig::default()
    })
}

/// GC policy sweep: noncurrent GC vs no deletion, same workload. The
/// no-deletion engine pays ever-growing cycle checks; the GC'd one
/// stays flat — the paper's point, measured end to end.
fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("c5_engine/policy");
    let txns = 4_000;
    g.throughput(Throughput::Elements(txns as u64));
    for (name, gc) in [
        ("noncurrent", GcPolicy::Noncurrent),
        ("off", GcPolicy::Off),
        (
            "shard-local-c1",
            GcPolicy::ShardLocal(deltx_core::policy::PolicyKind::GreedyC1),
        ),
    ] {
        g.bench_function(BenchmarkId::new("gc", name), |b| {
            b.iter(|| {
                let e = engine(gc);
                drive(&e, 4, txns, 20, 1);
                e.gc_sweep();
                e.metrics().commits
            })
        });
    }
    g.finish();
}

/// Shard-locality sweep: 0% cross-shard traffic runs entirely on the
/// single-lock fast path; 100% serializes every commit through the
/// escalated union check.
fn bench_locality(c: &mut Criterion) {
    let mut g = c.benchmark_group("c5_engine/locality");
    let txns = 4_000;
    g.throughput(Throughput::Elements(txns as u64));
    for cross in [0u32, 20, 100] {
        g.bench_function(BenchmarkId::new("cross-pct", cross), |b| {
            b.iter(|| {
                let e = engine(GcPolicy::Noncurrent);
                drive(&e, 4, txns, cross, 2);
                e.metrics().commits
            })
        });
    }
    g.finish();
}

/// Drives a **skewed** cross-shard mix: `cross_pct` of transactions
/// transfer between the hot shard pair {0, 1}; the rest stay inside a
/// uniformly chosen single shard. Partial escalation should confine
/// the hot pair's commits to ~2 locks, leaving shards 2..N on the
/// single-lock fast path — all-locks escalation serializes everything.
fn drive_skewed(
    engine: &Engine,
    shards: usize,
    threads: usize,
    txns: usize,
    cross_pct: u32,
    seed: u64,
) {
    std::thread::scope(|scope| {
        for tid in 0..threads {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + tid as u64);
                let span = ENTITIES / shards as u32;
                for _ in 0..txns / threads {
                    let (x, y) = if rng.gen_range(0u32..100) < cross_pct {
                        // Hot pair: shard 0 <-> shard 1.
                        (
                            shards as u32 * rng.gen_range(0..span),
                            1 + shards as u32 * rng.gen_range(0..span),
                        )
                    } else {
                        let s = 2 + rng.gen_range(0..(shards as u32 - 2));
                        (
                            s + shards as u32 * rng.gen_range(0..span),
                            s + shards as u32 * rng.gen_range(0..span),
                        )
                    };
                    let mut t = engine.begin();
                    let Ok(a) = t.read(x) else { continue };
                    t.write(x, a + 1);
                    if y != x {
                        t.write(y, a);
                    }
                    let _ = t.commit();
                }
            });
        }
    });
}

/// The default engine (`partial`) or the all-locks baseline it is
/// compared against, with GC driven by the commit path only
/// (deterministic work).
fn ab_engine(shards: usize, partial: bool) -> Engine {
    let cfg = EngineConfig {
        shards,
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
}

/// Partial vs all-locks escalation on the skewed workload — the
/// headline comparison: escalated commits should lock a strict subset
/// of shards (~the hot pair) and stop serializing the fast-path
/// shards. Prints the escalated-subset-size metrics after the timed
/// runs so CI can publish them.
fn bench_escalation(c: &mut Criterion) {
    const ESC_SHARDS: usize = 8;
    let esc_engine = |partial: bool| ab_engine(ESC_SHARDS, partial);
    let mut g = c.benchmark_group("c5_engine/escalation");
    let txns = 4_000;
    g.throughput(Throughput::Elements(txns as u64));
    for (name, partial) in [("partial", true), ("all-locks", false)] {
        g.bench_function(BenchmarkId::new("skewed", name), |b| {
            b.iter(|| {
                let e = esc_engine(partial);
                drive_skewed(&e, ESC_SHARDS, 4, txns, 30, 4);
                e.metrics().commits
            })
        });
    }
    g.finish();
    // Diagnostic pass (untimed): publish the subset-size histogram.
    // Honors the CLI filter like the timed benches do — it runs iff
    // the filter selects either timed escalation bench.
    if !runs_under_filter(&[
        "c5_engine/escalation/skewed/partial",
        "c5_engine/escalation/skewed/all-locks",
    ]) {
        return;
    }
    let e = esc_engine(true);
    drive_skewed(&e, ESC_SHARDS, 4, txns, 30, 4);
    let m = e.metrics();
    eprintln!(
        "c5_engine/escalation subset metrics ({ESC_SHARDS} shards): \
         {} partial of {} acquisitions, mean {:.2} locks, hist {:?}, fallbacks {}",
        m.escalated_partial,
        m.escalated_subset_hist.iter().sum::<u64>(),
        m.escalated_locks_taken as f64 / m.escalated_subset_hist.iter().sum::<u64>().max(1) as f64,
        m.escalated_subset_hist,
        m.escalation_fallbacks,
    );
    eprintln!(
        "c5_engine/escalation summary metrics: {} updates, mean {:.0} ns, total {:?}, \
         hist {:?}, boundary index hwm {} slots, registry-slot contention {}",
        m.summary_updates,
        m.summary_update_nanos as f64 / m.summary_updates.max(1) as f64,
        std::time::Duration::from_nanos(m.summary_update_nanos),
        m.summary_update_hist,
        m.boundary_index_hwm,
        m.registry_slot_contention,
    );
}

/// Span-scoped vs stop-the-world multi-shard GC on the skewed
/// workload: the default deletion pass locks only the lead candidate's
/// own span (the hot pair), so cold fast-path shards are not paused
/// every ~32 multi-shard commits as they are on the all-locks
/// baseline (whose escalated commits take every lock too). Prints the
/// gc-closure-size metrics after the timed runs so CI can publish
/// them; the headline number is mean GC closure size < all-shards.
fn bench_gc_escalation(c: &mut Criterion) {
    const GC_SHARDS: usize = 8;
    let gc_engine = |partial: bool| ab_engine(GC_SHARDS, partial);
    let mut g = c.benchmark_group("c5_engine/gc_escalation");
    let txns = 4_000;
    g.throughput(Throughput::Elements(txns as u64));
    for (name, partial) in [("partial", true), ("all-locks", false)] {
        g.bench_function(BenchmarkId::new("skewed", name), |b| {
            b.iter(|| {
                let e = gc_engine(partial);
                drive_skewed(&e, GC_SHARDS, 4, txns, 30, 5);
                e.gc_sweep();
                e.metrics().gc_deletions
            })
        });
    }
    g.finish();
    // Diagnostic pass (untimed): publish the GC closure histogram.
    // Honors the CLI filter like the timed benches do.
    if !runs_under_filter(&[
        "c5_engine/gc_escalation/skewed/partial",
        "c5_engine/gc_escalation/skewed/all-locks",
    ]) {
        return;
    }
    let e = gc_engine(true);
    drive_skewed(&e, GC_SHARDS, 4, txns, 30, 5);
    e.gc_sweep();
    let m = e.metrics();
    let acqs = m.gc_closure_hist.iter().sum::<u64>();
    eprintln!(
        "c5_engine/gc_escalation closure metrics ({GC_SHARDS} shards): \
         {} partial of {} acquisitions, mean closure {:.2} locks \
         (all-shards = {GC_SHARDS}), hist {:?}, fallbacks {}, {} deletions",
        m.gc_partial_sweeps,
        acqs,
        m.gc_closure_locks_taken as f64 / acqs.max(1) as f64,
        m.gc_closure_hist,
        m.gc_closure_fallbacks,
        m.gc_deletions,
    );
}

/// How one summary-churn pass maintains its summary.
#[derive(Clone, Copy, PartialEq)]
enum SummaryMode {
    /// `CgState` boundary marks + incremental bitmask maintenance.
    Bitmask,
    /// Same, with each round's marks and fan-ins batched into one
    /// propagation (the engine's per-commit pattern).
    BitmaskBatched,
    /// No `CgState` marks at all (zero bitmask maintenance): the
    /// marked set lives outside and the summary is recomputed naively
    /// after every round — a pure set-based cost model, not stacked
    /// on top of the bitmask work.
    NaiveRecompute,
}

/// One steady-state summary churn pass over a single `CgState`: every
/// round begins a transaction, marks it boundary, fans in its Rule 2/3
/// arcs on a small hot entity set, and `D(G, N)`-deletes the oldest
/// boundary transaction once the window fills — the exact maintenance
/// pattern one hot cross-shard pair induces in a shard. Returns a
/// value derived from the summary so the work cannot be optimized out.
fn drive_summary_churn(rounds: usize, mode: SummaryMode) -> u64 {
    use deltx_core::CgState;
    use deltx_model::{Step, TxnId};
    let batched = mode == SummaryMode::BitmaskBatched;
    let marks = mode != SummaryMode::NaiveRecompute;
    let mut cg = CgState::new();
    let mut window: std::collections::VecDeque<TxnId> = std::collections::VecDeque::new();
    let mut sink = 0u64;
    for i in 0..rounds {
        let t = (i + 1) as u32;
        if batched {
            cg.begin_summary_batch();
        }
        cg.apply(&Step::begin(t)).unwrap();
        let _ = cg.apply(&Step::read(t, (i % 4) as u32));
        // This access pattern cannot cycle-abort, but keep the guard
        // structural: the batch is always closed, the window only
        // ever holds live transactions.
        if cg.node_of(TxnId(t)).is_some() {
            if marks {
                cg.set_boundary(TxnId(t), true);
            }
            let _ = cg.apply(&Step::write_all(t, [(i % 4) as u32]));
        }
        if batched {
            cg.end_summary_batch();
        }
        if cg.node_of(TxnId(t)).is_some() {
            window.push_back(TxnId(t));
        }
        if window.len() > 24 {
            let victim = window.pop_front().unwrap();
            if let Some(n) = cg.node_of(victim) {
                cg.delete(n).unwrap();
            }
        }
        if mode == SummaryMode::NaiveRecompute {
            // The shared oracle: a from-scratch per-event DFS recompute
            // into `BTreeSet`s — the set-based cost model the bitmask
            // summary replaces (the PR-2 incremental scanner sat
            // between this upper bound and the bitmask maintainer).
            let marked: Vec<TxnId> = window.iter().copied().collect();
            sink = sink.wrapping_add(cg.naive_boundary_reach(&marked).len() as u64);
        }
    }
    let pairs: usize = cg.boundary_reach_map().values().map(|r| r.len()).sum();
    sink.wrapping_add(pairs as u64)
}

/// Summary-maintenance micro-bench: mark/unmark/fan-in churn through
/// the bitmask summary (eager and commit-batched) against the naive
/// per-event `BTreeSet` recomputation baseline. The naive variant
/// runs with `CgState` marks disabled, so it pays *only* the
/// set-based cost (plus the shared scheduler base both variants pay)
/// — the ratio is not inflated by stacking the two maintainers. CI
/// publishes these numbers next to the escalation metrics — the
/// maintenance constant is exactly what the partial-locking tax is
/// made of.
fn bench_summary_maintenance(c: &mut Criterion) {
    let rounds = 2_000;
    let mut g = c.benchmark_group("c5_engine/summary_maintenance");
    g.throughput(Throughput::Elements(rounds as u64));
    g.bench_function("bitmask", |b| {
        b.iter(|| drive_summary_churn(rounds, SummaryMode::Bitmask))
    });
    g.bench_function("bitmask-batched", |b| {
        b.iter(|| drive_summary_churn(rounds, SummaryMode::BitmaskBatched))
    });
    g.bench_function("naive-recompute", |b| {
        b.iter(|| drive_summary_churn(rounds, SummaryMode::NaiveRecompute))
    });
    g.finish();
}

/// Durability tax and recovery speed: the same transfer mix with the
/// write-ahead log off vs on (group commit, no fsync — the protocol
/// cost, not the device's), then an untimed diagnostic pass that
/// crashes the durable engine, times `Engine::open` recovery, and
/// merges the headline numbers (group-commit batch size, mean GC
/// closure, recovery ms) into `BENCH_6.json` for CI to archive.
fn bench_durability(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static RUN: AtomicU64 = AtomicU64::new(0);
    let wal_dir = || {
        std::env::temp_dir().join(format!(
            "deltx-c5-wal-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, Ordering::Relaxed)
        ))
    };
    let durable_engine = |dir: &std::path::Path| {
        Engine::new(EngineConfig {
            shards: SHARDS,
            gc: GcPolicy::Noncurrent,
            background_gc: false,
            record_history: false,
            durability: Some(DurabilityConfig {
                fsync: false,
                ..DurabilityConfig::new(dir.to_path_buf())
            }),
            ..EngineConfig::default()
        })
    };
    let mut g = c.benchmark_group("c5_engine/durability");
    let txns = 4_000;
    g.throughput(Throughput::Elements(txns as u64));
    g.bench_function("wal-off", |b| {
        b.iter(|| {
            let e = engine(GcPolicy::Noncurrent);
            drive(&e, 4, txns, 20, 6);
            e.metrics().commits
        })
    });
    g.bench_function("wal-on", |b| {
        b.iter(|| {
            let dir = wal_dir();
            let e = durable_engine(&dir);
            drive(&e, 4, txns, 20, 6);
            let commits = e.metrics().commits;
            drop(e);
            let _ = std::fs::remove_dir_all(&dir);
            commits
        })
    });
    g.finish();
    // Diagnostic pass (untimed): group-commit economics + recovery
    // time, merged into BENCH_6.json. Honors the CLI filter like the
    // timed benches do.
    if !runs_under_filter(&[
        "c5_engine/durability/wal-off",
        "c5_engine/durability/wal-on",
    ]) {
        return;
    }
    let dir = wal_dir();
    let e = durable_engine(&dir);
    drive(&e, 4, txns, 20, 6);
    e.gc_sweep();
    let wal = e.wal_stats().expect("durable engine has a WAL");
    let m = e.metrics();
    drop(e);
    let t0 = std::time::Instant::now();
    let (recovered, report) = Engine::open(EngineConfig {
        shards: SHARDS,
        durability: Some(DurabilityConfig {
            fsync: false,
            ..DurabilityConfig::new(dir.clone())
        }),
        ..EngineConfig::default()
    })
    .expect("recovery must succeed");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let gc_acqs = m.gc_closure_hist.iter().sum::<u64>();
    let mean_closure = m.gc_closure_locks_taken as f64 / gc_acqs.max(1) as f64;
    eprintln!(
        "c5_engine/durability wal metrics: {} flushes / {} records \
         (mean batch {:.2}), {} segments created / {} truncated, \
         recovery {recovery_ms:.2} ms ({} commits replayed)",
        wal.flushes,
        wal.records,
        wal.mean_batch(),
        wal.segments_created,
        wal.segments_truncated,
        report.commits_replayed,
    );
    let bench_path =
        std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json"));
    if let Err(e) = bench_report::merge_json(
        &bench_path,
        &[
            ("bench_wal_mean_batch", format!("{:.2}", wal.mean_batch())),
            ("bench_recovery_ms", format!("{recovery_ms:.2}")),
            (
                "bench_recovery_commits_replayed",
                report.commits_replayed.to_string(),
            ),
            ("bench_mean_gc_closure", format!("{mean_closure:.2}")),
        ],
    ) {
        eprintln!("warning: could not write {}: {e}", bench_path.display());
    }
}

/// Thread scaling on a partitionable workload.
fn bench_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("c5_engine/threads");
    let txns = 4_000;
    g.throughput(Throughput::Elements(txns as u64));
    for threads in [1usize, 2, 4, 8] {
        g.bench_function(BenchmarkId::from_parameter(threads), |b| {
            b.iter(|| {
                let e = engine(GcPolicy::Noncurrent);
                drive(&e, threads, txns, 0, 3);
                e.metrics().commits
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_policies, bench_locality, bench_threads, bench_escalation,
        bench_gc_escalation, bench_summary_maintenance, bench_durability
}
criterion_main!(benches);
