//! Engine stress driver: N worker threads hammer the sharded engine
//! with a contended banking mix, each commit deleting what it made
//! deletable, so the conflict graph stays bounded with no GC thread.
//!
//! ```text
//! cargo run --release --example engine_stress                  # 8 threads, 10k txns
//! cargo run --release --example engine_stress -- 16 40000 64 30
//! #                       threads ───────────────┘    │    │  │
//! #                       total txns ────────────────-┘    │  │
//! #                       entities ────────────────────────┘  │
//! #                       cross-shard % ──────────────────────┘
//! #   flags (any order): "--contention": cross traffic hits many DISJOINT hot
//! #                       shard pairs (0↔1, 2↔3, …) instead of uniform pairs —
//! #                       span-closed traffic, whose escalations and
//! #                       multi-shard deletions lock two shards each
//! #                      "--durable": run with the write-ahead log enabled,
//! #                       then drop the engine, replay the log into a fresh
//! #                       one, and assert every balance survived the crash
//! #                       boundary byte-for-byte (recovery time is printed)
//! #                      "--fsync": like --durable, but with a real fsync
//! #                       after every batch write — benchmarks the device,
//! #                       not just the protocol. Prints per-flush p50/p99
//! #                       latency and the mean group-commit batch size
//! #                      "--scale-probe": instead of the stress run, three
//! #                       one-second closed loops of single-shard transfers
//! #                       (1 thread; 2 threads over all shards; 2 threads on
//! #                       disjoint shard halves) — prints txn/s and the
//! #                       shard-lock collision counters for each, so lock
//! #                       collisions (2-all vs 2-disjoint) can be told from
//! #                       shared-cache-line cost (2-disjoint vs 2 × 1),
//! #                       then the ratios "shared / disjoint" and
//! #                       "2 shared / 1 thread" (report only, no gate)
//! #                      "--seed N": fix the run's RNG seed (takes
//! #                       precedence over the DELTX_SEED env var); every
//! #                       failure message echoes the effective seed so any
//! #                       red run is replayable
//! ```
//!
//! Every transaction transfers between two accounts (read both, write
//! both), so the sum of all balances is an end-to-end serializability
//! invariant: any lost update or dirty interleaving would break it.
//! The driver asserts it, asserts the live graph stayed `O(active)`,
//! asserts zero boundary-count underflows, and prints the engine's
//! metrics. Only the node count is bounded: the engine's state bytes
//! still grow with history (ROADMAP.md, item 15). It writes no report:
//! the committed performance trajectory is `perf/` (see
//! `perf/README.md`).

use deltx_engine::{
    live_graph_bound, run_seed_arg, DurabilityConfig, Engine, EngineConfig, EngineError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One banking transaction: move `amount` from `x` to `y` (read both,
/// write both; `x == y` rewrites the balance unchanged).
fn transfer(engine: &Engine, x: u32, y: u32, amount: i64) -> Result<(), EngineError> {
    let mut t = engine.begin();
    let a = t.read(x)?;
    if y != x {
        let b = t.read(y)?;
        t.write(x, a - amount);
        t.write(y, b + amount);
    } else {
        t.write(x, a); // self-transfer
    }
    t.commit()
}

/// `--scale-probe`: what a second client costs, split by cause. Every
/// transfer stays inside one shard (fast path only), so the only
/// things two clients can share are a shard lock — when both may pick
/// the same shard — and cache lines.
fn scale_probe(seed: u64) {
    const SHARDS: u32 = 8;
    const PER_SHARD: u32 = 128;
    const RUN: Duration = Duration::from_secs(1);
    println!("scale probe: closed-loop single-shard transfers, {SHARDS} shards, {RUN:?} each [seed {seed}]");
    let mut rates = [0f64; 3];
    for (i, (label, threads, disjoint)) in [
        ("1 thread", 1u32, false),
        ("2 threads, all shards", 2, false),
        ("2 threads, disjoint shards", 2, true),
    ]
    .into_iter()
    .enumerate()
    {
        let engine = Engine::new(EngineConfig {
            shards: SHARDS as usize,
            ..EngineConfig::default()
        });
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..threads {
                let engine = &engine;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed + u64::from(tid));
                    let own = SHARDS / threads;
                    while t0.elapsed() < RUN {
                        let s = if disjoint {
                            tid * own + rng.gen_range(0..own)
                        } else {
                            rng.gen_range(0..SHARDS)
                        };
                        let x = s + SHARDS * rng.gen_range(0..PER_SHARD);
                        let y = s + SHARDS * rng.gen_range(0..PER_SHARD);
                        // A scheduler abort counts in the rate below, like
                        // a commit: either way the engine did the work.
                        let _ = transfer(engine, x, y, rng.gen_range(1i64..100));
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        let m = engine.metrics();
        rates[i] = (m.commits + m.aborts_scheduler) as f64 / secs;
        println!(
            "  {label:<27} {:>8.0} txn/s | collisions: {} won spinning, {} won yielding, {} parked",
            rates[i], m.shard_lock_spun, m.shard_lock_yielded, m.shard_lock_parked
        );
    }
    let [one, shared, disjoint] = rates;
    println!(
        "  shared / disjoint: {:.2} | 2 shared / 1 thread: {:.2}",
        shared / disjoint,
        shared / one
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--seed N` mirrors the DELTX_SEED env var (and wins over it);
    // pulled out before the positional parse since it takes a value.
    let mut cli_seed: Option<u64> = None;
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        match args.get(i + 1).and_then(|s| s.parse().ok()) {
            Some(v) => {
                cli_seed = Some(v);
                args.drain(i..=i + 1);
            }
            None => {
                eprintln!("--seed requires an integer value");
                std::process::exit(2);
            }
        }
    }
    // Known flags may appear anywhere; everything else must be one of
    // the (up to four) numeric positionals. Anything unrecognized is an
    // error, never a silent default.
    const FLAGS: [&str; 4] = ["--contention", "--durable", "--fsync", "--scale-probe"];
    let (flags, positional): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| FLAGS.contains(a));
    let mut numbers: [u32; 4] = [8, 10_000, 64, 25];
    let parsed: Option<Vec<u32>> = positional.iter().map(|a| a.parse().ok()).collect();
    match parsed {
        Some(given) if given.len() <= numbers.len() => {
            numbers[..given.len()].copy_from_slice(&given);
        }
        _ => {
            eprintln!(
                "bad arguments {positional:?}: expected up to four numbers \
                 `<threads> <txns> <entities> <cross_pct>` plus any of \
                 `--contention`, `--durable`, `--fsync`, `--scale-probe`, `--seed N`"
            );
            std::process::exit(2);
        }
    }
    let threads = numbers[0].max(1) as usize;
    let total_txns = numbers[1].max(1) as usize;
    let n_entities = numbers[2].max(1);
    let cross_pct = numbers[3].min(100);
    let contention: bool = flags.contains(&"--contention");
    let fsync: bool = flags.contains(&"--fsync");
    let durable: bool = flags.contains(&"--durable") || fsync;
    let shards = 8usize;
    let seed = run_seed_arg(cli_seed, 0xD17A);
    if flags.contains(&"--scale-probe") {
        return scale_probe(seed);
    }

    let wal_dir: Option<PathBuf> = durable.then(|| {
        let dir = std::env::temp_dir().join(format!("deltx-stress-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let durability = |dir: &PathBuf| DurabilityConfig {
        // Small segments so the long run exercises segment retirement
        // by supersession; fsync off (unless --fsync) so the default bench
        // measures the protocol, not the device.
        segment_bytes: 64 * 1024,
        fsync,
        ..DurabilityConfig::new(dir.clone())
    };

    let cfg = EngineConfig {
        shards,
        record_history: false,
        durability: wal_dir.as_ref().map(&durability),
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg);

    println!(
        "engine_stress: {threads} threads x {} txns, {n_entities} entities, \
         {shards} shards, {cross_pct}% cross-shard{}{}",
        total_txns / threads,
        if contention {
            " (contention mode: disjoint hot shard pairs)"
        } else {
            ""
        },
        if fsync {
            " (durable: WAL on, fsync per batch)"
        } else if durable {
            " (durable: WAL on)"
        } else {
            ""
        }
    );

    let committed = AtomicUsize::new(0);
    let aborted = AtomicUsize::new(0);
    let peak_nodes = AtomicUsize::new(0);
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        for tid in 0..threads {
            let engine = &engine;
            let committed = &committed;
            let aborted = &aborted;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + tid as u64);
                let per_thread = total_txns / threads;
                for _ in 0..per_thread {
                    let span = (n_entities / shards as u32).max(1);
                    let (x, y) = if rng.gen_range(0u32..100) < cross_pct {
                        if contention {
                            // Disjoint hot pairs: shard 2i <-> 2i+1.
                            // Each pair's closure is {2i, 2i+1}, so
                            // own-shards escalation never serializes two
                            // different pairs on the same locks.
                            let pair = rng.gen_range(0..shards as u32 / 2);
                            // The modulo only matters when entities <
                            // shards (keeps every account inside the
                            // balance-summed range).
                            (
                                (2 * pair + shards as u32 * rng.gen_range(0..span)) % n_entities,
                                (2 * pair + 1 + shards as u32 * rng.gen_range(0..span))
                                    % n_entities,
                            )
                        } else {
                            (rng.gen_range(0..n_entities), rng.gen_range(0..n_entities))
                        }
                    } else {
                        let s = rng.gen_range(0..shards as u32);
                        (
                            s + shards as u32 * rng.gen_range(0..span),
                            s + shards as u32 * rng.gen_range(0..span),
                        )
                    };
                    let amount = rng.gen_range(1i64..100);
                    let outcome = match transfer(engine, x, y, amount) {
                        Ok(()) => committed,
                        Err(_) => aborted,
                    };
                    outcome.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Sampler: watch the live graph while the workers run.
        let engine = &engine;
        let peak = &peak_nodes;
        let done = &committed;
        scope.spawn(move || {
            let target = total_txns;
            loop {
                std::thread::sleep(Duration::from_millis(5));
                let nodes = engine.graph_size().nodes;
                peak.fetch_max(nodes, Ordering::Relaxed);
                let m = engine.metrics();
                if (m.commits + m.aborts_scheduler + m.aborts_voluntary) as usize >= target
                    || done.load(Ordering::Relaxed) >= target
                {
                    return;
                }
            }
        });
    });

    let elapsed = t0.elapsed();
    engine.gc_sweep();
    let m = engine.metrics();

    // End-to-end value check: transfers conserve the total balance.
    let sum: i64 = (0..n_entities).map(|x| engine.peek(x)).sum();
    assert_eq!(
        sum, 0,
        "balance sum must be conserved (serializability) [seed {seed}]"
    );

    // Contention mode's sharper oracle: every hot pair's closure
    // {2i, 2i+1} is closed under its traffic (cross transfers stay in
    // the pair, same-shard transfers in one shard), so each pair must
    // conserve its own sum — a leak localizes the failure to one
    // closure, and the echoed seed makes the red run replayable. Only
    // meaningful when the entity universe tiles the shards evenly;
    // otherwise the `% n_entities` wrap bleeds across pairs.
    if contention && n_entities.is_multiple_of(shards as u32) {
        for pair in 0..shards as u32 / 2 {
            let pair_sum: i64 = (0..n_entities)
                .filter(|x| (x % shards as u32) / 2 == pair)
                .map(|x| engine.peek(x))
                .sum();
            assert_eq!(
                pair_sum,
                0,
                "hot pair {pair} (shards {}\u{2194}{}) leaked value across its \
                 closure [seed {seed}]",
                2 * pair,
                2 * pair + 1
            );
        }
        // The same closedness, as lock economics: a multi-shard
        // candidate's neighbors all live inside its pair. A pair
        // committer that overwrites it holds the whole closure and
        // deletes it on the spot; only a same-shard (one-lock)
        // overwriter leaves it to the standalone pass, which then locks
        // the pair and nothing else. So every lock set taken for GC —
        // a retry's included — is two shards, and with nothing but pair
        // traffic, none is taken at all.
        let acquisitions: u64 = m.gc_closure_hist.iter().sum();
        assert!(m.gc_deletions > 0, "nothing was deleted [seed {seed}]");
        assert_eq!(
            m.gc_closure_hist[1], acquisitions,
            "a hot pair's GC left its own span: closure hist {:?} [seed {seed}]",
            m.gc_closure_hist
        );
        assert!(
            cross_pct < 100 || acquisitions == 0,
            "pure pair traffic took {acquisitions} lock sets for GC [seed {seed}]"
        );
    }

    // Bookkeeping tripwire: the registry and the per-shard boundary
    // counts must never disagree.
    assert_eq!(
        m.boundary_underflows, 0,
        "boundary-count underflow: registry / shard-count drift [seed {seed}]"
    );

    // The paper's promise: live graph stays O(active), not O(history).
    let bound = live_graph_bound(threads, n_entities);
    let peak = peak_nodes.load(Ordering::Relaxed);
    assert!(
        peak <= bound,
        "peak live graph {peak} exceeded O(active) bound {bound} [seed {seed}]"
    );

    let secs = elapsed.as_secs_f64();
    let txn_s = (m.commits + m.aborts_scheduler) as f64 / secs;
    println!("\n== results ==");
    println!(
        "{} commits, {} scheduler aborts in {:.2}s  ({:.0} txn/s)",
        m.commits, m.aborts_scheduler, secs, txn_s
    );
    println!("peak live graph: {peak} nodes (bound {bound}) — live graph stayed O(active)");
    println!("\n{m}");

    if let Some(dir) = &wal_dir {
        // Crash boundary: snapshot what the clients could observe, drop
        // the engine (log is the only survivor), replay it into a fresh
        // engine, and demand byte-for-byte agreement.
        let expected: Vec<i64> = (0..n_entities).map(|x| engine.peek(x)).collect();
        let wal = engine.wal_stats().expect("durable run has a WAL");
        println!(
            "wal: {} flushes / {} records (mean batch {:.1}), {} segments truncated",
            wal.flushes,
            wal.records,
            wal.mean_batch(),
            wal.segments_truncated
        );
        if fsync {
            // The real-device numbers: what one fsync'd group commit
            // costs, and how many commits it amortizes over.
            let p50_us = wal.flush_quantile_nanos(0.50) as f64 / 1e3;
            let p99_us = wal.flush_quantile_nanos(0.99) as f64 / 1e3;
            println!(
                "fsync: flush p50 ~{p50_us:.0}us, p99 ~{p99_us:.0}us, \
                 mean batch {:.1} records/fsync",
                wal.mean_batch()
            );
        }
        drop(engine);

        let (recovered, report) = Engine::open(EngineConfig {
            shards,
            durability: Some(durability(dir)),
            ..EngineConfig::default()
        })
        .expect("recovery must succeed");
        let recovery_ms = report.elapsed.as_secs_f64() * 1e3;
        println!(
            "recovery: {} commits replayed from {} segments in {recovery_ms:.2}ms \
             (log bounded by supersession: survivors ≪ {} total commits)",
            report.commits_replayed, report.scan.segments_scanned, m.commits
        );
        for (x, want) in expected.iter().enumerate() {
            let got = recovered.peek(x as u32);
            assert_eq!(
                got, *want,
                "entity {x} diverged across recovery: {got} != {want} [seed {seed}]"
            );
        }
        assert!(
            wal.segments_truncated > 0 || m.commits < 2_000,
            "a long durable run must retire superseded log segments [seed {seed}]"
        );
        println!("recovery check passed: all {n_entities} balances survived the crash boundary");
        drop(recovered);
        let _ = std::fs::remove_dir_all(dir);
    }
}
