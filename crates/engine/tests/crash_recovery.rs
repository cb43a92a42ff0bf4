//! Crash-recovery fault injection: every [`CrashPoint`] in the WAL's
//! commit path is armed, tripped, and recovered from, and the
//! recovered engine must be **oracle-equivalent** — its replayed
//! history passes the same full-scheduler lockstep check the live
//! engine does, and every balance a client could have observed
//! survives the crash boundary.
//!
//! The crash contract under test:
//!
//! * A commit whose record was not yet durable when the crash hit
//!   returns an error to the client and is **absent** after recovery
//!   (`BeforeAppend`, `AfterAppendBeforeFlush`, `MidFlushTorn`).
//! * A commit whose record reached the disk but whose acknowledgement
//!   was lost (`AfterFlushBeforeVisibility`) also returns an error —
//!   but **is** applied after recovery. That asymmetry is inherent to
//!   write-ahead logging; the test pins it down instead of papering
//!   over it.
//! * Either way the recovered state is a transaction-consistent
//!   prefix: transfers conserve the total balance.

use deltx_engine::{
    run_seed, CrashPoint, DurabilityConfig, Engine, EngineConfig, ALL_CRASH_POINTS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Duration;

/// Self-cleaning per-test WAL directory.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "deltx-crash-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(dir: &TestDir, record_history: bool) -> EngineConfig {
    EngineConfig {
        shards: 4,
        record_history,
        durability: Some(DurabilityConfig {
            fsync: false, // crash points are simulated; no device needed
            ..DurabilityConfig::new(dir.0.clone())
        }),
        ..EngineConfig::default()
    }
}

/// The Theorem 2 lockstep oracle, applied to a *recovered* engine.
fn assert_oracle_equivalent(e: &Engine, ctx: &str) {
    let h = e.recorded_history().expect("recording enabled");
    h.replay_full()
        .unwrap_or_else(|err| panic!("[{ctx}] {err}"));
}

/// A deterministic transfer, mirrored client-side: `expected` tracks
/// what a client that only trusts *acknowledged* commits believes.
fn transfer(e: &Engine, expected: &mut [i64], x: u32, y: u32, amount: i64) -> bool {
    let mut t = e.begin();
    let (Ok(a), Ok(b)) = (t.read(x), t.read(y)) else {
        return false;
    };
    t.write(x, a - amount);
    t.write(y, b + amount);
    if t.commit().is_ok() {
        expected[x as usize] -= amount;
        expected[y as usize] += amount;
        true
    } else {
        false
    }
}

#[test]
fn every_crash_point_recovers_to_the_oracle_state() {
    let n = 16u32;
    for &cp in ALL_CRASH_POINTS.iter() {
        let ctx = format!("{cp:?}");
        let dir = TestDir::new(&format!("pt-{cp:?}"));
        let (e, _) = Engine::open(config(&dir, false)).expect("fresh open");

        // A deterministic pre-crash workload: single-threaded, so
        // every commit is acknowledged and the client mirror is
        // exact. Entities x and x+1 usually land in different
        // shards (shards=4), so escalated commits are exercised.
        let mut expected = vec![0i64; n as usize];
        for i in 0..60u32 {
            let x = (i * 7) % n;
            let y = (x + 1 + (i % 3)) % n;
            if x != y {
                assert!(
                    transfer(&e, &mut expected, x, y, 1 + (i % 5) as i64),
                    "[{ctx}] single-threaded commit cannot abort"
                );
            }
        }
        e.gc_sweep(); // deletions feed the WAL's checkpoint counters

        // Arm the crash and run the marker transfer. The client
        // sees a durability error at EVERY crash point — the
        // record was never acknowledged.
        e.inject_crash(cp);
        let mut t = e.begin();
        let a = t.read(0).expect("read before crash trips");
        let b = t.read(1).expect("read before crash trips");
        t.write(0, a - 7);
        t.write(1, b + 7);
        let err = t.commit().expect_err("commit must surface the crash");
        assert!(
            err.to_string().contains("durability"),
            "[{ctx}] expected a durability error, got: {err}"
        );
        drop(e);

        // Recover into a fresh engine and check the contract.
        let (r, report) = Engine::open(config(&dir, true)).expect("recovery must succeed");
        let marker_applied = cp == CrashPoint::AfterFlushBeforeVisibility;
        if marker_applied {
            expected[0] -= 7;
            expected[1] += 7;
        }
        for (x, want) in expected.iter().enumerate() {
            assert_eq!(
                r.peek(x as u32),
                *want,
                "[{ctx}] entity {x} diverged across recovery"
            );
        }
        let sum: i64 = (0..n).map(|x| r.peek(x)).sum();
        assert_eq!(sum, 0, "[{ctx}] recovery must land on a consistent prefix");
        assert!(
            report.commits_replayed > 0,
            "[{ctx}] the surviving log cannot be empty"
        );
        if cp == CrashPoint::MidFlushTorn {
            assert!(
                report.scan.torn_tail && report.scan.bytes_discarded > 0,
                "[{ctx}] a torn record must be detected and cut: {report:?}"
            );
        }

        // The recovered engine is a real engine: its replay
        // history passes the full-scheduler oracle, and continued
        // work on top of it stays exact.
        assert_oracle_equivalent(&r, &ctx);
        for i in 0..30u32 {
            let x = (i * 5) % n;
            let y = (x + 2) % n;
            if x != y {
                assert!(
                    transfer(&r, &mut expected, x, y, 3),
                    "[{ctx}] post-recovery"
                );
            }
        }
        for (x, want) in expected.iter().enumerate() {
            assert_eq!(
                r.peek(x as u32),
                *want,
                "[{ctx}] entity {x} diverged after post-recovery work"
            );
        }
    }
}

#[test]
fn crash_under_concurrent_load_recovers_conserved_balances() {
    let n = 32u32;
    let dir = TestDir::new("load");
    let cfg = EngineConfig {
        ..config(&dir, false)
    };
    let (e, _) = Engine::open(cfg).expect("fresh open");
    let seed = run_seed(0x0C4A);

    // 4 threads transfer at full speed; the main thread pulls the
    // plug mid-run. Workers treat durability errors like any other
    // failed commit and drain out.
    std::thread::scope(|scope| {
        for tid in 0..4u64 {
            let e = &e;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed + tid);
                for _ in 0..400 {
                    let x = rng.gen_range(0..n);
                    let y = rng.gen_range(0..n);
                    if x == y {
                        continue;
                    }
                    let mut t = e.begin();
                    let (Ok(a), Ok(b)) = (t.read(x), t.read(y)) else {
                        continue;
                    };
                    let amt = rng.gen_range(1i64..10);
                    t.write(x, a - amt);
                    t.write(y, b + amt);
                    let _ = t.commit();
                }
            });
        }
        std::thread::sleep(Duration::from_millis(5));
        e.inject_crash(CrashPoint::MidFlushTorn);
    });
    drop(e);

    let (r, report) = Engine::open(config(&dir, true)).expect("recovery");
    let sum: i64 = (0..n).map(|x| r.peek(x)).sum();
    assert_eq!(
        sum, 0,
        "a mid-load crash must still recover a consistent prefix \
         ({} commits replayed)",
        report.commits_replayed
    );
    assert_oracle_equivalent(&r, "load");
}

#[test]
fn gc_checkpointing_keeps_recovery_o_live_not_o_history() {
    // Thousands of commits churn a handful of entities; each record
    // supersedes the older records of the entities it writes, and a
    // sealed segment none of whose entities is current any more
    // retires (supersession is the checkpoint). Recovery must replay
    // only the surviving tail — O(entities), not O(history).
    let dir = TestDir::new("bounded");
    let cfg = EngineConfig {
        durability: Some(DurabilityConfig {
            segment_bytes: 512, // seal fast so retirement has targets
            fsync: false,
            ..DurabilityConfig::new(dir.0.clone())
        }),
        ..config(&dir, false)
    };
    let (e, _) = Engine::open(cfg).expect("fresh open");
    let n = 8u32;
    let total = 3000u32;
    let mut expected = vec![0i64; n as usize];
    for i in 0..total {
        let x = i % n;
        let y = (x + 1) % n;
        assert!(transfer(&e, &mut expected, x, y, 1), "sequential commit");
        if i % 64 == 0 {
            e.gc_sweep();
        }
    }
    e.gc_sweep();
    let wal = e.wal_stats().expect("durable run has a WAL");
    assert!(
        wal.segments_truncated > 0,
        "superseded log segments must retire: {wal:?}"
    );
    assert!(
        wal.segments_live < wal.segments_created,
        "live segments must be a strict subset of created ones: {wal:?}"
    );
    drop(e);

    let (r, report) = Engine::open(config(&dir, false)).expect("recovery");
    assert!(
        report.commits_replayed < u64::from(total) / 2,
        "recovery replayed {} of {total} commits — the log is not bounded",
        report.commits_replayed
    );
    for (x, want) in expected.iter().enumerate() {
        assert_eq!(
            r.peek(x as u32),
            *want,
            "entity {x} diverged across checkpointed recovery"
        );
    }
}

/// A log that retired a record when its transaction left the graph
/// lost seven of these eight values: every writer here has no
/// predecessor, so each leaves the graph at its own commit while it
/// still holds a current value. The log must keep each entity's newest
/// record anyway.
#[test]
fn a_current_writer_deleted_as_a_source_keeps_its_record() {
    let dir = TestDir::new("source-writers");
    let cfg = || EngineConfig {
        shards: 8,
        durability: Some(DurabilityConfig {
            segment_bytes: 512,
            fsync: false,
            ..DurabilityConfig::new(dir.0.clone())
        }),
        ..config(&dir, false)
    };
    let (e, _) = Engine::open(cfg()).expect("fresh open");
    let write = |x: u32| {
        let mut t = e.begin();
        t.write(x, 50);
        t.commit().expect("a blind write commits");
    };
    (0..8).for_each(write);
    (0..792).for_each(|_| write(0));
    let m = e.metrics();
    assert_eq!(m.graph.nodes, 0, "every writer left the graph");
    assert_eq!(m.gc_source_deletions, 800, "each as a source: {m}");
    let wal = e.wal_stats().expect("durable run has a WAL");
    assert!(wal.segments_truncated > 0, "e0's churn retires: {wal:?}");
    drop(e);
    let (r, report) = Engine::open(cfg()).expect("recovery");
    for x in 0..8 {
        assert_eq!(r.peek(x), 50, "entity {x} lost its value: {report:?}");
    }
}

#[test]
fn torn_write_at_any_offset_recovers_a_clean_prefix() {
    // The parameterized crash point: the marker commit's record is cut
    // at an arbitrary byte offset. Any strict prefix — even one that
    // ends exactly on the record header — must be detected, discarded,
    // and never half-applied; an offset clamped to the full record
    // length behaves like `AfterFlushBeforeVisibility` (durable but
    // unacknowledged). Byte-exact truncation accounting is pinned down
    // at the WAL layer (`wal_behavior`); this sweep proves the
    // *engine-level* contract end to end.
    let n = 16u32;
    // 0 = nothing of the record written; 1 and 9 = cuts inside and
    // just past the header; MAX clamps to the whole record.
    for &off in &[0u32, 1, 9, u32::MAX] {
        let ctx = format!("TornWriteAt({off})");
        let dir = TestDir::new(&format!("torn-{off}"));
        let (e, _) = Engine::open(config(&dir, false)).expect("fresh open");

        let mut expected = vec![0i64; n as usize];
        for i in 0..40u32 {
            let x = (i * 7) % n;
            let y = (x + 1 + (i % 3)) % n;
            if x != y {
                assert!(
                    transfer(&e, &mut expected, x, y, 1 + (i % 5) as i64),
                    "[{ctx}] single-threaded commit cannot abort"
                );
            }
        }

        e.inject_crash(CrashPoint::TornWriteAt(off));
        let mut t = e.begin();
        let a = t.read(0).expect("read before crash trips");
        let b = t.read(1).expect("read before crash trips");
        t.write(0, a - 7);
        t.write(1, b + 7);
        t.commit().expect_err("commit must surface the crash");
        drop(e);

        let (r, report) = Engine::open(config(&dir, true)).expect("recovery must succeed");
        // All-or-nothing: the marker is present exactly when the
        // cut covered the whole record (only the clamped offset).
        let marker_applied = off == u32::MAX;
        if marker_applied {
            expected[0] -= 7;
            expected[1] += 7;
        }
        for (x, want) in expected.iter().enumerate() {
            assert_eq!(
                r.peek(x as u32),
                *want,
                "[{ctx}] entity {x} diverged across recovery"
            );
        }
        let sum: i64 = (0..n).map(|x| r.peek(x)).sum();
        assert_eq!(sum, 0, "[{ctx}] recovery must land on a consistent prefix");
        if off > 0 && off != u32::MAX {
            assert!(
                report.scan.torn_tail && u64::from(off) == report.scan.bytes_discarded,
                "[{ctx}] the {off}-byte prefix must be cut exactly: {report:?}"
            );
        }
        assert_oracle_equivalent(&r, &ctx);
    }
}
