//! Behavior tests for the WAL in isolation: group commit ordering and
//! who flushes, recovery truncation, segment retirement by
//! supersession, and every crash point's on-disk image.

use deltx_model::{EntityId, TxnId};
use deltx_wal::{
    CrashPoint, DurabilityConfig, FaultSpec, FaultyStorage, FsStorage, RecoverPolicy,
    StorageResult, Wal, WalError, WalHealth, WalStorage, ALL_CRASH_POINTS,
};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// Fresh per-test directory under the system temp dir (no tempfile
/// crate in the offline workspace); removed on drop.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "deltx-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }

    fn cfg(&self) -> DurabilityConfig {
        DurabilityConfig::new(&self.0)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn commit_one(wal: &Wal, txn: u32, writes: &[(u32, i64)]) -> Result<u64, WalError> {
    let ws: Vec<(EntityId, i64)> = writes.iter().map(|&(x, v)| (EntityId(x), v)).collect();
    let lsn = wal.submit_commit(TxnId(txn), &ws, &[0])?;
    wal.wait_durable(lsn)?;
    Ok(lsn)
}

#[test]
fn commits_survive_reopen_in_lsn_order() {
    let dir = TestDir::new("reopen");
    {
        let (wal, commits, scan) = Wal::open(dir.cfg()).unwrap();
        assert!(commits.is_empty());
        assert_eq!(scan.max_lsn, 0);
        commit_one(&wal, 1, &[(0, 10)]).unwrap();
        commit_one(&wal, 2, &[(0, 20), (1, 5)]).unwrap();
        commit_one(&wal, 4, &[(1, 7)]).unwrap();
    }
    let (_wal, commits, scan) = Wal::open(dir.cfg()).unwrap();
    assert_eq!(
        commits.iter().map(|c| c.txn).collect::<Vec<_>>(),
        vec![TxnId(1), TxnId(2), TxnId(4)],
        "commits replay in LSN order"
    );
    assert!(commits.windows(2).all(|w| w[0].lsn < w[1].lsn));
    assert_eq!(commits[1].writes, vec![(EntityId(0), 20), (EntityId(1), 5)]);
    assert!(!scan.torn_tail);
}

#[test]
fn superseded_segments_retire_with_no_engine_call() {
    let dir = TestDir::new("truncate");
    let mut cfg = dir.cfg();
    cfg.segment_bytes = 128; // a couple of records per segment
    cfg.fsync = false;
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for i in 0..40u32 {
        commit_one(&wal, i, &[(i % 4, i as i64)]).unwrap();
    }
    // Nobody said which transactions the graph deleted: a sealed
    // segment goes once every entity it wrote has a newer durable
    // record.
    let stats = wal.stats();
    assert!(stats.segments_created > 0, "log rolled segments");
    assert!(
        stats.segments_truncated > 0,
        "superseded segments must be removed"
    );
    assert!(stats.segments_live < stats.segments_created + 1);
    drop(wal);
    // Recovery only sees the survivors, and every entity's newest
    // record is among them.
    let (_wal, commits, _) = Wal::open(cfg).unwrap();
    assert!(commits.len() < 40, "retired commits are gone");
    for newest in 36..40u32 {
        assert!(
            commits.iter().any(|c| c.txn == TxnId(newest)),
            "the newest write of e{} must survive",
            newest % 4
        );
    }
}

#[test]
fn a_segment_retires_in_the_flush_that_supersedes_its_last_entity() {
    let dir = TestDir::new("last-entity");
    let mut cfg = dir.cfg();
    cfg.segment_bytes = 2 * one_write_record_len(); // two records a segment
    cfg.fsync = false;
    let (wal, _, _) = Wal::open(cfg).unwrap();
    let on_disk = |seg: u64| dir.0.join(format!("{seg:08}.wal")).exists();
    commit_one(&wal, 1, &[(0, 10)]).unwrap(); // segment 0
    commit_one(&wal, 2, &[(1, 10)]).unwrap(); // segment 0
    commit_one(&wal, 3, &[(0, 20)]).unwrap(); // segment 1
    assert!(on_disk(0), "segment 0 still holds e1's newest write");
    commit_one(&wal, 4, &[(1, 20)]).unwrap(); // segment 1
    assert!(!on_disk(0), "both entities have newer durable records");
    assert_eq!(wal.stats().segments_truncated, 1);
}

#[test]
fn group_commit_batches_concurrent_sessions() {
    let dir = TestDir::new("batch");
    let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let wal = &wal;
            s.spawn(move || {
                for i in 0..20u32 {
                    commit_one(wal, t * 1000 + i, &[(t, i as i64)]).unwrap();
                }
            });
        }
    });
    let stats = wal.stats();
    assert_eq!(stats.records, 160);
    assert!(stats.flushes <= stats.records);
    assert_eq!(stats.batch_hist.iter().sum::<u64>(), stats.flushes);
    assert_eq!(stats.durable_lsn, 160);
}

#[test]
fn crash_points_leave_the_advertised_disk_image() {
    for cp in ALL_CRASH_POINTS {
        let dir = TestDir::new(&format!("crash-{cp:?}"));
        let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
        commit_one(&wal, 1, &[(0, 10)]).unwrap();
        commit_one(&wal, 2, &[(0, 20)]).unwrap();
        wal.arm_crash(cp);
        let err = commit_one(&wal, 3, &[(0, 30)]).unwrap_err();
        assert_eq!(err, WalError::Crashed);
        assert_eq!(wal.health(), WalHealth::Crashed);
        // Everything after the crash fails too.
        assert_eq!(
            wal.submit_commit(TxnId(4), &[(EntityId(0), 40)], &[0]),
            Err(WalError::Crashed)
        );
        drop(wal);

        let (_wal, commits, scan) = Wal::open(dir.cfg()).unwrap();
        let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
        match cp {
            CrashPoint::BeforeAppend | CrashPoint::AfterAppendBeforeFlush => {
                assert_eq!(replayed, vec![1, 2], "{cp:?}: lost record absent");
                assert!(!scan.torn_tail, "{cp:?}: clean tail");
            }
            CrashPoint::MidFlushTorn => {
                assert_eq!(replayed, vec![1, 2], "{cp:?}: torn record dropped");
                assert!(scan.torn_tail, "{cp:?}: tail was truncated");
                assert!(scan.bytes_discarded > 0);
            }
            CrashPoint::AfterFlushBeforeVisibility => {
                assert_eq!(replayed, vec![1, 2, 3], "{cp:?}: durable record replays");
                assert!(!scan.torn_tail);
            }
            CrashPoint::TornWriteAt(_) => {
                unreachable!("parameterized points are not in ALL_CRASH_POINTS")
            }
        }
    }
}

#[test]
fn torn_write_at_every_offset_recovers_the_valid_prefix() {
    // The record the crashed commit would append: lsn 3 (after two
    // clean commits), txn 3, one write, one shard — recomputed here so
    // the sweep can name every interesting cut offset exactly.
    let record = deltx_wal::encode_commit(3, TxnId(3), &[(EntityId(0), 30)], &[0]);
    let len = record.len() as u32;
    // Offsets crossing every structural boundary: nothing written,
    // inside the [len] prefix, inside the [crc], the exact header
    // boundary, one byte of payload, mid-payload, one byte short of
    // intact, and the full record.
    let offsets = [0, 1, 4, 7, 8, 9, len / 2, len - 1, len];
    for off in offsets {
        let dir = TestDir::new(&format!("torn-at-{off}"));
        let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
        commit_one(&wal, 1, &[(0, 10)]).unwrap();
        commit_one(&wal, 2, &[(0, 20)]).unwrap();
        wal.arm_crash(CrashPoint::TornWriteAt(off));
        let err = commit_one(&wal, 3, &[(0, 30)]).unwrap_err();
        assert_eq!(err, WalError::Crashed, "off {off}: client never acked");
        drop(wal);

        let (_wal, commits, scan) = Wal::open(dir.cfg()).unwrap();
        let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
        if off == len {
            // The full record made it to disk: exactly the
            // AfterFlushBeforeVisibility contract.
            assert_eq!(replayed, vec![1, 2, 3], "off {off}: intact record replays");
            assert!(!scan.torn_tail, "off {off}: nothing to cut");
        } else {
            assert_eq!(replayed, vec![1, 2], "off {off}: torn record dropped");
            if off == 0 {
                assert!(!scan.torn_tail, "off 0: nothing was written");
            } else {
                assert!(scan.torn_tail, "off {off}: tail truncated");
                assert_eq!(
                    scan.bytes_discarded,
                    u64::from(off),
                    "off {off}: exactly the torn bytes are cut"
                );
            }
        }
    }
}

#[test]
fn close_with_pending_submissions_flushes_and_acks_them() {
    // Shutdown ordering: submissions enqueued before close() are
    // drained by close() on the caller's thread, so their waiters are
    // acked Ok — close never strands an accepted record.
    let dir = TestDir::new("close-drain");
    let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
    let mut lsns = Vec::new();
    for i in 0..16u32 {
        lsns.push(
            wal.submit_commit(TxnId(i), &[(EntityId(0), i as i64)], &[0])
                .unwrap(),
        );
    }
    wal.close();
    for lsn in lsns {
        assert_eq!(wal.wait_durable(lsn), Ok(()), "drained records are acked");
    }
    drop(wal);
    let (_wal, commits, _) = Wal::open(dir.cfg()).unwrap();
    assert_eq!(commits.len(), 16, "every pre-close submission survived");
}

#[test]
fn waiters_for_uncovered_lsns_error_on_close_instead_of_hanging() {
    // Shutdown ordering, the other direction: a session blocked on an
    // LSN that will never be flushed must observe the close as an
    // error, not a hang.
    let dir = TestDir::new("close-waiter");
    let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
    commit_one(&wal, 1, &[(0, 1)]).unwrap();
    std::thread::scope(|s| {
        let wal = &wal;
        let waiter = s.spawn(move || wal.wait_durable(u64::MAX));
        // Give the waiter time to park before pulling the plug; the
        // assertion holds either way, the sleep just makes the race
        // interesting.
        std::thread::sleep(std::time::Duration::from_millis(10));
        wal.close();
        assert_eq!(
            waiter.join().unwrap(),
            Err(WalError::Closed),
            "the waiter must be woken with an error when the log closes"
        );
    });
}

#[test]
fn midlog_corruption_refuses_strict_and_quarantines_on_request() {
    // Corruption in a sealed mid-log segment is not a crash artifact
    // (valid records survive *after* it), so recovery must never
    // silently truncate: Strict refuses loudly, Quarantine moves the
    // segment aside and reports the precise lost LSN range.
    let dir = TestDir::new("midlog");
    let mut cfg = dir.cfg();
    cfg.segment_bytes = 64;
    {
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        // One entity each: no record is superseded, none retires.
        for i in 0..12u32 {
            commit_one(&wal, i, &[(i, i as i64)]).unwrap();
        }
    }
    // Corrupt the middle segment by flipping a byte in its interior.
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    segs.sort();
    assert!(segs.len() >= 3, "need several segments, got {}", segs.len());
    let victim = &segs[1];
    let victim_id: u64 = victim
        .file_stem()
        .unwrap()
        .to_string_lossy()
        .parse()
        .unwrap();
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(victim, &bytes).unwrap();

    // Strict (the default): refuse, naming the segment and the escape
    // hatch; nothing on disk is modified.
    let err = match Wal::open(cfg.clone()) {
        Err(e) => e,
        Ok(_) => panic!("strict recovery must refuse mid-log corruption"),
    };
    let msg = err.to_string();
    assert!(msg.contains("Quarantine"), "error names the opt-in: {msg}");
    assert!(
        msg.contains(&format!("{victim_id:08}")),
        "error names the damaged segment: {msg}"
    );
    assert!(victim.exists(), "strict refusal must not touch the disk");

    // Quarantine: open with the survivors and an accurate report.
    let mut qcfg = cfg.clone();
    qcfg.recover = RecoverPolicy::Quarantine;
    let (_wal, commits, scan) = Wal::open(qcfg).unwrap();
    assert_eq!(scan.quarantined.len(), 1, "exactly one segment damaged");
    let q = &scan.quarantined[0];
    assert_eq!(q.segment, victim_id);
    assert!(
        q.resume_at > q.lost_after + 1,
        "the gap holds at least one lost LSN: {q:?}"
    );
    assert!(!commits.is_empty());
    assert!(commits.windows(2).all(|w| w[0].lsn < w[1].lsn));
    assert!(
        commits
            .iter()
            .all(|c| c.lsn <= q.lost_after || c.lsn >= q.resume_at),
        "no replayed commit may sit inside the reported gap"
    );
    assert!(
        dir.0.join(format!("{victim_id:08}.quarantine")).exists(),
        "the damaged segment is kept for forensics, not deleted"
    );
}

#[test]
fn transient_append_errors_are_absorbed_by_bounded_retry() {
    let dir = TestDir::new("transient");
    let mut cfg = dir.cfg();
    let fs: Arc<dyn WalStorage> = Arc::new(FsStorage::new(&dir.0));
    cfg.storage = Some(Arc::new(FaultyStorage::new(
        fs,
        FaultSpec {
            transient_append_at: Some((1, 2)),
            ..FaultSpec::default()
        },
    )));
    let (wal, _, _) = Wal::open(cfg).unwrap();
    for i in 0..4u32 {
        commit_one(&wal, i, &[(0, i as i64)]).unwrap();
    }
    assert_eq!(wal.health(), WalHealth::Ok, "retry absorbed the fault");
    let stats = wal.stats();
    assert_eq!(stats.append_retries, 2, "both injected errors retried");
    drop(wal);
    let (_wal, commits, _) = Wal::open(dir.cfg()).unwrap();
    assert_eq!(commits.len(), 4, "every acked commit survived");
}

#[test]
fn fsync_failure_poisons_the_log_fail_stop() {
    let dir = TestDir::new("poison");
    let mut cfg = dir.cfg();
    let fs: Arc<dyn WalStorage> = Arc::new(FsStorage::new(&dir.0));
    cfg.storage = Some(Arc::new(FaultyStorage::new(
        fs,
        FaultSpec {
            fsync_fail_at: Some(1),
            ..FaultSpec::default()
        },
    )));
    let (wal, _, _) = Wal::open(cfg).unwrap();
    commit_one(&wal, 1, &[(0, 10)]).unwrap(); // fsync 0 succeeds
    let err = commit_one(&wal, 2, &[(0, 20)]).unwrap_err();
    assert!(
        matches!(err, WalError::Poisoned(_)),
        "the waiter sees the poisoning, got {err:?}"
    );
    assert_eq!(wal.health(), WalHealth::Poisoned);
    // Fail-stop: nothing is accepted after the poisoning, and the
    // error keeps naming the root cause.
    assert!(matches!(
        wal.submit_commit(TxnId(3), &[(EntityId(0), 30)], &[0]),
        Err(WalError::Poisoned(_))
    ));
    // Already-durable records still report success.
    assert_eq!(wal.wait_durable(1), Ok(()));
    drop(wal);
    // The un-synced record died with the kernel's dirty pages; the
    // synced prefix recovers cleanly.
    let (_wal, commits, _) = Wal::open(dir.cfg()).unwrap();
    let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
    assert_eq!(replayed, vec![1], "only the synced commit survives");
}

/// Size of the one-write commit record every sizing test below uses.
fn one_write_record_len() -> u64 {
    deltx_wal::encode_commit(1, TxnId(0), &[(EntityId(0), 0)], &[0]).len() as u64
}

/// A log on a device that holds exactly two one-write records, one
/// per segment, of which `fill` are written (each to its own entity,
/// so neither supersedes the other), with `fsync` off.
fn wal_on_a_small_device(dir: &TestDir, fill: u32) -> Wal {
    let rec = one_write_record_len();
    let mut cfg = dir.cfg();
    cfg.segment_bytes = rec; // every record rolls to its own segment
    cfg.fsync = false;
    let fs: Arc<dyn WalStorage> = Arc::new(FsStorage::new(&dir.0));
    cfg.storage = Some(Arc::new(FaultyStorage::new(
        fs,
        FaultSpec {
            capacity: Some(2 * rec), // room for exactly two records
            ..FaultSpec::default()
        },
    )));
    let (wal, _, _) = Wal::open(cfg).unwrap();
    for t in 0..fill {
        commit_one(&wal, t, &[(t, 1)]).unwrap();
    }
    wal
}

#[test]
fn crash_armed_while_the_flush_is_parked_does_not_deadlock_the_rescue() {
    // The hazard of flushing on a waiter: an armed crash executes
    // inside `submit_commit` under the submitter's shard locks and
    // waits for the running flush. A waiter whose append parked on the
    // full device must have released the flush before it sleeps out
    // the backoff and retries, or the crash would wait on it for as
    // long as the device stays full. The device holds two records
    // that supersede nothing, so the parked append finds no space for
    // the whole escalation window.
    let dir = TestDir::new("park-crash");
    let wal = Arc::new(wal_on_a_small_device(&dir, 2));
    let lsn = wal
        .submit_commit(TxnId(2), &[(EntityId(0), 3)], &[0])
        .unwrap();
    let (wait_tx, wait_rx) = mpsc::channel();
    let waiter = {
        let wal = Arc::clone(&wal);
        std::thread::spawn(move || wait_tx.send(wal.wait_durable(lsn)).unwrap())
    };
    let mut waited = 0;
    while !wal.space_pressure() {
        std::thread::sleep(Duration::from_millis(1));
        waited += 1;
        assert!(waited < 1000, "the waiting flusher never parked");
    }
    wal.arm_crash(CrashPoint::BeforeAppend);
    let (crash_tx, crash_rx) = mpsc::channel();
    let submitter = {
        let wal = Arc::clone(&wal);
        std::thread::spawn(move || {
            let r = wal.submit_commit(TxnId(3), &[(EntityId(0), 4)], &[0]);
            crash_tx.send(r).unwrap();
        })
    };
    let hang = Duration::from_secs(20);
    assert_eq!(
        crash_rx
            .recv_timeout(hang)
            .expect("the crash waited on the parked flush"),
        Err(WalError::Crashed)
    );
    assert_eq!(
        wait_rx
            .recv_timeout(hang)
            .expect("the waiter hung after the crash"),
        Err(WalError::Crashed),
        "the parked record was never acknowledged"
    );
    submitter.join().unwrap();
    waiter.join().unwrap();
    assert_eq!(wal.health(), WalHealth::Crashed);
}

#[test]
fn parked_append_wakes_its_waiter_whose_rescue_frees_the_segment() {
    // Graceful ENOSPC degradation with nothing but the log: one
    // waiter's batch holds T1, which supersedes T0's segment, and T2,
    // which does not fit beside T0 and T1. The flush appends T1, parks
    // T2, and makes T1 durable anyway — which retires T0's segment and
    // frees the bytes T2 needs. The waiter sleeps out the backoff and
    // leads the retry itself; no error ever surfaces.
    let dir = TestDir::new("self-rescue");
    let wal = wal_on_a_small_device(&dir, 1);
    wal.submit_commit(TxnId(1), &[(EntityId(0), 2)], &[0])
        .unwrap();
    let lsn = wal
        .submit_commit(TxnId(2), &[(EntityId(1), 3)], &[0])
        .unwrap();
    assert_eq!(wal.wait_durable(lsn), Ok(()), "the parked append completed");
    assert_eq!(wal.health(), WalHealth::Ok);
    assert_eq!(wal.stats().segments_truncated, 1, "T0's segment");
    drop(wal);
    let (_wal, commits, _) = Wal::open(dir.cfg()).unwrap();
    let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
    assert_eq!(replayed, vec![1, 2], "the parked commit survives reopen");
}

#[test]
fn enospc_at_a_roll_boundary_with_nothing_to_free_fails_stop() {
    // The other half of the ENOSPC contract: when no durable record
    // supersedes anything, the escalation window closes and the log
    // fail-stops with a precise error — no hang, no panic, waiters
    // all released.
    let dir = TestDir::new("enospc-stop");
    let rec = one_write_record_len();
    let mut cfg = dir.cfg();
    cfg.segment_bytes = rec;
    cfg.fsync = false;
    let fs: Arc<dyn WalStorage> = Arc::new(FsStorage::new(&dir.0));
    cfg.storage = Some(Arc::new(FaultyStorage::new(
        fs,
        FaultSpec {
            capacity: Some(rec),
            ..FaultSpec::default()
        },
    )));
    let (wal, _, _) = Wal::open(cfg).unwrap();
    commit_one(&wal, 0, &[(0, 1)]).unwrap();
    // The next record starts a fresh segment — ENOSPC exactly at the
    // roll boundary.
    let lsn = wal
        .submit_commit(TxnId(1), &[(EntityId(0), 2)], &[0])
        .unwrap();
    assert_eq!(wal.wait_durable(lsn), Err(WalError::NoSpace));
    assert_eq!(wal.health(), WalHealth::NoSpace);
    assert_eq!(
        wal.submit_commit(TxnId(2), &[(EntityId(0), 3)], &[0]),
        Err(WalError::NoSpace),
        "submissions after the fail-stop name the root cause"
    );
    drop(wal);
    let (_wal, commits, _) = Wal::open(dir.cfg()).unwrap();
    let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
    assert_eq!(replayed, vec![0], "the refused record is simply absent");
}

#[test]
fn zero_length_trailing_segment_is_dropped_on_reopen() {
    let dir = TestDir::new("zero-tail");
    {
        let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
        commit_one(&wal, 1, &[(0, 10)]).unwrap();
        commit_one(&wal, 2, &[(1, 20)]).unwrap();
    }
    // A crash can leave a freshly-rolled segment at zero bytes.
    std::fs::File::create(dir.0.join("00000050.wal")).unwrap();
    let (_wal, commits, scan) = Wal::open(dir.cfg()).unwrap();
    assert_eq!(commits.len(), 2, "real commits unaffected");
    assert!(!scan.torn_tail, "an empty file is not a torn tail");
    assert!(scan.segments_dropped >= 1, "the empty segment is dropped");
    assert!(!dir.0.join("00000050.wal").exists());
}

#[test]
fn unreadable_sealed_segment_refuses_then_quarantines() {
    let dir = TestDir::new("unreadable");
    let mut cfg = dir.cfg();
    cfg.segment_bytes = 64;
    {
        let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
        // One entity each: no record is superseded, none retires.
        for i in 0..12u32 {
            commit_one(&wal, i, &[(i, i as i64)]).unwrap();
        }
    }
    // Make a sealed mid-log segment unreadable through the VFS.
    let fs: Arc<dyn WalStorage> = Arc::new(FsStorage::new(&dir.0));
    let faulty: Arc<dyn WalStorage> = Arc::new(FaultyStorage::new(
        fs,
        FaultSpec {
            open_fail_seg: Some(1),
            ..FaultSpec::default()
        },
    ));
    let mut scfg = cfg.clone();
    scfg.storage = Some(Arc::clone(&faulty));
    let err = match Wal::open(scfg) {
        Err(e) => e,
        Ok(_) => panic!("strict recovery must refuse an unreadable segment"),
    };
    assert!(
        err.to_string().contains("unreadable"),
        "strict refusal names the read failure: {err}"
    );
    let mut qcfg = cfg.clone();
    qcfg.storage = Some(faulty);
    qcfg.recover = RecoverPolicy::Quarantine;
    let (_wal, commits, scan) = Wal::open(qcfg).unwrap();
    assert_eq!(scan.quarantined.len(), 1);
    assert_eq!(scan.quarantined[0].segment, 1);
    assert!(!commits.is_empty(), "readable segments still replay");
    assert!(dir.0.join("00000001.quarantine").exists());
}

#[test]
fn double_close_is_idempotent_and_post_close_submissions_fail() {
    let dir = TestDir::new("double-close");
    let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
    commit_one(&wal, 1, &[(0, 1)]).unwrap();
    wal.close();
    wal.close(); // second close must be a no-op, not a deadlock/panic
    assert_eq!(
        wal.submit_commit(TxnId(2), &[(EntityId(0), 2)], &[0]),
        Err(WalError::Closed)
    );
    drop(wal); // Drop runs close a third time
    let (_wal, commits, _) = Wal::open(dir.cfg()).unwrap();
    assert_eq!(commits.len(), 1);
}

#[test]
fn unflushed_batch_waiters_observe_the_crash() {
    let dir = TestDir::new("waiters");
    let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
    commit_one(&wal, 1, &[(0, 1)]).unwrap();
    wal.arm_crash(CrashPoint::BeforeAppend);
    assert_eq!(
        commit_one(&wal, 2, &[(0, 2)]).unwrap_err(),
        WalError::Crashed
    );
    // A waiter for an LSN the log never flushed must not hang.
    assert_eq!(wal.wait_durable(u64::MAX), Err(WalError::Crashed));
    // But already-durable LSNs still report success.
    assert_eq!(wal.wait_durable(1), Ok(()));
}

/// The log keeps a record while it is current, whatever the engine's
/// graph did with its transaction — the engine deletes current writers
/// that have no predecessor, and once the log retired such a writer's
/// only record (seven of eight values lost). A crash must not change
/// that: recovery re-derives the counts from what survived, and a
/// supersessor the crash refused supersedes nothing.
#[test]
fn a_record_holding_a_current_value_never_retires_even_across_a_crash() {
    let dir = TestDir::new("retire-post-crash");
    let mut cfg = dir.cfg();
    cfg.segment_bytes = 64; // roughly one record per segment
    let (wal, _, _) = Wal::open(cfg.clone()).unwrap();
    for t in 0..6u32 {
        commit_one(&wal, t, &[(t, i64::from(t))]).unwrap();
    }
    // Churn on e6 seals and retires segment after segment around them.
    for k in 0..10u32 {
        commit_one(&wal, 10 + k, &[(6, i64::from(k))]).unwrap();
    }
    assert!(
        wal.stats().segments_truncated >= 9,
        "e6's old writes retire"
    );
    wal.arm_crash(CrashPoint::MidFlushTorn);
    let everything: Vec<(u32, i64)> = (0..7).map(|x| (x, 60)).collect();
    assert_eq!(
        commit_one(&wal, 20, &everything).unwrap_err(),
        WalError::Crashed
    );
    drop(wal);

    // Every current value survives recovery; the torn supersessor
    // superseded nothing.
    let (wal, commits, _) = Wal::open(cfg.clone()).unwrap();
    let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
    assert_eq!(replayed, vec![0, 1, 2, 3, 4, 5, 19]);
    // A durable supersessor after the crash retires what it supersedes
    // and nothing else.
    commit_one(&wal, 30, &[(6, 99)]).unwrap();
    drop(wal);
    let (_wal, commits, _) = Wal::open(cfg).unwrap();
    let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
    assert_eq!(replayed, vec![0, 1, 2, 3, 4, 5, 30]);
}

/// The retirement barrier: a segment whose entities all have newer
/// records stays on disk until those records are durable, and an
/// unflushed record that supersedes nothing in it does not hold it.
#[test]
fn dead_segment_waits_for_its_supersessors_only() {
    let dir = TestDir::new("retire-barrier");
    let mut cfg = dir.cfg();
    cfg.segment_bytes = one_write_record_len(); // one record per segment
    cfg.fsync = false;
    let (wal, _, _) = Wal::open(cfg).unwrap();
    let on_disk = |seg: u64| dir.0.join(format!("{seg:08}.wal")).exists();

    // T1 writes e0 (segment 0); T2 overwrites it (segment 1), unflushed.
    commit_one(&wal, 1, &[(0, 10)]).unwrap();
    let t2 = wal
        .submit_commit(TxnId(2), &[(EntityId(0), 20)], &[0])
        .unwrap();
    assert!(on_disk(0), "T1's supersessor T2 is not durable yet");
    wal.wait_durable(t2).unwrap();
    assert!(!on_disk(0), "T2 is durable: T1's segment goes");

    // T4 writes e2 (segment 2) and T5 overwrites it (segment 3), both
    // durable; T6 writes the unrelated e3 (segment 4), unflushed.
    commit_one(&wal, 4, &[(2, 40)]).unwrap();
    commit_one(&wal, 5, &[(2, 50)]).unwrap();
    let t6 = wal
        .submit_commit(TxnId(6), &[(EntityId(3), 60)], &[0])
        .unwrap();
    assert!(!on_disk(2), "an unrelated unflushed tail holds nothing");
    wal.wait_durable(t6).unwrap();
}

/// The filesystem, with the thread of every append and fsync recorded.
#[derive(Debug)]
struct ThreadSpy {
    fs: FsStorage,
    callers: Mutex<Vec<ThreadId>>,
}

impl ThreadSpy {
    fn new(dir: &Path) -> Self {
        ThreadSpy {
            fs: FsStorage::new(dir),
            callers: Mutex::new(Vec::new()),
        }
    }

    fn note(&self) {
        self.callers
            .lock()
            .unwrap()
            .push(std::thread::current().id());
    }
}

impl WalStorage for ThreadSpy {
    fn init(&self) -> StorageResult<()> {
        self.fs.init()
    }
    fn list(&self) -> StorageResult<Vec<u64>> {
        self.fs.list()
    }
    fn open(&self, seg: u64) -> StorageResult<Vec<u8>> {
        self.fs.open(seg)
    }
    fn append(&self, seg: u64, bytes: &[u8]) -> StorageResult<()> {
        self.note();
        self.fs.append(seg, bytes)
    }
    fn fsync(&self, seg: u64) -> StorageResult<()> {
        self.note();
        self.fs.fsync(seg)
    }
    fn truncate(&self, seg: u64, len: u64) -> StorageResult<()> {
        self.fs.truncate(seg, len)
    }
    fn seal(&self, seg: u64) -> StorageResult<()> {
        self.fs.seal(seg)
    }
    fn unlink(&self, seg: u64) -> StorageResult<()> {
        self.fs.unlink(seg)
    }
    fn quarantine(&self, seg: u64) -> StorageResult<()> {
        self.fs.quarantine(seg)
    }
    fn size(&self, seg: u64) -> StorageResult<u64> {
        self.fs.size(seg)
    }
}

#[test]
fn a_lone_session_flushes_its_own_commit_on_its_own_thread() {
    // No writer thread: the session that waits is the one that writes
    // and syncs, so a single submit + wait is one flush, on this thread.
    let dir = TestDir::new("self-flush");
    let spy = Arc::new(ThreadSpy::new(&dir.0));
    let mut cfg = dir.cfg();
    cfg.storage = Some(Arc::clone(&spy) as Arc<dyn WalStorage>);
    let (wal, _, _) = Wal::open(cfg).unwrap();
    let before = wal.stats().flushes;
    let lsn = wal
        .submit_commit(TxnId(1), &[(EntityId(0), 10)], &[0])
        .unwrap();
    assert!(
        spy.callers.lock().unwrap().is_empty(),
        "submit only enqueues"
    );
    wal.wait_durable(lsn).unwrap();
    assert_eq!(wal.stats().flushes, before + 1);
    let me = std::thread::current().id();
    let callers = spy.callers.lock().unwrap().clone();
    assert_eq!(callers, vec![me, me], "one append and one fsync, both here");
}

#[test]
fn close_flushes_a_record_no_one_waited_for() {
    let dir = TestDir::new("close-unwaited");
    {
        let (wal, _, _) = Wal::open(dir.cfg()).unwrap();
        wal.submit_commit(TxnId(7), &[(EntityId(3), 30)], &[0])
            .unwrap();
        assert_eq!(wal.stats().flushes, 0, "nothing flushes unprompted");
        wal.close();
        assert_eq!(wal.stats().flushes, 1, "close drained the queue itself");
    }
    let (_wal, commits, _) = Wal::open(dir.cfg()).unwrap();
    let replayed: Vec<u32> = commits.iter().map(|c| c.txn.0).collect();
    assert_eq!(replayed, vec![7], "the unwaited record replays");
}
