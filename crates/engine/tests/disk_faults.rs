//! Disk-fault battery: every [`FaultSpec`] fault kind is injected
//! under the WAL through the public engine API, and the engine must
//! honor the fault-model contract (`docs/durability.md`, "Fault
//! model"):
//!
//! * Transient append errors are absorbed by the flusher's bounded
//!   retry — invisible to clients, visible in `append_retries`.
//! * ANY fsync failure poisons the log fail-stop: waiters get
//!   `EngineError::Durability`, the engine flips to a loud degraded
//!   read-only mode (reads Ok, writes refused, no panic, no hang),
//!   and nothing it ever acknowledged is lost.
//! * `ENOSPC` degrades gracefully: a parked flush makes what it did
//!   append durable, which retires the segments that supersedes, and
//!   a device that stays full gets loud refusals, not a limping
//!   engine.
//! * Corruption inside a sealed mid-log segment is never truncated
//!   over: `RecoverPolicy::Strict` refuses the open naming the fix,
//!   `RecoverPolicy::Quarantine` opens with an exact lost-LSN report.
//!
//! `DELTX_SEED` fixes the workload RNG, and every failure message
//! echoes the effective seed.

use deltx_engine::{
    run_seed, DurabilityConfig, Engine, EngineConfig, EngineError, FaultSpec, FaultyStorage,
    FsStorage, RecoverPolicy, WalHealth, WalStorage,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Self-cleaning per-test WAL directory.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "deltx-diskfault-{tag}-{}-{:?}",
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

/// The fsync-failure path is the one the `planted` feature's
/// retry-after-fsync-fail toggle perturbs; tests that drive it
/// serialize here so the toggle's armed state never bleeds across
/// concurrently running tests in this binary.
static FSYNC_PATH: Mutex<()> = Mutex::new(());

fn config(
    dir: &TestDir,
    storage: Option<Arc<dyn WalStorage>>,
    segment_bytes: u64,
    fsync: bool,
    recover: RecoverPolicy,
) -> EngineConfig {
    EngineConfig {
        shards: 4,
        record_history: false,
        durability: Some(DurabilityConfig {
            segment_bytes,
            fsync,
            storage,
            recover,
            ..DurabilityConfig::new(dir.0.clone())
        }),
        ..EngineConfig::default()
    }
}

/// A [`FaultyStorage`] over the real filesystem under `dir`.
fn faulty(dir: &TestDir, spec: FaultSpec) -> Arc<FaultyStorage> {
    Arc::new(FaultyStorage::new(
        Arc::new(FsStorage::new(dir.0.clone())),
        spec,
    ))
}

/// One random transfer. On `Ok` the client-side `mirror` is updated —
/// it tracks exactly what the engine *acknowledged*, which is the
/// state that must survive any fault plus recovery.
fn transfer(e: &Engine, mirror: &mut [i64], rng: &mut StdRng) -> Result<(), EngineError> {
    let n = mirror.len() as u32;
    let x = rng.gen_range(0..n);
    let mut y = rng.gen_range(0..n);
    if y == x {
        y = (x + 1) % n;
    }
    let amt = rng.gen_range(1i64..10);
    let mut t = e.begin();
    let a = t.read(x)?;
    let b = t.read(y)?;
    t.write(x, a - amt);
    t.write(y, b + amt);
    t.commit()?;
    mirror[x as usize] -= amt;
    mirror[y as usize] += amt;
    Ok(())
}

fn assert_mirror(e: &Engine, mirror: &[i64], ctx: &str, seed: u64) {
    for (x, want) in mirror.iter().enumerate() {
        assert_eq!(
            e.peek(x as u32),
            *want,
            "[{ctx}] entity {x} diverged from the acknowledged mirror [seed {seed}]"
        );
    }
}

/// The degraded-mode contract: reads keep working, writes are refused
/// with `EngineError::Durability`, nothing panics or hangs. The
/// in-flight commit that surfaced the fault may already be installed
/// in memory (the client got an error, recovery decides — the same
/// asymmetry `crash_recovery` pins down), so the live state is
/// checked for transfer conservation, not exact mirror equality.
fn assert_degraded_read_only(e: &Engine, n: usize, ctx: &str, seed: u64) {
    assert!(
        e.degraded(),
        "[{ctx}] engine must report degraded [seed {seed}]"
    );
    let mut s = e.begin();
    s.read(0)
        .unwrap_or_else(|err| panic!("[{ctx}] degraded read must work: {err} [seed {seed}]"));
    drop(s);
    let mut s = e.begin();
    let v = s.read(1).expect("degraded read");
    s.write(1, v + 1);
    match s.commit() {
        Err(EngineError::Durability(_)) => {}
        other => panic!(
            "[{ctx}] degraded commit must refuse with Durability, got {other:?} [seed {seed}]"
        ),
    }
    // GC on a degraded engine is a no-op, never a panic.
    e.gc_sweep();
    let sum: i64 = (0..n as u32).map(|x| e.peek(x)).sum();
    assert_eq!(
        sum, 0,
        "[{ctx}] degraded state must stay transfer-conserved [seed {seed}]"
    );
}

// ---------------------------------------------------------------- //
// Per-fault runs, one helper per fault kind, called by the focused  //
// tests below.                                                      //
// ---------------------------------------------------------------- //

/// Transient append burst → absorbed by bounded retry: every commit
/// acknowledges, health stays Ok, the retries are counted, and the
/// log replays clean.
fn run_transient(seed: u64) {
    let ctx = "transient";
    let dir = TestDir::new("transient");
    let spec = FaultSpec {
        transient_append_at: Some((3, 2)),
        ..FaultSpec::default()
    };
    let storage: Arc<dyn WalStorage> = faulty(&dir, spec);
    let (e, _) = Engine::open(config(
        &dir,
        Some(storage),
        64 * 1024,
        false,
        RecoverPolicy::Strict,
    ))
    .expect("fresh open");
    let n = 16usize;
    let mut mirror = vec![0i64; n];
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..40 {
        transfer(&e, &mut mirror, &mut rng).unwrap_or_else(|err| {
            panic!("[{ctx}] commit {i} must absorb the transient burst: {err} [seed {seed}]")
        });
    }
    assert_eq!(
        e.wal_health(),
        WalHealth::Ok,
        "[{ctx}] transients never degrade the log [seed {seed}]"
    );
    let retries = e.wal_stats().expect("durable run has a WAL").append_retries;
    assert!(
        retries >= 1,
        "[{ctx}] the injected burst must be visible in append_retries [seed {seed}]"
    );
    assert_mirror(&e, &mirror, ctx, seed);
    drop(e);

    let (r, _) = Engine::open(config(&dir, None, 64 * 1024, false, RecoverPolicy::Strict))
        .expect("clean reopen");
    assert_mirror(&r, &mirror, &format!("{ctx}/reopen"), seed);
}

/// Fsync failure → fail-stop poison: the failing commit (and all
/// later ones) get `Durability`, the engine is degraded read-only,
/// and a reopen recovers exactly the acknowledged prefix — the
/// fsyncgate device dropped the un-synced suffix, and fail-stop is
/// what keeps that loss from ever being acknowledged.
fn run_fsync_poison(seed: u64) {
    let _fsync_path = FSYNC_PATH.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = "fsync";
    let dir = TestDir::new("fsync");
    let spec = FaultSpec {
        fsync_fail_at: Some(2),
        ..FaultSpec::default()
    };
    let storage: Arc<dyn WalStorage> = faulty(&dir, spec);
    let (e, _) = Engine::open(config(
        &dir,
        Some(storage),
        64 * 1024,
        true,
        RecoverPolicy::Strict,
    ))
    .expect("fresh open");
    let n = 16usize;
    let mut mirror = vec![0i64; n];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF57C);
    let mut acked = 0u64;
    let mut poisoned = false;
    for _ in 0..12 {
        match transfer(&e, &mut mirror, &mut rng) {
            Ok(()) => acked += 1,
            Err(EngineError::Durability(_)) => {
                poisoned = true;
                break;
            }
            Err(other) => panic!("[{ctx}] unexpected error {other:?} [seed {seed}]"),
        }
    }
    assert!(
        poisoned,
        "[{ctx}] the injected fsync failure must surface within 12 commits [seed {seed}]"
    );
    assert_eq!(
        e.wal_health(),
        WalHealth::Poisoned,
        "[{ctx}] any fsync failure poisons the log — no retry, no limp [seed {seed}]"
    );
    assert_degraded_read_only(&e, n, ctx, seed);
    drop(e);

    // The device dropped the un-synced suffix; recovery must land on
    // exactly the acknowledged prefix — no more, no less.
    let (r, report) = Engine::open(config(&dir, None, 64 * 1024, false, RecoverPolicy::Strict))
        .expect("recovery after poison");
    assert_eq!(
        report.commits_replayed, acked,
        "[{ctx}] recovery must replay exactly the acknowledged commits [seed {seed}]"
    );
    assert_mirror(&r, &mirror, &format!("{ctx}/reopen"), seed);
}

/// ENOSPC → graceful degradation, on a device of `capacity` bytes
/// under 512-byte segments. Nothing the engine does frees log space: a
/// sealed segment retires in the flush that makes the records
/// superseding its entities durable. With 16 accounts that keeps a
/// handful of segments on disk, so 3 KiB has room for every write
/// (`fits`): all are acknowledged on a healthy log. 2 KiB does not,
/// and the engine must refuse loudly. Either way: no panic, no hang, no
/// silent loss.
fn run_enospc(seed: u64, capacity: u64, fits: bool) {
    let ctx = format!("enospc-{capacity}");
    let dir = TestDir::new(&format!("enospc-{capacity}"));
    let spec = FaultSpec {
        capacity: Some(capacity),
        ..FaultSpec::default()
    };
    let storage: Arc<dyn WalStorage> = faulty(&dir, spec);
    let cfg = config(&dir, Some(storage), 512, false, RecoverPolicy::Strict);
    let (e, _) = Engine::open(cfg).expect("fresh open");
    let n = 16usize;
    let mut mirror = vec![0i64; n];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE05C);
    let mut acked = 0u64;
    for _ in 0..300 {
        match transfer(&e, &mut mirror, &mut rng) {
            Ok(()) => acked += 1,
            Err(EngineError::Durability(_)) => {} // loud refusal, not a panic
            Err(other) => panic!("[{ctx}] unexpected error {other:?} [seed {seed}]"),
        }
    }
    match (e.wal_health(), fits) {
        (WalHealth::Ok, true) => assert_eq!(
            acked, 300,
            "[{ctx}] a healthy log means every write was acknowledged [seed {seed}]"
        ),
        (WalHealth::NoSpace, false) => assert_degraded_read_only(&e, n, &ctx, seed),
        (other, _) => panic!(
            "[{ctx}] expected {}, got {other:?} with {acked}/300 acknowledged [seed {seed}]",
            if fits { "a healthy log" } else { "NoSpace" }
        ),
    }
    assert!(
        acked >= 1,
        "[{ctx}] the early writes fit any device [seed {seed}]"
    );
    // The in-flight commit that hit the full device may be installed
    // in memory despite its error; gate-refused commits after the
    // fail-stop never half-install. Either way transfers conserve.
    let sum: i64 = (0..n as u32).map(|x| e.peek(x)).sum();
    assert_eq!(
        sum, 0,
        "[{ctx}] live state must stay transfer-conserved [seed {seed}]"
    );
    drop(e);

    let (r, _) =
        Engine::open(config(&dir, None, 512, false, RecoverPolicy::Strict)).expect("clean reopen");
    assert_mirror(&r, &mirror, &format!("{ctx}/reopen"), seed);
}

/// Sealed mid-log corruption → Strict refuses naming the opt-in,
/// Quarantine opens with an exact lost-LSN report and a usable
/// engine.
fn run_corrupt_sealed(seed: u64) {
    let ctx = "corrupt";
    let dir = TestDir::new("corrupt");
    // Tiny segments seal fast, and each commit writes an entity no
    // other commit writes: no record is superseded, so every sealed
    // segment survives to be a corruption target.
    let storage = faulty(&dir, FaultSpec::default());
    let dyn_storage: Arc<dyn WalStorage> = storage.clone();
    let (e, _) = Engine::open(config(
        &dir,
        Some(dyn_storage),
        256,
        false,
        RecoverPolicy::Strict,
    ))
    .expect("fresh open");
    let n = 16usize;
    let mut mirror = vec![0i64; n];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    for i in 0..80 {
        let mut t = e.begin();
        t.write(n as u32 + i, rng.gen_range(1i64..10));
        t.commit()
            .unwrap_or_else(|err| panic!("[{ctx}] commit {i}: {err} [seed {seed}]"));
    }
    drop(e);

    // Victim: the second non-empty segment, so records survive on
    // BOTH sides of the gap — the scrub must classify it as *mid-log*
    // (a clean-closed later segment decodes fully) rather than a torn
    // tail, and the report must bracket the loss with real LSNs.
    let segs = storage.list().expect("list segments");
    let nonempty: Vec<u64> = segs
        .iter()
        .copied()
        .filter(|&s| storage.size(s).is_ok_and(|b| b > 0))
        .collect();
    assert!(
        nonempty.len() >= 3,
        "[{ctx}] 80 commits must seal >= 3 non-empty segments, got {nonempty:?} [seed {seed}]"
    );
    let victim = nonempty[1];
    assert!(
        storage
            .corrupt_sector(victim, 0)
            .expect("corrupt the victim"),
        "[{ctx}] the victim segment cannot be empty [seed {seed}]"
    );

    // Strict: refuse, do not modify the disk, name the opt-in.
    let msg = match Engine::open(config(&dir, None, 256, false, RecoverPolicy::Strict)) {
        Err(err) => err.to_string(),
        Ok(_) => panic!("[{ctx}] strict open over mid-log corruption must refuse [seed {seed}]"),
    };
    assert!(
        msg.contains("Quarantine") && msg.contains(&format!("{victim:08}")),
        "[{ctx}] the refusal must name the segment and the opt-in, got: {msg} [seed {seed}]"
    );

    // Quarantine: open with the survivors and an exact loss report.
    let (r, report) = Engine::open(config(&dir, None, 256, false, RecoverPolicy::Quarantine))
        .expect("quarantine open");
    let quarantined: Vec<u64> = report.scan.quarantined.iter().map(|q| q.segment).collect();
    assert_eq!(
        quarantined,
        vec![victim],
        "[{ctx}] exactly the corrupted segment is quarantined [seed {seed}]"
    );
    let q = &report.scan.quarantined[0];
    assert!(
        q.lost_after > 0 && q.resume_at > q.lost_after,
        "[{ctx}] a mid-log gap has survivors on both sides: {q:?} [seed {seed}]"
    );
    assert!(
        report.commits_replayed > 0,
        "[{ctx}] the survivors outside the gap must replay [seed {seed}]"
    );
    // The loud, accurate report of the lost LSN range is the
    // contract. The engine is healthy and fully writable on top of
    // the survivors.
    assert_eq!(r.wal_health(), WalHealth::Ok, "[{ctx}] [seed {seed}]");
    for _ in 0..10 {
        transfer(&r, &mut mirror, &mut rng)
            .unwrap_or_else(|err| panic!("[{ctx}] post-quarantine commit: {err} [seed {seed}]"));
    }
}

// ---------------------------------------------------------------- //
// The focused tests.                                                //
// ---------------------------------------------------------------- //

#[test]
fn transient_append_burst_is_absorbed_by_bounded_retry() {
    let seed = run_seed(0xD15C);
    run_transient(seed);
}

#[test]
fn fsync_failure_poisons_the_log_fail_stop() {
    let seed = run_seed(0xD15C);
    run_fsync_poison(seed);
}

#[test]
fn enospc_degrades_gracefully_under_gc_pressure() {
    let seed = run_seed(0xD15C);
    run_enospc(seed, 3 * 1024, true);
}

#[test]
fn enospc_on_a_device_too_small_to_rescue_refuses_loudly() {
    let seed = run_seed(0xD15C);
    run_enospc(seed, 2 * 1024, false);
}

#[test]
fn corrupt_sealed_segment_refuses_strict_and_reports_quarantine() {
    let seed = run_seed(0xD15C);
    run_corrupt_sealed(seed);
}

/// The planted bug, observed at the engine level: a writer that
/// *retries* a failed fsync sees the retry "succeed" (the kernel
/// dropped the dirty pages on the first failure), acknowledges the
/// lost commits, and never poisons. The acknowledged mirror then
/// diverges from what recovery can replay — the silent loss the
/// fail-stop policy exists to prevent, and what the sim battery's
/// health oracle catches (`planted_bugs.rs` in the testkit).
#[cfg(feature = "planted")]
#[test]
fn planted_retry_after_fsync_fail_acknowledges_lost_commits() {
    let _fsync_path = FSYNC_PATH.lock().unwrap_or_else(|e| e.into_inner());
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            deltx_engine::planted::set_retry_after_fsync_fail_bug(false);
        }
    }
    deltx_engine::planted::set_retry_after_fsync_fail_bug(true);
    let _guard = Disarm;

    let seed = run_seed(0xD15C);
    let dir = TestDir::new("planted-fsync");
    let spec = FaultSpec {
        fsync_fail_at: Some(2),
        ..FaultSpec::default()
    };
    let storage: Arc<dyn WalStorage> = faulty(&dir, spec);
    let (e, _) = Engine::open(config(
        &dir,
        Some(storage),
        64 * 1024,
        true,
        RecoverPolicy::Strict,
    ))
    .expect("fresh open");
    let n = 16usize;
    let mut mirror = vec![0i64; n];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
    let mut acked = 0u64;
    for _ in 0..12 {
        if transfer(&e, &mut mirror, &mut rng).is_ok() {
            acked += 1;
        }
    }
    // The bug masks the failure completely: no poison, no refusals.
    assert_eq!(
        acked, 12,
        "the buggy retry acknowledges every commit [seed {seed}]"
    );
    assert_eq!(
        e.wal_health(),
        WalHealth::Ok,
        "the buggy retry hides the device failure [seed {seed}]"
    );
    drop(e);

    // ...but the data is gone: recovery replays fewer commits than
    // were acknowledged, and the mirror diverges.
    let (r, report) =
        Engine::open(config(&dir, None, 64 * 1024, false, RecoverPolicy::Strict)).expect("reopen");
    assert!(
        report.commits_replayed < acked,
        "the dropped flush must be missing from the log: {} replayed of {acked} acked [seed {seed}]",
        report.commits_replayed
    );
    let diverged = (0..n).any(|x| r.peek(x as u32) != mirror[x]);
    assert!(
        diverged,
        "acknowledged state must be lost — this is the silent loss fail-stop prevents [seed {seed}]"
    );
}
