//! The four engine workloads: banking transfers against a live
//! `deltx-engine`, driven closed-loop and open-loop.
//!
//! Every transfer reads two accounts and writes both, so the sum of
//! all balances is a serializability invariant the harness checks
//! after each phase. The engine is always built the way a production
//! caller would build it — `EngineConfig { shards, durability,
//! ..Default::default() }` — and driven through `begin / read / write
//! / commit / abort` only, so this file keeps compiling when the
//! engine's A/B knobs are deleted.

use crate::load::{self, WallClock};
use crate::recording::{Counters, RecordingStorage};
use crate::report::Outcome;
use crate::spans::{self, Name, Span, ThreadSpans, Totals};
use crate::stats;
use deltx_engine::{
    DurabilityConfig, Engine, EngineConfig, EngineError, MetricsSnapshot, RecoveryReport, WalStats,
};
use deltx_wal::{FsStorage, WalStorage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: u32 = 8;
const ENTITIES: u32 = 1024;
/// The paper's promise, as the engine's own stress driver states it:
/// the live graph stays `O(entities + active)`, never `O(history)`.
const LIVE_NODE_LIMIT: f64 = 4.0 * ENTITIES as f64;
/// One transfer in this many reads both accounts and then rolls back
/// (a client changing its mind), which is what `Session::abort` costs.
/// Coprime to the span sampling period, so some rollbacks are traced.
const ROLLBACK_EVERY: u64 = 101;
/// How often the sampler reads the live-graph size.
const SAMPLE_PERIOD: Duration = Duration::from_millis(5);
/// The long reader: entities scanned, and how long it then holds its
/// transaction open. It is asleep > 99 % of the time, so the busy
/// threads stay within the 2 cores.
const READER_SCAN: usize = 16;
const READER_HOLD: Duration = Duration::from_millis(50);

/// The fixed parameters of one engine workload. The open-loop rate is
/// a constant of the workload, never derived at run time: a rate that
/// followed the measured capacity would hide a slowdown.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Percentage of transfers whose accounts are drawn over all
    /// shards (the rest stay inside one shard).
    cross_pct: u32,
    reader: bool,
    pub durable: bool,
    /// Sessions of the closed loop: one per core, except on `durable`.
    /// A durable commit is two thread hand-offs; with 2 sessions both
    /// cores fall idle between commits, and what is then measured is
    /// how fast this VM wakes an idle core (the numbers moved by 2x
    /// with thread placement and by 30 % with host load). With 8
    /// sessions, blocked on the log most of the time, the cores stay
    /// awake, group commit has something to group, and the runs repeat.
    pub closed_clients: usize,
    open_rate_per_s: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "local",
        cross_pct: 0,
        reader: false,
        durable: false,
        closed_clients: 2,
        open_rate_per_s: 40_000,
    },
    Workload {
        name: "cross",
        cross_pct: 25,
        reader: false,
        durable: false,
        closed_clients: 2,
        open_rate_per_s: 8_000,
    },
    Workload {
        name: "longreader",
        cross_pct: 0,
        reader: true,
        durable: false,
        closed_clients: 2,
        open_rate_per_s: 8_000,
    },
    Workload {
        name: "durable",
        cross_pct: 0,
        reader: false,
        durable: true,
        closed_clients: 8,
        open_rate_per_s: 8_000,
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub from: u32,
    pub to: u32,
    pub amount: i64,
    pub rollback: bool,
}

/// The seeded input stream of one client.
pub struct Transfers {
    rng: StdRng,
    cross_pct: u32,
    sent: u64,
}

impl Transfers {
    /// `salt` separates the streams of the clients and phases of a run.
    pub fn new(seed: u64, salt: u64, cross_pct: u32) -> Self {
        Transfers {
            rng: StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            cross_pct,
            sent: 0,
        }
    }

    pub fn next(&mut self) -> Transfer {
        let per_shard = ENTITIES / SHARDS;
        let rng = &mut self.rng;
        // Entity x lives in shard x mod SHARDS.
        let (from, to) = if rng.gen_range(0..100u32) < self.cross_pct {
            let from = rng.gen_range(0..ENTITIES);
            (from, (from + rng.gen_range(1..ENTITIES)) % ENTITIES)
        } else {
            let shard = rng.gen_range(0..SHARDS);
            let from = rng.gen_range(0..per_shard);
            let to = (from + rng.gen_range(1..per_shard)) % per_shard;
            (shard + SHARDS * from, shard + SHARDS * to)
        };
        self.sent += 1;
        Transfer {
            from,
            to,
            amount: rng.gen_range(1..100),
            rollback: self.sent.is_multiple_of(ROLLBACK_EVERY),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Done {
    Committed,
    RolledBack,
    /// The scheduler rejected a step: the cycle check doing its job.
    Aborted,
    /// The log refused the commit (only after the crash check froze it).
    LogFailed,
}

/// One transfer through the public session API, with a span around
/// each call when this transaction is a sampled one.
pub fn run_transfer(engine: &Engine, t: Transfer, spans: &mut ThreadSpans, txn: u64) -> Done {
    let slot = spans.open(Name::Txn, txn);
    let done = (|| {
        let s = spans.start();
        let mut session = engine.begin();
        spans.leaf(Name::Begin, s, slot, txn);
        let mut balances = [0; 2];
        for (balance, account) in balances.iter_mut().zip([t.from, t.to]) {
            let s = spans.start();
            let read = session.read(account);
            spans.leaf(Name::Read, s, slot, txn);
            match read {
                Ok(v) => *balance = v,
                Err(e) => return classify(e),
            }
        }
        if t.rollback {
            let s = spans.start();
            session.abort();
            spans.leaf(Name::Abort, s, slot, txn);
            return Done::RolledBack;
        }
        for (account, value) in [
            (t.from, balances[0] - t.amount),
            (t.to, balances[1] + t.amount),
        ] {
            let s = spans.start();
            session.write(account, value);
            spans.leaf(Name::Write, s, slot, txn);
        }
        let s = spans.start();
        let committed = session.commit();
        spans.leaf(Name::Commit, s, slot, txn);
        match committed {
            Ok(()) => Done::Committed,
            Err(e) => classify(e),
        }
    })();
    spans.close(slot);
    done
}

fn classify(e: EngineError) -> Done {
    match e {
        EngineError::Aborted(_) => Done::Aborted,
        EngineError::Durability(_) => Done::LogFailed,
        // Closed / Protocol / Deadlock cannot come from correct use of
        // the session API: an engine bug, reported as loudly as possible.
        e => panic!("engine returned an error no correct caller can cause: {e}"),
    }
}

/// Where a durable engine keeps its log for one phase.
struct WalDir {
    dir: PathBuf,
    storage: Arc<RecordingStorage>,
}

impl WalDir {
    fn new(tag: &str, trace_epoch: Option<Instant>) -> WalDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = crate::out_dir().join(format!(
            "wal-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A stale directory would be *recovered from*, not overwritten.
        let _ = std::fs::remove_dir_all(&dir);
        WalDir {
            storage: Arc::new(RecordingStorage::new(&dir, trace_epoch)),
            dir,
        }
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn durability(dir: &Path, storage: Option<Arc<dyn WalStorage>>) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = true;
    d.storage = storage;
    d
}

/// Set-up: build the engine, write every account once, and wait until
/// the GC has nothing left to delete. Returns the engine and how long
/// that took.
fn setup(wal: Option<&WalDir>) -> (Engine, f64) {
    let t0 = Instant::now();
    let engine = Engine::new(EngineConfig {
        shards: SHARDS as usize,
        durability: wal.map(|w| {
            let storage: Arc<dyn WalStorage> = w.storage.clone();
            durability(&w.dir, Some(storage))
        }),
        ..EngineConfig::default()
    });
    for x in 0..ENTITIES {
        let mut s = engine.begin();
        s.write(x, 0);
        s.commit().expect("a blind write to a fresh engine commits");
    }
    settle(&engine);
    (engine, t0.elapsed().as_secs_f64())
}

/// Waits until the live graph has stopped shrinking: three equal
/// readings a GC interval apart (or one second, whichever is first).
fn settle(engine: &Engine) {
    let deadline = Instant::now() + Duration::from_secs(1);
    let (mut last, mut equal) = (usize::MAX, 0);
    while equal < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        let nodes = engine.graph_size().nodes;
        equal = if nodes == last { equal + 1 } else { 0 };
        last = nodes;
    }
}

/// The checks every engine phase ends with.
fn check_engine(out: &mut Outcome, engine: &Engine, phase: &str) {
    let sum: i64 = (0..ENTITIES).map(|x| engine.peek(x)).sum();
    out.check(sum == 0, || {
        format!("{phase}: balance sum {sum} != 0 — a transfer was lost or applied twice")
    });
    let underflows = engine.metrics().boundary_underflows;
    out.check(underflows == 0, || {
        format!("{phase}: {underflows} boundary-count underflows")
    });
}

#[derive(Clone, Copy, Debug, Default)]
struct ReaderStats {
    scans: u64,
    aborted: u64,
}

/// The long reader: scan, hold the transaction open, commit, repeat.
fn long_reader(engine: &Engine, seed: u64, stop: &AtomicBool) -> ReaderStats {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EAD_E500);
    let mut stats = ReaderStats::default();
    while !stop.load(Ordering::Relaxed) {
        stats.scans += 1;
        let mut session = engine.begin();
        let scanned = (0..READER_SCAN).all(|_| session.read(rng.gen_range(0..ENTITIES)).is_ok());
        if scanned {
            std::thread::sleep(READER_HOLD);
        }
        if !scanned || session.commit().is_err() {
            stats.aborted += 1;
        }
    }
    stats
}

/// A per-client counter on its own cache line: the sampler reads it,
/// only its client writes it.
#[repr(align(128))]
#[derive(Default)]
struct Commits(AtomicU64);

#[derive(Clone, Copy, Debug)]
pub struct ClosedSpec {
    pub clients: usize,
    pub warmup: Duration,
    pub windows: usize,
    pub window: Duration,
    /// Spans on in every second window (the odd ones). Traced and
    /// untraced windows then share one engine, one set of threads and
    /// one placement on the cores, so their difference is the cost of
    /// tracing and not the luck of the phase.
    pub traced: bool,
}

/// What one closed-loop phase measured.
pub struct Closed {
    pub setup_s: f64,
    /// Committed transfers per second, per window.
    pub window_txn_per_s: Vec<f64>,
    /// Largest sampled live-graph size, per window.
    pub window_peak_nodes: Vec<f64>,
    /// Length of the windows together.
    measured_s: f64,
    /// Engine counters at the start and the end of the windows.
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// Storage and WAL counters at the same two instants (`durable`).
    storage: Option<(Counters, Counters)>,
    wal: Option<(WalStats, WalStats)>,
    reader: ReaderStats,
    /// `(thread, spans)`, storage spans last (traced phases).
    pub threads: Vec<(String, Vec<Span>)>,
    /// 2 when every second window was traced, else 1.
    stride: usize,
}

impl Closed {
    /// Median window throughput, spans off (every window of an
    /// untraced phase, the even ones of a traced phase).
    pub fn txn_per_s(&self) -> f64 {
        stats::median(
            &self
                .window_txn_per_s
                .iter()
                .copied()
                .step_by(self.stride)
                .collect::<Vec<_>>(),
        )
    }

    /// Median throughput of the windows with spans on.
    pub fn traced_txn_per_s(&self) -> f64 {
        stats::median(
            &self
                .window_txn_per_s
                .iter()
                .copied()
                .skip(1)
                .step_by(2)
                .collect::<Vec<_>>(),
        )
    }
}

/// Closed loop: each client sends its next transfer when the last
/// returns. After the warm-up the main thread cuts the run into
/// windows, sampling the live-graph size every 5 ms.
pub fn closed_phase(
    w: &Workload,
    seed: u64,
    salt: u64,
    spec: ClosedSpec,
    out: &mut Outcome,
) -> Closed {
    let epoch = Instant::now();
    let wal = w
        .durable
        .then(|| WalDir::new("closed", spec.traced.then_some(epoch)));
    let (engine, setup_s) = setup(wal.as_ref());
    let phase = format!("{} closed x{}", w.name, spec.clients);

    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let commits: Vec<Commits> = (0..spec.clients).map(|_| Commits::default()).collect();
    let committed = || -> u64 { commits.iter().map(|c| c.0.load(Ordering::Relaxed)).sum() };
    // Enough for the fastest workload at twice today's speed.
    let span_capacity = if spec.traced {
        let secs = (spec.warmup + spec.window * spec.windows as u32).as_secs_f64();
        (secs * 400_000.0 / spans::SAMPLE_EVERY as f64) as usize * 8 + 64
    } else {
        0
    };

    let mut window_txn_per_s = Vec::new();
    let mut window_peak_nodes = Vec::new();
    let (mut before, mut storage_before, mut wal_before) = (None, None, None);
    let mut measured_s = 0.0;
    let mut threads = Vec::new();
    let mut reader = ReaderStats::default();

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..spec.clients)
            .map(|c| {
                let (engine, stop, tracing, mine) = (&engine, &stop, &tracing, &commits[c]);
                scope.spawn(move || {
                    let mut transfers = Transfers::new(seed, salt * 16 + c as u64, w.cross_pct);
                    let mut spans = ThreadSpans::new(epoch, span_capacity);
                    let mut attempted = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        spans.sample(
                            attempted % spans::SAMPLE_EVERY == 0 && tracing.load(Ordering::Relaxed),
                        );
                        let txn = attempted * spec.clients as u64 + c as u64 + 1;
                        attempted += 1;
                        match run_transfer(engine, transfers.next(), &mut spans, txn) {
                            Done::Committed => {
                                mine.0.fetch_add(1, Ordering::Relaxed);
                            }
                            Done::RolledBack | Done::Aborted => {}
                            Done::LogFailed => panic!("the log failed outside the crash check"),
                        }
                    }
                    (attempted, spans.into_spans())
                })
            })
            .collect();
        let reader_thread = w.reader.then(|| {
            let (engine, stop) = (&engine, &stop);
            scope.spawn(move || long_reader(engine, seed ^ salt, stop))
        });

        // The main thread is the sampler; it sleeps between readings.
        std::thread::sleep(spec.warmup);
        before = Some(engine.metrics());
        storage_before = wal.as_ref().map(|w| w.storage.counters());
        wal_before = engine.wal_stats();
        let windows_start = Instant::now();
        for i in 0..spec.windows {
            tracing.store(spec.traced && i % 2 == 1, Ordering::Relaxed);
            let (t0, c0) = (Instant::now(), committed());
            let mut peak = 0;
            while t0.elapsed() < spec.window {
                std::thread::sleep(SAMPLE_PERIOD);
                peak = peak.max(engine.graph_size().nodes);
            }
            window_txn_per_s.push((committed() - c0) as f64 / t0.elapsed().as_secs_f64());
            window_peak_nodes.push(peak as f64);
        }
        measured_s = windows_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);

        for (c, client) in clients.into_iter().enumerate() {
            let (attempted, spans) = client.join().expect("client thread panicked");
            out.attempted += attempted;
            if spec.traced {
                threads.push((format!("client{c}"), spans));
            }
        }
        if let Some(r) = reader_thread {
            reader = r.join().expect("reader thread panicked");
            out.attempted += reader.scans;
        }
    });

    let after = engine.metrics();
    let storage_after = wal.as_ref().map(|w| w.storage.counters());
    let wal_after = engine.wal_stats();
    check_engine(out, &engine, &phase);
    let peak = window_peak_nodes.iter().copied().fold(0.0, f64::max);
    out.check(peak <= LIVE_NODE_LIMIT, || {
        format!(
            "{phase}: live graph reached {peak} nodes, over the O(active) limit {LIVE_NODE_LIMIT}"
        )
    });
    if let (true, Some(w)) = (spec.traced, &wal) {
        threads.push(("wal-writer".into(), w.storage.take_spans()));
    }
    drop(engine);
    Closed {
        setup_s,
        window_txn_per_s,
        window_peak_nodes,
        measured_s,
        before: before.expect("set after the warm-up"),
        after,
        storage: storage_before.zip(storage_after),
        wal: wal_before.zip(wal_after),
        reader,
        threads,
        stride: if spec.traced { 2 } else { 1 },
    }
}

/// What one open-loop phase measured.
pub struct Open {
    /// Quantiles of every measured send.
    pub overall: stats::Latency,
    pub late_pct: f64,
}

/// Open loop: one client on the workload's fixed schedule.
pub fn open_phase(
    w: &Workload,
    seed: u64,
    salt: u64,
    warmup: Duration,
    measure: Duration,
    out: &mut Outcome,
) -> Open {
    let wal = w.durable.then(|| WalDir::new("open", None));
    let (engine, _) = setup(wal.as_ref());
    let stop = AtomicBool::new(false);
    let mut run = load::OpenLoop::default();
    let mut reader = ReaderStats::default();

    std::thread::scope(|scope| {
        let reader_thread = w.reader.then(|| {
            let (engine, stop) = (&engine, &stop);
            scope.spawn(move || long_reader(engine, seed ^ salt, stop))
        });
        let client = {
            let engine = &engine;
            scope.spawn(move || {
                let mut transfers = Transfers::new(seed, salt * 16, w.cross_pct);
                let mut spans = ThreadSpans::new(Instant::now(), 0);
                load::open_loop(
                    &WallClock(Instant::now()),
                    1_000_000_000 / w.open_rate_per_s,
                    warmup.as_nanos() as u64,
                    measure.as_nanos() as u64,
                    |i| match run_transfer(engine, transfers.next(), &mut spans, i + 1) {
                        Done::Committed | Done::RolledBack => true,
                        Done::Aborted => false,
                        Done::LogFailed => panic!("the log failed outside the crash check"),
                    },
                )
            })
        };
        run = client.join().expect("open-loop client panicked");
        stop.store(true, Ordering::Relaxed);
        if let Some(r) = reader_thread {
            reader = r.join().expect("reader thread panicked");
        }
    });

    out.attempted += run.latencies_ns.len() as u64 + reader.scans;
    check_engine(out, &engine, &format!("{} open", w.name));
    Open {
        late_pct: 100.0 * run.late as f64 / run.latencies_ns.len() as f64,
        overall: stats::latency(run.latencies_ns, measure.as_nanos() as u64),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer numbers read off the engine's own counters over the
/// windows of a closed phase. Only allowlisted
/// `MetricsSnapshot` fields are touched (see `perf/README.md`).
pub fn counter_metrics(c: &Closed, out: &mut Outcome) {
    let (a, b) = (&c.before, &c.after);
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(b) - f(a)) as f64;
    let commits = d(|m| m.commits);
    let aborts = d(|m| m.aborts_scheduler);
    let fast = d(|m| m.fast_path_ops);
    let escalated = d(|m| m.escalated_ops);
    out.put(
        "engine.fast_path_share_pct",
        100.0 * ratio(fast, fast + escalated),
    );
    out.put(
        "engine.locks_per_escalation",
        ratio(d(|m| m.escalated_locks_taken), escalated),
    );
    out.put(
        "engine.escalation_fallback_pct",
        100.0 * ratio(d(|m| m.escalation_fallbacks), escalated),
    );
    out.put(
        "engine.summary_update_ns",
        ratio(d(|m| m.summary_update_nanos), d(|m| m.summary_updates)),
    );
    out.put(
        "engine.gc_pause_ms_per_s",
        (b.gc_pause - a.gc_pause).as_secs_f64() * 1e3 / c.measured_s,
    );
    out.put("engine.gc_sweeps_per_s", d(|m| m.gc_sweeps) / c.measured_s);
    out.put(
        "engine.gc_deletions_per_commit",
        ratio(d(|m| m.gc_deletions), commits),
    );
    out.put(
        "engine.gc_ghosts_per_kcommit",
        1e3 * ratio(d(|m| m.gc_ghosts), commits),
    );
    out.put("engine.abort_pct", 100.0 * ratio(aborts, commits + aborts));
    out.put(
        "engine.scan_abort_pct",
        100.0 * ratio(c.reader.aborted as f64, c.reader.scans as f64),
    );

    let (bytes, appends, fsyncs, unlinks) =
        c.storage.as_ref().map_or((0.0, 0.0, 0.0, 0.0), |(a, b)| {
            (
                (b.bytes_appended - a.bytes_appended) as f64,
                (b.appends - a.appends) as f64,
                (b.fsyncs - a.fsyncs) as f64,
                (b.unlinks - a.unlinks) as f64,
            )
        });
    out.put("wal_bytes_per_commit", ratio(bytes, commits));
    out.put("wal.appends_per_commit", ratio(appends, commits));
    out.put("wal.fsyncs_per_commit", ratio(fsyncs, commits));
    out.put("wal.segments_unlinked", unlinks);
    out.put(
        "wal.records_per_fsync",
        c.wal.as_ref().map_or(0.0, |(a, b)| {
            ratio(
                (b.records - a.records) as f64,
                (b.flushes - a.flushes) as f64,
            )
        }),
    );
}

/// The per-layer numbers of a traced closed phase: mean time per call
/// of each session method, the harness's own share, and how long a
/// commit waits for the log beyond the storage calls themselves.
pub fn span_metrics(c: &Closed, out: &mut Outcome) {
    let mut totals = Totals::default();
    let mut storage: &[Span] = &[];
    for (thread, spans) in &c.threads {
        if thread == "wal-writer" {
            storage = spans;
        } else {
            totals.merge(&spans::totals(spans));
        }
    }
    let us = |name| totals.mean_ns(name) / 1e3;
    out.put("engine.begin_us", us(Name::Begin));
    out.put("engine.read_us", us(Name::Read));
    out.put("engine.write_us", us(Name::Write));
    out.put("engine.commit_us", us(Name::Commit));
    out.put("engine.abort_us", us(Name::Abort));
    out.put(
        "engine.commit_share_pct",
        100.0
            * ratio(
                totals.total_ns(Name::Commit) as f64,
                totals.total_ns(Name::Txn) as f64,
            ),
    );
    out.put(
        "harness.self_us",
        ratio(totals.txn_self_ns as f64, totals.calls(Name::Txn) as f64) / 1e3,
    );
    out.put(
        "harness.trace_overhead_pct",
        100.0 * (c.txn_per_s() - c.traced_txn_per_s()) / c.txn_per_s(),
    );
    // Per-call means times calls per txn, plus the harness's own time,
    // must reproduce the traced txn duration: the spans tile the txn.
    let parts: u64 = [
        Name::Begin,
        Name::Read,
        Name::Write,
        Name::Commit,
        Name::Abort,
    ]
    .iter()
    .map(|n| totals.total_ns(*n))
    .sum();
    out.check(
        parts + totals.txn_self_ns == totals.total_ns(Name::Txn),
        || "traced phase: call spans + self time do not add up to the txn spans".to_string(),
    );

    // A commit span minus the storage calls it overlaps is the time
    // the WAL spent handing the record over and the answer back.
    let intervals: Vec<(u64, u64)> = storage.iter().map(|s| (s.start_ns, s.end_ns)).collect();
    let (mut waited, mut commits) = (0u64, 0u64);
    for (_, spans) in c.threads.iter().filter(|(t, _)| t != "wal-writer") {
        for s in spans.iter().filter(|s| s.name == Name::Commit) {
            let first = intervals.partition_point(|iv| iv.1 <= s.start_ns);
            let end = intervals.partition_point(|iv| iv.0 < s.end_ns);
            let overlapping = &intervals[first..end.max(first)];
            waited += s.dur_ns() - spans::covered_ns(s.start_ns, s.end_ns, overlapping);
            commits += 1;
        }
    }
    let handoff_ns = if storage.is_empty() {
        0.0
    } else {
        ratio(waited as f64, commits as f64)
    };
    out.put("wal.handoff_us", handoff_ns / 1e3);
    let appends: Vec<u64> = storage
        .iter()
        .filter(|s| s.name == Name::StorageAppend)
        .map(Span::dur_ns)
        .collect();
    out.put(
        "wal.append_us",
        ratio(appends.iter().sum::<u64>() as f64, appends.len() as f64) / 1e3,
    );
}

/// What the crash check found.
pub struct Crash {
    pub recovery_ms: f64,
    pub replayed: f64,
}

/// The honest crash check: with two clients committing, freeze the
/// storage at a seeded instant, throw away every byte no fsync
/// covered, and reopen on the plain filesystem. Every transfer whose
/// commit returned must be there; the at most one transfer per client
/// that was in flight may or may not be.
pub fn crash_check(w: &Workload, seed: u64, out: &mut Outcome) -> Crash {
    let wal = WalDir::new("crash", None);
    let (engine, _) = setup(Some(&wal));
    let freeze_after =
        Duration::from_millis(StdRng::seed_from_u64(seed ^ 0xC4A5).gen_range(300..800));
    // Per client: the transfers acknowledged, and the one in flight.
    let mut logs: Vec<(Vec<Transfer>, Option<Transfer>)> = Vec::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..w.closed_clients)
            .map(|c| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut transfers = Transfers::new(seed, 0xC4A5 * 256 + c as u64, w.cross_pct);
                    let mut spans = ThreadSpans::new(Instant::now(), 0);
                    let mut acked = Vec::new();
                    loop {
                        let t = transfers.next();
                        match run_transfer(engine, t, &mut spans, 0) {
                            Done::Committed => acked.push(t),
                            Done::RolledBack | Done::Aborted => {}
                            Done::LogFailed => return (acked, Some(t)),
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(freeze_after);
        wal.storage.freeze();
        logs = clients
            .into_iter()
            .map(|c| c.join().expect("crash-check client panicked"))
            .collect();
    });
    drop(engine);
    let discarded = wal
        .storage
        .discard_unsynced()
        .expect("truncate segment files");

    let mut expected = vec![0i64; ENTITIES as usize];
    let mut in_flight = Vec::new();
    for (acked, last) in &logs {
        out.attempted += acked.len() as u64;
        for t in acked {
            expected[t.from as usize] -= t.amount;
            expected[t.to as usize] += t.amount;
        }
        in_flight.extend(last.iter().copied());
    }

    let reopened = Engine::open(EngineConfig {
        shards: SHARDS as usize,
        durability: Some(durability(&wal.dir, None)),
        ..EngineConfig::default()
    });
    let (engine, report): (Engine, RecoveryReport) = match reopened {
        Ok(opened) => opened,
        Err(e) => {
            out.check(false, || format!("crash check: reopen failed: {e}"));
            return Crash {
                recovery_ms: 0.0,
                replayed: 0.0,
            };
        }
    };
    let recovered: Vec<i64> = (0..ENTITIES).map(|x| engine.peek(x)).collect();
    out.check(survives(&expected, &in_flight, &recovered), || {
        format!(
            "crash check: recovered balances are not the {} acknowledged transfers plus a \
             subset of the {} in flight ({discarded} unsynced bytes discarded, freeze at {freeze_after:?})",
            logs.iter().map(|l| l.0.len()).sum::<usize>(),
            in_flight.len()
        )
    });
    Crash {
        recovery_ms: report.elapsed.as_secs_f64() * 1e3,
        replayed: report.commits_replayed as f64,
    }
}

/// Whether `recovered` equals `acked` plus some subset of `in_flight`.
pub fn survives(acked: &[i64], in_flight: &[Transfer], recovered: &[i64]) -> bool {
    (0..1u32 << in_flight.len()).any(|subset| {
        let mut want = acked.to_vec();
        for (i, t) in in_flight.iter().enumerate() {
            if subset & (1 << i) != 0 {
                want[t.from as usize] -= t.amount;
                want[t.to as usize] += t.amount;
            }
        }
        want == recovered
    })
}

/// Median latency of real `fsync` calls on this sandbox's device —
/// the cost the recording storage leaves out, labelled as such.
pub fn real_fsync_p50_us() -> f64 {
    let dir = crate::out_dir().join(format!("fsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fs = FsStorage::new(&dir);
    fs.init().expect("create fsync probe directory");
    let mut ns: Vec<u64> = (0..200)
        .map(|_| {
            fs.append(0, &[0xA5; 128]).expect("append to fsync probe");
            let t0 = Instant::now();
            fs.fsync(0).expect("fsync probe");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    ns.sort_unstable();
    stats::quantile(&ns, 0.5) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_repeat_per_seed_and_respect_the_mix() {
        let stream = |seed, cross| -> Vec<Transfer> {
            let mut t = Transfers::new(seed, 3, cross);
            (0..2_000).map(|_| t.next()).collect()
        };
        assert_eq!(stream(7, 25), stream(7, 25));
        assert_ne!(stream(7, 25), stream(8, 25));
        for t in stream(7, 0) {
            assert_ne!(t.from, t.to);
            assert_eq!(
                t.from % SHARDS,
                t.to % SHARDS,
                "local transfers stay in one shard"
            );
            assert!(t.from < ENTITIES && t.to < ENTITIES && (1..100).contains(&t.amount));
        }
        let crossing = stream(7, 25)
            .iter()
            .filter(|t| t.from % SHARDS != t.to % SHARDS)
            .count();
        // 25 % drawn over all shards, 7/8 of which really cross.
        assert!((350..530).contains(&crossing), "{crossing} of 2000 cross");
        assert_eq!(stream(7, 0).iter().filter(|t| t.rollback).count(), 19);
    }

    #[test]
    fn a_flipped_balance_fails_the_run() {
        let (engine, _) = setup(None);
        let mut spans = ThreadSpans::new(Instant::now(), 0);
        let mut transfers = Transfers::new(1, 1, 25);
        for i in 0..500 {
            run_transfer(&engine, transfers.next(), &mut spans, i);
        }
        let mut out = Outcome::default();
        check_engine(&mut out, &engine, "test");
        assert!(out.correct(), "{:?}", out.failures);

        // A write that is not a transfer: value appears from nowhere.
        let mut s = engine.begin();
        let v = s.read(5).unwrap();
        s.write(5, v + 1);
        s.commit().unwrap();
        check_engine(&mut out, &engine, "test");
        assert!(!out.correct());
        assert!(
            out.failures[0].contains("balance sum 1"),
            "{:?}",
            out.failures
        );
        assert!(out.driver_line().starts_with("{\"correct\":false"));
    }

    #[test]
    fn recovery_must_match_acked_plus_a_subset_of_in_flight() {
        let t = |from, to, amount| Transfer {
            from,
            to,
            amount,
            rollback: false,
        };
        let acked = vec![5, -5, 0, 0];
        let in_flight = [t(0, 2, 3), t(1, 3, 4)];
        assert!(survives(&acked, &in_flight, &[5, -5, 0, 0]));
        assert!(survives(&acked, &in_flight, &[2, -5, 3, 0]));
        assert!(survives(&acked, &in_flight, &[5, -9, 0, 4]));
        assert!(survives(&acked, &in_flight, &[2, -9, 3, 4]));
        // An acknowledged transfer missing, or half of one applied.
        assert!(!survives(&acked, &in_flight, &[0, 0, 0, 0]));
        assert!(!survives(&acked, &in_flight, &[2, -5, 0, 0]));
        assert!(!survives(&acked, &[], &[2, -5, 3, 0]));
    }
}
