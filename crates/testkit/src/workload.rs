//! Declarative workload specs and the simulation runner.
//!
//! A [`WorkloadSpec`] describes a whole concurrent scenario — session
//! count, entity universe, access-pattern [`Profile`], client-abort
//! cadence, virtual think time, durability, an optional [`FaultPlan`] —
//! as plain data. [`run_spec`] executes it under a [`VirtualRuntime`]
//! seeded from the caller: every session and a sweeper that calls
//! [`Engine::gc_sweep`] every [`WorkloadSpec::gc_interval_us`] (the
//! engine has no GC task; the sweeps keep explicit passes racing
//! deletion at the source in the explored schedules) become
//! simulation tasks. The WAL has no task either: its flushes run on
//! whichever session waits first. The interleaving is chosen by the
//! seed. Every engine lifetime ends with the same oracle battery, which
//! no spec can switch off: the lockstep full-scheduler replay and the
//! CSR check ([`deltx_engine::RecordedHistory::replay_full`] and
//! `is_csr`), balance conservation (not for [`Profile::ReadMostly`],
//! nor after a crash), and the boundary-summary audit; the run ends
//! with the live-graph bound, [`live_graph_bound`]`(sessions, entities)`,
//! on the peak the monitor task sampled. The
//! returned [`SimReport`] is a pure function of `(spec, seed)` — the
//! determinism self-test runs every spec twice and demands equality,
//! fingerprint included.
//!
//! # In-sim crash recovery
//!
//! Crash plans run crash *and* recovery inside one simulated timeline:
//! the post-crash [`Engine::open`] replay — including the recovered
//! engine's WAL flushes — executes on the same
//! [`VirtualRuntime`], so a `(spec, seed)` coordinate covers the whole
//! crash/recover/continue story with zero OS-runtime threads, and the
//! schedule-space search can explore recovery interleavings too.
//! One runner body serves every [`FaultPlan`]: a loop of traffic waves
//! ([`FaultPlan::CrashLoop`] crashes and *keeps running* on the
//! recovered engine, `waves` engine lifetimes in total; every other
//! plan runs one wave, a [`FaultPlan::Disk`] one over a faulty device),
//! then, for [`FaultPlan::Crash`] and [`FaultPlan::Disk`], one recovery
//! that checks the recovered image.
//!
//! # Search integration
//!
//! [`run_spec_traced`] is the search driver's entry point: it runs a
//! spec under an explicit [`SimConfig`] (scheduling policy, trace
//! recording) and returns failures as data — the [`TracedRun`] carries
//! the decision trace and the failure headline instead of panicking.
//! Specs themselves serialize to a line-based text form
//! ([`WorkloadSpec::to_text`]) so a minimized repro file can carry its
//! (shrunk) workload along with the schedule trace.

use crate::sim::{ScheduleTrace, SimConfig, TaskHandle, VirtualRuntime};
use deltx_engine::{
    live_graph_bound, CrashPoint, DurabilityConfig, Engine, EngineConfig, EngineError, Event,
    FaultSpec, FaultyStorage, FsStorage, MetricsSnapshot, RecoverPolicy, RecoveryReport, Runtime,
    Session, WalHealth, WalStorage,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How each session picks the entities a transaction touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The stress suite's banking mix: transfer between two accounts,
    /// `cross_pct`% of pairs spanning shards (uniform), the rest
    /// confined to one shard (same residue class).
    Transfer {
        /// Percentage of transactions whose two accounts live in
        /// different shards.
        cross_pct: u32,
    },
    /// Hot-pair skew: `cross_pct`% of traffic hits
    /// one hot cross-shard pair (entity 0 in shard 0 ↔ entity 1 in
    /// shard 1); the rest is uniform single-shard traffic over the
    /// remaining shards.
    HotKeySkew {
        /// Percentage of transactions on the hot pair.
        cross_pct: u32,
    },
    /// Long analytics readers (each scans `scan` entities with think
    /// time between transactions, then rolls back) pinning versions
    /// while the other sessions run the transfer mix — the paper's
    /// Example 1 shape, where careless deletion grows the graph.
    LongReaders {
        /// Sessions (out of `WorkloadSpec::sessions`) that scan.
        readers: usize,
        /// Entities each scan reads before rolling back.
        scan: u32,
    },
    /// §5-style batch jobs: each transaction reads a contiguous block
    /// of entities (its declared access set) and rewrites the whole
    /// block atomically — values rotate within the block, so the
    /// global sum is conserved.
    Batch {
        /// Entities per block.
        block: u32,
    },
    /// Read-mostly fanout: every transaction reads `fan` entities;
    /// one in ten also bumps a counter entity. Balance conservation
    /// does not apply (writes are increments, not transfers).
    ReadMostly {
        /// Entities read per transaction.
        fan: u32,
    },
    /// Adversarial cross-shard chains: each transaction reads one
    /// entity in each of `len` *consecutive* shards and moves value
    /// from the first to the last, rewriting the middle entities
    /// unchanged — so every commit is a multi-shard escalation whose
    /// closure overlaps its neighbors', the worst case for
    /// own-shards-first locking.
    CrossShardChain {
        /// Shards each chain spans.
        len: usize,
    },
}

/// A deterministic storage-level fault, injected through the WAL's
/// [`FaultyStorage`] VFS wrapper. Unlike [`FaultPlan::Crash`] (which
/// kills the whole process image), a disk fault leaves the engine
/// *running* against a misbehaving device — the regime where the
/// error-policy tiers (bounded retry, fsync fail-stop, ENOSPC
/// degradation, the recovery scrub) are the thing under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Appends `[at, at + burst)` fail with a transient error; the
    /// flusher's bounded retry must absorb the burst invisibly
    /// (`burst` must stay below the retry budget — see `precheck`).
    TransientAppend {
        /// First failing append (0-based, counted across segments).
        at: u64,
        /// Consecutive failing appends.
        burst: u32,
    },
    /// The `at`-th fsync fails *and the device drops the un-synced
    /// suffix* (the fsyncgate model). The log must poison itself
    /// fail-stop: reads keep working, writes refuse loudly, and no
    /// lost byte is ever acknowledged.
    FsyncFail {
        /// Failing fsync (0-based).
        at: u64,
    },
    /// The device holds only `bytes`; appends past it fail with
    /// ENOSPC. Retiring superseded segments may free enough space —
    /// otherwise the engine must degrade to loud read-only, never
    /// wedge.
    Capacity {
        /// Device capacity in bytes.
        bytes: u64,
    },
    /// After a clean run, flip one sector of the lowest sealed
    /// segment and recover: [`RecoverPolicy::Strict`] must refuse to
    /// open, naming the damage; [`RecoverPolicy::Quarantine`] must
    /// isolate exactly that segment and report the lost LSN range.
    CorruptSealed {
        /// Sector index to flip (clamped to the segment's last).
        sector: u32,
    },
}

/// A fault to inject mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// Run to completion unharmed.
    None,
    /// Arm `point` on the WAL once `after_commits` commits have been
    /// acknowledged, then let the surviving sessions drain against
    /// the crashed log; the runner recovers *in-sim* afterwards and
    /// checks the recovered image. Requires `durable`.
    Crash {
        /// Acknowledged commits before the crash fires.
        after_commits: u64,
        /// Which crash point to arm.
        point: CrashPoint,
    },
    /// Crash and *keep going*: `waves` engine lifetimes inside one
    /// simulated timeline. Every wave but the last arms `point` after
    /// its own `after_commits` acknowledgements; every recovery
    /// replays the WAL on the sim runtime, checks the recovered
    /// balance sum, and runs a fresh round of sessions on the
    /// recovered engine. The full oracle battery runs per wave.
    /// Requires `durable` and `waves >= 2`.
    CrashLoop {
        /// Acknowledged commits (per wave) before the crash fires.
        after_commits: u64,
        /// Which crash point to arm.
        point: CrashPoint,
        /// Total engine lifetimes (the last one runs to completion).
        waves: usize,
    },
    /// Run against a [`FaultyStorage`]-wrapped device injecting
    /// `fault` deterministically, then recover from the surviving
    /// bytes on a clean device and check what the scrub makes of
    /// them. Requires `durable`.
    Disk {
        /// The storage-level fault schedule.
        fault: DiskFault,
    },
}

/// A complete declarative scenario. See the zoo ([`crate::zoo`]) for
/// the stock instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Scenario name (reports, summaries, failure messages).
    pub name: String,
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Transactions each session attempts.
    pub txns_per_session: usize,
    /// Entity universe size.
    pub entities: u32,
    /// Engine shards.
    pub shards: usize,
    /// Access pattern.
    pub profile: Profile,
    /// Client rollback cadence: every `abort_every`-th transaction is
    /// rolled back after its reads (0 = never).
    pub abort_every: usize,
    /// Virtual think time between a session's transactions, in
    /// nanoseconds. Must be nonzero for the sweeper to run: the
    /// virtual clock only advances when every task is idle.
    pub think_ns: u64,
    /// Tick of the workload's sweeper task, in virtual microseconds: a
    /// schedule parameter of the simulator, not an engine option.
    pub gc_interval_us: u64,
    /// Run with the write-ahead log (group commit under the sim).
    pub durable: bool,
    /// Fault to inject.
    pub fault: FaultPlan,
}

fn crash_point_text(p: CrashPoint) -> String {
    match p {
        CrashPoint::BeforeAppend => "before_append".into(),
        CrashPoint::AfterAppendBeforeFlush => "after_append".into(),
        CrashPoint::MidFlushTorn => "mid_flush_torn".into(),
        CrashPoint::TornWriteAt(off) => format!("torn_write_at:{off}"),
        CrashPoint::AfterFlushBeforeVisibility => "after_flush".into(),
    }
}

fn crash_point_parse(s: &str) -> Result<CrashPoint, String> {
    match s {
        "before_append" => Ok(CrashPoint::BeforeAppend),
        "after_append" => Ok(CrashPoint::AfterAppendBeforeFlush),
        "mid_flush_torn" => Ok(CrashPoint::MidFlushTorn),
        "after_flush" => Ok(CrashPoint::AfterFlushBeforeVisibility),
        other => match other.strip_prefix("torn_write_at:") {
            Some(off) => off
                .parse()
                .map(CrashPoint::TornWriteAt)
                .map_err(|_| format!("bad torn_write_at offset `{off}`")),
            None => Err(format!("unknown crash point `{other}`")),
        },
    }
}

fn disk_fault_text(f: DiskFault) -> String {
    match f {
        DiskFault::TransientAppend { at, burst } => format!("transient_append:{at}:{burst}"),
        DiskFault::FsyncFail { at } => format!("fsync_fail:{at}"),
        DiskFault::Capacity { bytes } => format!("capacity:{bytes}"),
        DiskFault::CorruptSealed { sector } => format!("corrupt_sealed:{sector}"),
    }
}

fn disk_fault_parse(s: &str) -> Result<DiskFault, String> {
    let (kind, rest) = s
        .split_once(':')
        .ok_or_else(|| format!("bad disk fault `{s}`"))?;
    fn num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("bad disk fault {what} `{v}`"))
    }
    match kind {
        "transient_append" => {
            let (a, b) = rest
                .split_once(':')
                .ok_or_else(|| format!("bad disk fault `{s}` (want transient_append:AT:BURST)"))?;
            Ok(DiskFault::TransientAppend {
                at: num(a, "at")?,
                burst: num(b, "burst")?,
            })
        }
        "fsync_fail" => Ok(DiskFault::FsyncFail {
            at: num(rest, "at")?,
        }),
        "capacity" => Ok(DiskFault::Capacity {
            bytes: num(rest, "bytes")?,
        }),
        "corrupt_sealed" => Ok(DiskFault::CorruptSealed {
            sector: num(rest, "sector")?,
        }),
        other => Err(format!("unknown disk fault `{other}`")),
    }
}

fn flag(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

impl WorkloadSpec {
    /// Line-based text form (`key value` per line) — embedded in
    /// minimized repro files so a repro carries its shrunk workload.
    /// [`WorkloadSpec::from_text`] inverts it exactly.
    pub fn to_text(&self) -> String {
        let profile = match self.profile {
            Profile::Transfer { cross_pct } => format!("transfer {cross_pct}"),
            Profile::HotKeySkew { cross_pct } => format!("hot_key_skew {cross_pct}"),
            Profile::LongReaders { readers, scan } => format!("long_readers {readers} {scan}"),
            Profile::Batch { block } => format!("batch {block}"),
            Profile::ReadMostly { fan } => format!("read_mostly {fan}"),
            Profile::CrossShardChain { len } => format!("cross_shard_chain {len}"),
        };
        let fault = match self.fault {
            FaultPlan::None => "none".into(),
            FaultPlan::Crash {
                after_commits,
                point,
            } => format!("crash {after_commits} {}", crash_point_text(point)),
            FaultPlan::CrashLoop {
                after_commits,
                point,
                waves,
            } => format!(
                "crash_loop {after_commits} {} {waves}",
                crash_point_text(point)
            ),
            FaultPlan::Disk { fault } => format!("disk {}", disk_fault_text(fault)),
        };
        format!(
            "name {}\nsessions {}\ntxns {}\nentities {}\nshards {}\nprofile {}\n\
             abort_every {}\nthink_ns {}\ngc_interval_us {}\ndurable {}\nfault {}\n",
            self.name,
            self.sessions,
            self.txns_per_session,
            self.entities,
            self.shards,
            profile,
            self.abort_every,
            self.think_ns,
            self.gc_interval_us,
            flag(self.durable),
            fault,
        )
    }

    /// Parses the [`WorkloadSpec::to_text`] form. Unknown keys are
    /// errors; missing keys keep conservative defaults (the `name`
    /// key is required).
    pub fn from_text(text: &str) -> Result<WorkloadSpec, String> {
        fn num<T: std::str::FromStr>(v: Option<&str>, what: &str) -> Result<T, String> {
            v.and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("spec: bad or missing {what}"))
        }
        let mut spec = WorkloadSpec {
            name: String::new(),
            sessions: 1,
            txns_per_session: 1,
            entities: 8,
            shards: 1,
            profile: Profile::Transfer { cross_pct: 0 },
            abort_every: 0,
            think_ns: 0,
            gc_interval_us: 50,
            durable: false,
            fault: FaultPlan::None,
        };
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |e: String| format!("spec line {}: {e}", i + 1);
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap_or("");
            match key {
                "name" => {
                    spec.name = parts.next().unwrap_or("").to_string();
                }
                "sessions" => spec.sessions = num(parts.next(), "sessions").map_err(at)?,
                "txns" => spec.txns_per_session = num(parts.next(), "txns").map_err(at)?,
                "entities" => spec.entities = num(parts.next(), "entities").map_err(at)?,
                "shards" => spec.shards = num(parts.next(), "shards").map_err(at)?,
                "abort_every" => spec.abort_every = num(parts.next(), "abort_every").map_err(at)?,
                "think_ns" => spec.think_ns = num(parts.next(), "think_ns").map_err(at)?,
                "gc_interval_us" => {
                    spec.gc_interval_us = num(parts.next(), "gc_interval_us").map_err(at)?
                }
                "durable" => spec.durable = parts.next() == Some("1"),
                "profile" => {
                    spec.profile = match parts.next() {
                        Some("transfer") => Profile::Transfer {
                            cross_pct: num(parts.next(), "cross_pct").map_err(at)?,
                        },
                        Some("hot_key_skew") => Profile::HotKeySkew {
                            cross_pct: num(parts.next(), "cross_pct").map_err(at)?,
                        },
                        Some("long_readers") => Profile::LongReaders {
                            readers: num(parts.next(), "readers").map_err(at)?,
                            scan: num(parts.next(), "scan").map_err(at)?,
                        },
                        Some("batch") => Profile::Batch {
                            block: num(parts.next(), "block").map_err(at)?,
                        },
                        Some("read_mostly") => Profile::ReadMostly {
                            fan: num(parts.next(), "fan").map_err(at)?,
                        },
                        Some("cross_shard_chain") => Profile::CrossShardChain {
                            len: num(parts.next(), "len").map_err(at)?,
                        },
                        other => return Err(at(format!("unknown profile {other:?}"))),
                    };
                }
                "fault" => {
                    spec.fault = match parts.next() {
                        Some("none") | None => FaultPlan::None,
                        Some("crash") => FaultPlan::Crash {
                            after_commits: num(parts.next(), "after_commits").map_err(at)?,
                            point: crash_point_parse(parts.next().unwrap_or("")).map_err(at)?,
                        },
                        Some("crash_loop") => FaultPlan::CrashLoop {
                            after_commits: num(parts.next(), "after_commits").map_err(at)?,
                            point: crash_point_parse(parts.next().unwrap_or("")).map_err(at)?,
                            waves: num(parts.next(), "waves").map_err(at)?,
                        },
                        Some("disk") => FaultPlan::Disk {
                            fault: disk_fault_parse(parts.next().unwrap_or("")).map_err(at)?,
                        },
                        other => return Err(at(format!("unknown fault {other:?}"))),
                    };
                }
                other => return Err(at(format!("unknown spec key `{other}`"))),
            }
        }
        if spec.name.is_empty() {
            return Err("spec: missing `name`".into());
        }
        Ok(spec)
    }
}

/// What a simulated run produced. Everything here is virtual-time or
/// count data, so two runs of the same `(spec, seed)` must compare
/// equal — the determinism self-test asserts exactly that. Counters
/// are summed across crash waves; `peak_nodes` is the maximum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Scenario name.
    pub name: String,
    /// The seed the interleaving was drawn from.
    pub seed: u64,
    /// Commits acknowledged to clients.
    pub commits: u64,
    /// Scheduler + durability failures observed by clients.
    pub failures: u64,
    /// Client rollbacks (including reader scans).
    pub client_aborts: u64,
    /// GC deletions over the run.
    pub gc_deletions: u64,
    /// Peak live-graph nodes sampled by the monitor task.
    pub peak_nodes: usize,
    /// Virtual nanoseconds the run spanned.
    pub virtual_ns: u64,
    /// Scheduling decisions the simulator took.
    pub switches: u64,
    /// FNV-1a digest of the recorded history, final entity values,
    /// and counters — the bit-identical-replay witness.
    pub fingerprint: u64,
    /// Commits replayed by in-sim recovery (crash plans only).
    pub commits_replayed: u64,
}

/// One schedule's full result, for search drivers: failure as data
/// plus (optionally) the decision trace.
#[derive(Debug)]
pub struct TracedRun {
    /// The report of a green run (`None` when the run failed).
    pub report: Option<SimReport>,
    /// The failure headline of a red run (`None` when green).
    pub failure: Option<String>,
    /// The recorded decision trace (when the config asked for one).
    pub trace: Option<ScheduleTrace>,
    /// Scheduling decisions taken.
    pub switches: u64,
    /// Trace-replay divergences (recorded pick not runnable).
    pub divergences: u64,
}

impl TracedRun {
    /// Whether the run failed (oracle panic, deadlock, task panic).
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Why a spec could not run.
#[derive(Debug)]
pub enum SimError {
    /// The spec asks for machinery the runner does not have yet.
    Unsupported(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unsupported(m) => write!(f, "unsupported workload: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100_0000_01B3);
    }
}

/// Spawns a task that gets a handle back to the runtime (for think
/// time) — a thin sugar over [`VirtualRuntime::spawn`]'s `'static`
/// closure.
fn spawn_on(
    rt: &Arc<VirtualRuntime>,
    name: &str,
    f: impl FnOnce(&Arc<VirtualRuntime>) + Send + 'static,
) -> TaskHandle {
    let inner = Arc::clone(rt);
    rt.spawn(name, Box::new(move || f(&inner)))
}

/// What one transaction attempt came to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TxnOutcome {
    /// Commit acknowledged.
    Committed,
    /// The client rolled it back on purpose (cadence or pure read).
    RolledBack,
    /// A scheduler or durability abort.
    Failed,
}

/// One transaction of the given profile.
fn run_txn(
    e: &Engine,
    spec: &WorkloadSpec,
    rng: &mut StdRng,
    tid: usize,
    i: usize,
    is_reader: bool,
) -> TxnOutcome {
    let n = spec.entities;
    let shards = spec.shards as u32;
    let span = (n / shards).max(1);
    let mut t = e.begin();
    let rollback = spec.abort_every != 0 && i.is_multiple_of(spec.abort_every);

    if is_reader {
        // Long analytics reader: scan a window, then roll back.
        let scan = match spec.profile {
            Profile::LongReaders { scan, .. } => scan,
            _ => 4,
        };
        let base = rng.gen_range(0..n);
        for k in 0..scan {
            if t.read((base + k) % n).is_err() {
                return TxnOutcome::Failed;
            }
        }
        t.abort();
        return TxnOutcome::RolledBack;
    }

    match spec.profile {
        Profile::Transfer { .. } | Profile::LongReaders { .. } => {
            let cross_pct = match spec.profile {
                Profile::Transfer { cross_pct } => cross_pct,
                _ => 30,
            };
            let (x, y) = if rng.gen_range(0u32..100) < cross_pct {
                (rng.gen_range(0..n), rng.gen_range(0..n))
            } else {
                let s = rng.gen_range(0..shards);
                (
                    (s + shards * rng.gen_range(0..span)) % n,
                    (s + shards * rng.gen_range(0..span)) % n,
                )
            };
            transfer(t, rng, rollback, x, y)
        }
        Profile::HotKeySkew { cross_pct } => {
            let (x, y) = if rng.gen_range(0u32..100) < cross_pct {
                (0, 1 % n) // the hot shard-0 ↔ shard-1 pair
            } else {
                let s = if shards > 2 {
                    2 + rng.gen_range(0..shards - 2)
                } else {
                    rng.gen_range(0..shards)
                };
                (
                    (s + shards * rng.gen_range(0..span)) % n,
                    (s + shards * rng.gen_range(0..span)) % n,
                )
            };
            transfer(t, rng, rollback, x, y)
        }
        Profile::Batch { block } => {
            let block = block.clamp(1, n);
            let blocks = (n / block).max(1);
            let base = (((tid + i) as u32) % blocks) * block;
            let mut vals = Vec::with_capacity(block as usize);
            for k in 0..block {
                let x = (base + k) % n;
                match t.read(x) {
                    Ok(v) => vals.push((x, v)),
                    Err(_) => return TxnOutcome::Failed,
                }
            }
            if rollback {
                t.abort();
                return TxnOutcome::RolledBack;
            }
            // Rotate values within the block: conserves the sum.
            let first = vals[0].1;
            for w in 0..vals.len() {
                let next = if w + 1 < vals.len() {
                    vals[w + 1].1
                } else {
                    first
                };
                t.write(vals[w].0, next);
            }
            commit_outcome(t)
        }
        Profile::ReadMostly { fan } => {
            for _ in 0..fan {
                if t.read(rng.gen_range(0..n)).is_err() {
                    return TxnOutcome::Failed;
                }
            }
            if rollback || !i.is_multiple_of(10) {
                t.abort(); // pure read txn: nothing to install
                return TxnOutcome::RolledBack;
            }
            let x = rng.gen_range(0..n);
            let Ok(v) = t.read(x) else {
                return TxnOutcome::Failed;
            };
            t.write(x, v + 1); // counter bump: not a transfer
            commit_outcome(t)
        }
        Profile::CrossShardChain { len } => {
            let len = len.clamp(2, spec.shards) as u32;
            let s0 = rng.gen_range(0..shards);
            let mut chain: Vec<(u32, i64)> = Vec::with_capacity(len as usize);
            for k in 0..len {
                let x = ((s0 + k) % shards + shards * rng.gen_range(0..span)) % n;
                if chain.iter().any(|&(px, _)| px == x) {
                    continue; // tiny universes can fold the chain
                }
                match t.read(x) {
                    Ok(v) => chain.push((x, v)),
                    Err(_) => return TxnOutcome::Failed,
                }
            }
            if rollback || chain.len() < 2 {
                t.abort();
                return TxnOutcome::RolledBack;
            }
            let amount = rng.gen_range(1i64..10);
            let last = chain.len() - 1;
            // Move value down the whole chain; middle entities are
            // rewritten unchanged so every hop is a write conflict.
            for (k, &(x, v)) in chain.iter().enumerate() {
                let nv = if k == 0 {
                    v - amount
                } else if k == last {
                    v + amount
                } else {
                    v
                };
                t.write(x, nv);
            }
            commit_outcome(t)
        }
    }
}

fn transfer(mut t: Session, rng: &mut StdRng, rollback: bool, x: u32, y: u32) -> TxnOutcome {
    let Ok(a) = t.read(x) else {
        return TxnOutcome::Failed;
    };
    let b = if y != x {
        match t.read(y) {
            Ok(v) => v,
            Err(_) => return TxnOutcome::Failed,
        }
    } else {
        0
    };
    if rollback {
        t.abort();
        return TxnOutcome::RolledBack;
    }
    let amount = rng.gen_range(1i64..10);
    if y != x {
        t.write(x, a - amount);
        t.write(y, b + amount);
    } else {
        t.write(x, a);
    }
    if t.commit().is_ok() {
        TxnOutcome::Committed
    } else {
        TxnOutcome::Failed
    }
}

fn commit_outcome(t: Session) -> TxnOutcome {
    if t.commit().is_ok() {
        TxnOutcome::Committed
    } else {
        TxnOutcome::Failed
    }
}

/// Opens the spec's engine on the simulated runtime. A durable spec
/// logs to `dir` in small segments, so GC-driven truncation triggers
/// in-run; a disk plan's are tiny, so several roll and seal in-run:
/// sealed segments are what ENOSPC retirement frees and what corruption
/// targets. `device` stands in for the plain file system under the log.
fn open(
    spec: &WorkloadSpec,
    rt: &Arc<VirtualRuntime>,
    dir: Option<&Path>,
    record_history: bool,
    device: Option<Arc<dyn WalStorage>>,
    recover: RecoverPolicy,
) -> Result<(Engine, RecoveryReport), EngineError> {
    let disk = match spec.fault {
        FaultPlan::Disk { fault } => Some(fault),
        _ => None,
    };
    Engine::open(EngineConfig {
        shards: spec.shards,
        record_history,
        durability: dir.map(|dir| DurabilityConfig {
            segment_bytes: if disk.is_some() { 1024 } else { 16 * 1024 },
            fsync: matches!(disk, Some(DiskFault::FsyncFail { .. })),
            storage: device,
            recover,
            ..DurabilityConfig::new(dir.to_path_buf())
        }),
        runtime: Arc::clone(rt) as Arc<dyn Runtime>,
    })
}

fn precheck(spec: &WorkloadSpec) -> Result<(), SimError> {
    match spec.fault {
        FaultPlan::Crash { .. } | FaultPlan::CrashLoop { .. } if !spec.durable => {
            return Err(SimError::Unsupported(
                "crash fault plans require `durable: true` (the crash is armed on the WAL)".into(),
            ));
        }
        FaultPlan::CrashLoop { waves, .. } if waves < 2 => {
            return Err(SimError::Unsupported(
                "FaultPlan::CrashLoop needs `waves >= 2` (the last wave runs clean)".into(),
            ));
        }
        FaultPlan::Disk { .. } if !spec.durable => {
            return Err(SimError::Unsupported(
                "disk fault plans require `durable: true` (the fault is injected under the WAL)"
                    .into(),
            ));
        }
        FaultPlan::Disk {
            fault: DiskFault::TransientAppend { burst, .. },
        } if !(1..=3).contains(&burst) => {
            return Err(SimError::Unsupported(
                "DiskFault::TransientAppend needs `1 <= burst <= 3`: the flusher retries 4 \
                 attempts, so a longer burst is a permanent failure, not a transient one"
                    .into(),
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Distinguishes concurrent runs of the same `(spec, seed)` within one
/// process so their WAL directories never collide.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Prechecks `spec`, then runs `f` over a fresh WAL directory (for a
/// durable spec) and removes the directory afterwards.
fn in_wal_dir<T>(
    spec: &WorkloadSpec,
    seed: u64,
    f: impl FnOnce(Option<&Path>) -> T,
) -> Result<T, SimError> {
    precheck(spec)?;
    let wal_dir = spec.durable.then(|| {
        std::env::temp_dir().join(format!(
            "deltx-sim-{}-{seed}-{}-{}",
            spec.name,
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    });
    let clean = || {
        if let Some(d) = &wal_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    };
    clean();
    let out = f(wal_dir.as_deref());
    clean();
    Ok(out)
}

/// Counters one traffic wave produced.
struct WaveStats {
    commits: u64,
    failures: u64,
    client_aborts: u64,
    peak: usize,
    crashed: bool,
}

/// One engine lifetime's worth of traffic: spawns the live-graph
/// monitor, the sweeper and every session as sim tasks, joins them
/// (so none outlives the caller's engine), and returns the wave
/// counters. `crash_plan` arms the WAL crash point after the given
/// number of acknowledged commits.
fn traffic_wave(
    spec: &WorkloadSpec,
    seed: u64,
    rt: &Arc<VirtualRuntime>,
    engine: &Arc<Engine>,
    wave: usize,
    crash_plan: Option<(u64, CrashPoint)>,
) -> WaveStats {
    let commits = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let client_aborts = Arc::new(AtomicU64::new(0));
    let crash_armed = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));

    // Monitor task: samples the live graph at a fixed virtual
    // cadence — deterministic because the schedule is.
    let mon = {
        let (e, stop, peak) = (Arc::clone(engine), Arc::clone(&stop), Arc::clone(&peak));
        spawn_on(rt, &format!("sim-monitor-{wave}"), move |rtm| loop {
            rtm.sleep(Duration::from_micros(200));
            peak.fetch_max(e.graph_size().nodes, Ordering::Relaxed);
            if stop.load(Ordering::Relaxed) {
                return;
            }
        })
    };

    // Sweeper task: explicit GC passes at the spec's cadence, racing
    // the sessions' own deletions wherever the schedule puts them.
    let sweeper = {
        let (e, stop) = (Arc::clone(engine), Arc::clone(&stop));
        let tick = Duration::from_micros(spec.gc_interval_us.max(1));
        spawn_on(rt, &format!("sim-sweeper-{wave}"), move |rts| loop {
            rts.sleep(tick);
            e.gc_sweep();
            if stop.load(Ordering::Relaxed) {
                return;
            }
        })
    };

    let readers = match spec.profile {
        Profile::LongReaders { readers, .. } => readers.min(spec.sessions),
        _ => 0,
    };

    let mut handles = Vec::with_capacity(spec.sessions);
    for tid in 0..spec.sessions {
        let e = Arc::clone(engine);
        let spec2 = spec.clone();
        let (commits, failures, client_aborts, crash_armed) = (
            Arc::clone(&commits),
            Arc::clone(&failures),
            Arc::clone(&client_aborts),
            Arc::clone(&crash_armed),
        );
        let is_reader = tid < readers;
        handles.push(spawn_on(rt, &format!("session-{wave}-{tid}"), move |rts| {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x5E55_0000 + tid as u64 + ((wave as u64) << 20)));
            for i in 0..spec2.txns_per_session {
                match run_txn(&e, &spec2, &mut rng, tid, i, is_reader) {
                    TxnOutcome::Committed => {
                        let c = commits.fetch_add(1, Ordering::SeqCst) + 1;
                        if let Some((after_commits, point)) = crash_plan {
                            if c >= after_commits && !crash_armed.swap(true, Ordering::SeqCst) {
                                e.inject_crash(point);
                            }
                        }
                    }
                    TxnOutcome::RolledBack => {
                        client_aborts.fetch_add(1, Ordering::SeqCst);
                    }
                    TxnOutcome::Failed => {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
                if spec2.think_ns > 0 {
                    rts.sleep(Duration::from_nanos(spec2.think_ns));
                }
            }
        }));
    }
    for h in handles {
        h.join();
    }
    stop.store(true, Ordering::SeqCst);
    mon.join();
    sweeper.join();

    WaveStats {
        commits: commits.load(Ordering::SeqCst),
        failures: failures.load(Ordering::SeqCst),
        client_aborts: client_aborts.load(Ordering::SeqCst),
        peak: peak.load(Ordering::Relaxed),
        crashed: crash_armed.load(Ordering::SeqCst),
    }
}

/// The engine's balances, entity by entity.
fn image(spec: &WorkloadSpec, engine: &Engine) -> Vec<i64> {
    (0..spec.entities).map(|x| engine.peek(x)).collect()
}

/// The balance-conservation check, on a wave's final values and on
/// every recovered image: transfers only move value, so the balances
/// sum to 0. Skipped for [`Profile::ReadMostly`], whose writes bump
/// counters instead.
fn assert_conserved(spec: &WorkloadSpec, seed: u64, what: &str, balances: &[i64]) {
    if !matches!(spec.profile, Profile::ReadMostly { .. }) {
        assert_eq!(
            balances.iter().sum::<i64>(),
            0,
            "[{} seed {seed}] {what} must conserve the total balance",
            spec.name
        );
    }
}

/// The post-wave oracle battery plus the fingerprint fold: Theorem 2's
/// lockstep replay, ground-truth CSR, balance conservation (skipped
/// when the wave crashed — the survivors drained mid-transfer against
/// a dead log), and the boundary-summary audit, which turns a corrupt
/// reach mask (a missed cross-shard cycle, or silent over-locking)
/// into a failure the schedule search can find.
#[allow(clippy::too_many_arguments)]
fn wave_oracles(
    spec: &WorkloadSpec,
    seed: u64,
    wave: usize,
    engine: &Engine,
    m: &MetricsSnapshot,
    finals: &[i64],
    crashed: bool,
    fp: &mut u64,
) {
    let at = format!("[{} seed {seed}] wave {wave}", spec.name);
    let history = engine.recorded_history().expect("recording enabled");
    let full = history
        .replay_full()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    assert!(
        history.is_csr(&full),
        "{at}: accepted subschedule must be CSR"
    );
    if !crashed {
        assert_conserved(spec, seed, &format!("wave {wave}: transfers"), finals);
    }
    engine
        .summary_audit()
        .unwrap_or_else(|e| panic!("{at}: {e}"));

    // ---- Fingerprint --------------------------------------------
    for ev in &history.events {
        match ev {
            Event::Step { step, outcome } => fnv1a(fp, format!("{step:?}|{outcome:?};").as_bytes()),
            Event::ClientAbort(t) => fnv1a(fp, format!("CA{t:?};").as_bytes()),
        }
    }
    for v in finals {
        fnv1a(fp, &v.to_le_bytes());
    }
    for c in [m.commits, m.aborts_scheduler, m.aborts_voluntary] {
        fnv1a(fp, &c.to_le_bytes());
    }
}

/// The degraded-mode contract, probed live on a poisoned or full
/// engine: reads still work, and a write commit is refused with a
/// loud [`EngineError::Durability`] — no panic, no hang, no silent
/// acknowledgement.
fn probe_degraded(spec: &WorkloadSpec, seed: u64, engine: &Engine) {
    assert!(
        engine.degraded(),
        "[{} seed {seed}] an unhealthy WAL must flip the engine to degraded",
        spec.name
    );
    let mut s = engine.begin();
    let v = s.read(0).unwrap_or_else(|e| {
        panic!(
            "[{} seed {seed}] degraded engine must serve reads: {e:?}",
            spec.name
        )
    });
    s.write(0, v);
    match s.commit() {
        Err(EngineError::Durability(_)) => {}
        other => panic!(
            "[{} seed {seed}] degraded engine must refuse writes with \
             EngineError::Durability, got {other:?}",
            spec.name
        ),
    }
}

/// The error-policy contract of a disk fault, checked after its wave:
/// bounded retry absorbs transient bursts; any fsync failure poisons
/// the log fail-stop (and the engine goes loudly read-only); ENOSPC
/// ends either healthy or refusing writes; the
/// corruption wave itself runs clean. Returns the log's health.
fn check_health(spec: &WorkloadSpec, seed: u64, engine: &Engine, fault: DiskFault) -> WalHealth {
    let health = engine.wal_health();
    match fault {
        DiskFault::TransientAppend { .. } => assert_eq!(
            health,
            WalHealth::Ok,
            "[{} seed {seed}] bounded retry must absorb a transient append burst",
            spec.name
        ),
        DiskFault::FsyncFail { .. } => {
            assert_eq!(
                health,
                WalHealth::Poisoned,
                "[{} seed {seed}] an fsync failure must poison the log fail-stop",
                spec.name
            );
            probe_degraded(spec, seed, engine);
        }
        DiskFault::Capacity { .. } => match health {
            // Retired segments left room for every write.
            WalHealth::Ok => {}
            // The device stayed full: loud read-only, never wedged.
            WalHealth::NoSpace => probe_degraded(spec, seed, engine),
            other => panic!(
                "[{} seed {seed}] ENOSPC must end rescued (Ok) or refusing \
                 (NoSpace), got {other:?}",
                spec.name
            ),
        },
        DiskFault::CorruptSealed { .. } => assert_eq!(
            health,
            WalHealth::Ok,
            "[{} seed {seed}] the corruption wave itself runs clean",
            spec.name
        ),
    }
    health
}

/// Plants bit rot in a sealed mid-log segment and recovers:
/// [`RecoverPolicy::Strict`] must refuse to open, naming the way out,
/// and [`RecoverPolicy::Quarantine`] must open, isolating exactly the
/// damaged segment and reporting the lost LSN range. The balance sum
/// is not checked — records are gone, and the accurate loud report is
/// the contract. Returns the quarantined engine, or `None` when the log
/// is too short to hold a victim.
fn corrupt_and_scrub(
    spec: &WorkloadSpec,
    seed: u64,
    rt: &Arc<VirtualRuntime>,
    dir: &Path,
    device: &FaultyStorage,
    sector: u32,
    fp: &mut u64,
) -> Option<(Engine, RecoveryReport)> {
    // Mid-log damage needs valid records *after* the victim: pick the
    // lowest segment that has a non-empty successor.
    let segs = device.list().unwrap_or_default();
    let victim = segs.iter().enumerate().find_map(|(i, &s)| {
        segs[i + 1..]
            .iter()
            .any(|&t| device.size(t).is_ok_and(|b| b > 0))
            .then_some(s)
    })?;
    if !device.corrupt_sector(victim, sector).unwrap_or(false) {
        return None;
    }
    match open(spec, rt, Some(dir), false, None, RecoverPolicy::Strict) {
        Err(e) => {
            let msg = format!("{e:?}");
            assert!(
                msg.contains("Quarantine"),
                "[{} seed {seed}] the strict refusal must name the \
                 RecoverPolicy::Quarantine escape hatch: {msg}",
                spec.name
            );
            fnv1a(fp, msg.as_bytes());
        }
        Ok(_) => panic!(
            "[{} seed {seed}] mid-log corruption must refuse to open \
             under RecoverPolicy::Strict",
            spec.name
        ),
    }
    let (recovered, rec) = open(spec, rt, Some(dir), false, None, RecoverPolicy::Quarantine)
        .unwrap_or_else(|e| {
            panic!(
                "[{} seed {seed}] RecoverPolicy::Quarantine must open past \
                 mid-log corruption: {e:?}",
                spec.name
            )
        });
    assert_eq!(
        rec.scan
            .quarantined
            .iter()
            .map(|q| q.segment)
            .collect::<Vec<_>>(),
        vec![victim],
        "[{} seed {seed}] quarantine must isolate exactly the corrupted segment",
        spec.name
    );
    for q in &rec.scan.quarantined {
        fnv1a(fp, &q.segment.to_le_bytes());
        fnv1a(fp, &q.lost_after.to_le_bytes());
        fnv1a(fp, &q.resume_at.to_le_bytes());
    }
    Some((recovered, rec))
}

/// The whole scenario, executed inside the sim as the root task. One
/// loop runs the traffic waves: a [`FaultPlan::CrashLoop`]'s `waves`
/// engine lifetimes, each recovered in-sim from the one before,
/// otherwise one. A disk fault's wave runs over a [`FaultyStorage`]
/// device and ends with the fault's health contract. A
/// [`FaultPlan::Crash`] or [`FaultPlan::Disk`] run then recovers once
/// from the surviving bytes and checks the recovered image.
fn run_body(
    spec: &WorkloadSpec,
    seed: u64,
    rt: &Arc<VirtualRuntime>,
    wal_dir: Option<&Path>,
) -> SimReport {
    let disk = match spec.fault {
        FaultPlan::Disk { fault } => Some(fault),
        _ => None,
    };
    let device = disk.map(|fault| {
        let dir = wal_dir.expect("precheck guarantees `durable` for disk faults");
        let faults = match fault {
            DiskFault::TransientAppend { at, burst } => FaultSpec {
                transient_append_at: Some((at, burst)),
                ..FaultSpec::default()
            },
            DiskFault::FsyncFail { at } => FaultSpec {
                fsync_fail_at: Some(at),
                ..FaultSpec::default()
            },
            DiskFault::Capacity { bytes } => FaultSpec {
                capacity: Some(bytes),
                ..FaultSpec::default()
            },
            // The corruption is planted after the wave, not during.
            DiskFault::CorruptSealed { .. } => FaultSpec::default(),
        };
        Arc::new(FaultyStorage::new(
            Arc::new(FsStorage::new(dir.to_path_buf())),
            faults,
        ))
    });
    let waves = match spec.fault {
        FaultPlan::CrashLoop { waves, .. } => waves,
        _ => 1,
    };
    let (mut commits, mut failures, mut client_aborts) = (0u64, 0u64, 0u64);
    let (mut gc_deletions, mut commits_replayed, mut peak) = (0u64, 0u64, 0usize);
    let mut fp: u64 = 0xCBF2_9CE4_8422_2325;

    for wave in 0..waves {
        let crash_plan = match spec.fault {
            FaultPlan::Crash {
                after_commits,
                point,
            } => Some((after_commits, point)),
            FaultPlan::CrashLoop {
                after_commits,
                point,
                ..
            } if wave + 1 < waves => Some((after_commits, point)),
            _ => None,
        };
        let storage = device.clone().map(|d| d as Arc<dyn WalStorage>);
        let (engine, rec) = open(spec, rt, wal_dir, true, storage, RecoverPolicy::Strict)
            .unwrap_or_else(|e| {
                panic!(
                    "[{} seed {seed}] wave {wave}: open must succeed: {e:?}",
                    spec.name
                )
            });
        let engine = Arc::new(engine);
        commits_replayed += rec.commits_replayed;
        if wave > 0 {
            let what = format!("wave {wave}: the recovered image");
            assert_conserved(spec, seed, &what, &image(spec, &engine));
        }

        let w = traffic_wave(spec, seed, rt, &engine, wave, crash_plan);
        let health = disk.map(|fault| check_health(spec, seed, &engine, fault));
        // No sweep on a crashed or unhealthy log, nor before planted
        // corruption: retiring segments would unlink its sealed victims.
        if !w.crashed
            && health.is_none_or(|h| h == WalHealth::Ok)
            && !matches!(disk, Some(DiskFault::CorruptSealed { .. }))
        {
            engine.gc_sweep();
        }
        let m = engine.metrics();
        let finals = image(spec, &engine);
        peak = peak.max(w.peak.max(m.live_txns as usize));
        wave_oracles(spec, seed, wave, &engine, &m, &finals, w.crashed, &mut fp);
        if let Some(health) = health {
            let wstats = engine.wal_stats().expect("disk runs are durable");
            fnv1a(&mut fp, &wstats.append_retries.to_le_bytes());
            fnv1a(&mut fp, &[health as u8]);
        }

        commits += w.commits;
        failures += w.failures;
        client_aborts += w.client_aborts;
        gc_deletions += m.gc_deletions;
        drop(engine); // drains and closes the WAL in-sim
    }

    if let (FaultPlan::Crash { .. } | FaultPlan::Disk { .. }, Some(dir)) = (spec.fault, wal_dir) {
        let scrubbed = match (disk, &device) {
            (Some(DiskFault::CorruptSealed { sector }), Some(device)) => {
                corrupt_and_scrub(spec, seed, rt, dir, device, sector, &mut fp)
            }
            _ => None,
        };
        let (recovered, rec) = scrubbed.unwrap_or_else(|| {
            let (recovered, rec) = open(spec, rt, Some(dir), false, None, RecoverPolicy::Strict)
                .unwrap_or_else(|e| {
                    panic!(
                        "[{} seed {seed}] recovery after {:?} must succeed: {e:?}",
                        spec.name, spec.fault
                    )
                });
            assert_conserved(spec, seed, "the recovered image", &image(spec, &recovered));
            (recovered, rec)
        });
        for v in image(spec, &recovered) {
            fnv1a(&mut fp, &v.to_le_bytes());
        }
        commits_replayed += rec.commits_replayed;
        drop(recovered); // closes the recovered WAL in-sim
    }

    let bound = live_graph_bound(spec.sessions, spec.entities);
    assert!(
        peak <= bound,
        "[{} seed {seed}] peak live graph {peak} exceeded O(active) bound {bound}",
        spec.name
    );

    SimReport {
        name: spec.name.clone(),
        seed,
        commits,
        failures,
        client_aborts,
        gc_deletions,
        peak_nodes: peak,
        virtual_ns: rt.now().as_nanos() as u64,
        switches: rt.switches(),
        fingerprint: fp,
        commits_replayed,
    }
}

/// Runs `spec` under a fresh [`VirtualRuntime`] seeded with `seed` and
/// returns the deterministic [`SimReport`]. Panics (with the spec name
/// and seed in the message) if any oracle fails. Crash plans run
/// recovery inside the same simulated timeline.
pub fn run_spec(spec: &WorkloadSpec, seed: u64) -> Result<SimReport, SimError> {
    let (out, _info) = in_wal_dir(spec, seed, |dir| {
        VirtualRuntime::run_cfg(&SimConfig::random(seed), |rt| run_body(spec, seed, rt, dir))
    })?;
    match out {
        Ok(report) => Ok(report),
        Err(fail) => fail.raise(),
    }
}

/// Runs `spec` under an explicit [`SimConfig`] — scheduling policy and
/// trace recording — and returns failures as data. The search driver's
/// entry point: a red schedule comes back as a [`TracedRun`] with the
/// failure headline and the decision trace (replayable and
/// minimizable).
pub fn run_spec_traced(spec: &WorkloadSpec, cfg: &SimConfig) -> Result<TracedRun, SimError> {
    // A traced run's failure is data, not an event worth a backtrace:
    // search and minimization run hundreds of red schedules on purpose.
    let (out, info) = in_wal_dir(spec, cfg.seed, |dir| {
        crate::sim::silence_expected_panics(|| {
            VirtualRuntime::run_cfg(cfg, |rt| run_body(spec, cfg.seed, rt, dir))
        })
    })?;
    let (report, failure) = match out {
        Ok(r) => (Some(r), None),
        Err(f) => (None, Some(f.message)),
    };
    Ok(TracedRun {
        report,
        failure,
        trace: info.trace,
        switches: info.switches,
        divergences: info.divergences,
    })
}
