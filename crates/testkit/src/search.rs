//! Coverage-guided schedule-space search.
//!
//! One `(spec, seed)` run samples a single point of the interleaving
//! space; [`search_spec`] sweeps many. Three strategies round-robin
//! over the schedule budget:
//!
//! * **Random** — a fresh seed per run, uniform over the simulator's
//!   pick distribution. The baseline; surprisingly strong because the
//!   sim schedules one *step* at a time, not one quantum.
//! * **Pct** — a PCT-style priority scheduler
//!   ([`PickPolicy::Pct`]): random fixed priorities plus `d` change
//!   points, which concentrates probability on low-depth ordering
//!   bugs instead of spreading it over all interleavings.
//! * **Coverage** — mutation of *interesting* schedules. Every run
//!   reports the set of engine-event signatures it triggered
//!   (escalation fallbacks, GC closure shapes, WAL batch boundaries —
//!   the `Runtime::emit` hook); a run that produces a signature never
//!   seen before donates its decision trace to a corpus. Mutation
//!   replays a random prefix of a corpus trace and lets a fresh seed
//!   pick the suffix — steering later runs back into rare regimes
//!   (an escalation fallback, a widened GC closure) where neighbors
//!   in schedule space are likelier to fail.
//!
//! Orthogonally to the schedule strategies, specs carrying a
//! parameterized fault get its *parameters* redrawn from the per-run
//! seed ([`FoundFailure::spec`] records what actually ran): torn-write
//! offsets sweep the whole record layout, and disk-fault coordinates
//! (failing append/fsync indices, device capacity, corrupted sector)
//! sweep the storage fault space — so one budget explores
//! interleavings × fault shapes together.
//!
//! Every run records its full decision trace, so the moment a failure
//! appears the search hands [`crate::minimize()`] a replayable artifact
//! — not just a seed.

use crate::sim::{PickPolicy, ScheduleTrace, SimConfig};
use crate::workload::{run_spec_traced, DiskFault, FaultPlan, SimError, WorkloadSpec};
use deltx_engine::CrashPoint;
use std::collections::BTreeSet;

/// Knobs for one search sweep.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Schedules to execute (the budget).
    pub budget: usize,
    /// Root seed; per-run seeds derive from it deterministically, so
    /// the whole sweep is replayable.
    pub base_seed: u64,
    /// Strategies to round-robin over. Empty defaults to all three.
    pub strategies: Vec<Strategy>,
    /// PCT change points (`d`). 3 catches most ordering bugs.
    pub pct_depth: usize,
    /// Stop at the first failing schedule (CI mode) instead of
    /// spending the whole budget collecting failures.
    pub stop_at_first_failure: bool,
}

impl SearchConfig {
    /// A CI-shaped config: `budget` schedules from `base_seed`, all
    /// three strategies, PCT depth 3, stop at the first failure.
    pub fn quick(budget: usize, base_seed: u64) -> Self {
        SearchConfig {
            budget,
            base_seed,
            strategies: vec![Strategy::Random, Strategy::Pct, Strategy::Coverage],
            pct_depth: 3,
            stop_at_first_failure: true,
        }
    }
}

/// How a single schedule is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform random picks from a fresh seed.
    Random,
    /// PCT-style priority scheduling with change points.
    Pct,
    /// Mutate a coverage-novel trace from the corpus (falls back to
    /// random until the corpus is non-empty).
    Coverage,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::Random => "random",
            Strategy::Pct => "pct",
            Strategy::Coverage => "coverage",
        })
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "random" => Ok(Strategy::Random),
            "pct" => Ok(Strategy::Pct),
            "coverage" => Ok(Strategy::Coverage),
            other => Err(format!(
                "unknown strategy `{other}` (random | pct | coverage)"
            )),
        }
    }
}

/// Aggregate counters for a sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Schedules executed.
    pub runs: usize,
    /// Schedules that failed an oracle (or deadlocked / panicked).
    pub failures: usize,
    /// Distinct engine-event signatures seen across the sweep — the
    /// coverage frontier.
    pub distinct_signatures: usize,
    /// Traces currently held in the mutation corpus.
    pub corpus_size: usize,
    /// Mean scheduling decisions per run (0 when `runs` is 0).
    pub mean_switches: u64,
    /// Every distinct `(kind, value)` signature the sweep hit.
    pub signatures: BTreeSet<(&'static str, u64)>,
}

/// The first failing schedule a sweep found, replay-ready.
#[derive(Clone, Debug)]
pub struct FoundFailure {
    /// The exact spec the failing run executed — the sweep mutates
    /// fault *parameters* (torn-write offsets, disk-fault
    /// coordinates) per run, so this can differ from the base spec.
    /// Minimize and replay THIS, not the base.
    pub spec: WorkloadSpec,
    /// The seed the failing run used (the trace's fallback RNG).
    pub seed: u64,
    /// The failure headline (oracle panic, deadlock, task panic).
    pub message: String,
    /// The full recorded decision trace of the failing run.
    pub trace: ScheduleTrace,
    /// Which schedule (0-based) in the sweep failed.
    pub schedule_index: usize,
    /// The strategy that produced it.
    pub strategy: Strategy,
}

/// What a sweep produced: the first failure (if any) plus counters.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The first failing schedule, if the sweep found one.
    pub failure: Option<FoundFailure>,
    /// Aggregate counters.
    pub stats: SearchStats,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Traces the mutation corpus holds at most (oldest evicted first).
const CORPUS_CAP: usize = 32;

/// Fault-parameter mutation riding along the schedule sweep: specs
/// that carry a parameterized fault (a torn-write offset, a
/// disk-fault coordinate) get the parameter redrawn from the per-run
/// seed, so one budget sweeps schedule space and fault space
/// together — the in-sim torn-write sweep. Keeps run 0 on the base
/// spec's own parameters so the stock coordinate is always covered.
fn mutated_spec(spec: &WorkloadSpec, seed: u64, run_index: usize) -> WorkloadSpec {
    if run_index == 0 {
        return spec.clone();
    }
    let r = splitmix64(seed ^ 0xFA17_5EED);
    let fault = match spec.fault {
        FaultPlan::Crash {
            after_commits,
            point: CrashPoint::TornWriteAt(_),
        } => FaultPlan::Crash {
            after_commits,
            // 1..=48 spans a whole commit record: header cuts, payload
            // cuts, and cuts past one entity's bytes.
            point: CrashPoint::TornWriteAt((r % 48) as u32 + 1),
        },
        FaultPlan::CrashLoop {
            after_commits,
            point: CrashPoint::TornWriteAt(_),
            waves,
        } => FaultPlan::CrashLoop {
            after_commits,
            point: CrashPoint::TornWriteAt((r % 48) as u32 + 1),
            waves,
        },
        FaultPlan::Disk { fault } => FaultPlan::Disk {
            fault: match fault {
                DiskFault::TransientAppend { .. } => DiskFault::TransientAppend {
                    at: r % 24,
                    // 1..=3 stays below the flusher's 4-attempt budget.
                    burst: (splitmix64(r) % 3) as u32 + 1,
                },
                DiskFault::FsyncFail { .. } => DiskFault::FsyncFail { at: r % 6 },
                DiskFault::Capacity { .. } => DiskFault::Capacity {
                    bytes: 2048 + (r % 8) * 1024,
                },
                DiskFault::CorruptSealed { .. } => DiskFault::CorruptSealed {
                    sector: (r % 2) as u32,
                },
            },
        },
        other => other,
    };
    WorkloadSpec {
        fault,
        ..spec.clone()
    }
}

/// Sweeps up to `cfg.budget` schedules of `spec` and reports the
/// first failure plus coverage counters. Fully deterministic in
/// `(spec, cfg)`: per-run seeds derive from `cfg.base_seed` and
/// mutation choices from the per-run seed.
pub fn search_spec(spec: &WorkloadSpec, cfg: &SearchConfig) -> Result<SearchOutcome, SimError> {
    let strategies = if cfg.strategies.is_empty() {
        vec![Strategy::Random, Strategy::Pct, Strategy::Coverage]
    } else {
        cfg.strategies.clone()
    };
    let mut seen: BTreeSet<(&'static str, u64)> = BTreeSet::new();
    let mut corpus: Vec<ScheduleTrace> = Vec::new();
    let mut failure: Option<FoundFailure> = None;
    let mut stats = SearchStats::default();
    let mut switches_sum: u64 = 0;
    // Rolling estimate of schedule length, feeding PCT's change-point
    // distribution; refined from observed runs.
    let mut expected_len: u64 = 4096;

    for i in 0..cfg.budget {
        let seed = splitmix64(cfg.base_seed ^ (i as u64).wrapping_mul(0xD134_2543_DE82_EF95));
        let mut strategy = strategies[i % strategies.len()];
        if strategy == Strategy::Coverage && corpus.is_empty() {
            strategy = Strategy::Random;
        }
        let policy = match strategy {
            Strategy::Random => PickPolicy::Random,
            Strategy::Pct => PickPolicy::Pct {
                depth: cfg.pct_depth,
                expected_len,
            },
            Strategy::Coverage => {
                // Replay a random prefix of a corpus trace; the fresh
                // seed picks the suffix.
                let pick = splitmix64(seed) as usize % corpus.len();
                let base = &corpus[pick];
                let cut = if base.decisions.is_empty() {
                    0
                } else {
                    splitmix64(seed ^ 1) as usize % base.decisions.len()
                };
                PickPolicy::Trace(base.truncated(cut))
            }
        };
        let run_spec = mutated_spec(spec, seed, i);
        let run = run_spec_traced(
            &run_spec,
            &SimConfig {
                seed,
                policy,
                record_trace: true,
            },
        )?;
        stats.runs += 1;
        switches_sum += run.switches;
        expected_len = (switches_sum / stats.runs as u64).max(64);

        let mut novel = false;
        for sig in &run.signatures {
            novel |= seen.insert(*sig);
        }
        if novel {
            if let Some(trace) = run.trace.clone() {
                if corpus.len() == CORPUS_CAP {
                    corpus.remove(0);
                }
                corpus.push(trace);
            }
        }
        if let Some(message) = run.failure {
            stats.failures += 1;
            if failure.is_none() {
                failure = Some(FoundFailure {
                    spec: run_spec,
                    seed,
                    message,
                    trace: run.trace.unwrap_or_default(),
                    schedule_index: i,
                    strategy,
                });
            }
            if cfg.stop_at_first_failure {
                break;
            }
        }
    }
    stats.distinct_signatures = seen.len();
    stats.signatures = seen;
    stats.corpus_size = corpus.len();
    stats.mean_switches = if stats.runs == 0 {
        0
    } else {
        switches_sum / stats.runs as u64
    };
    Ok(SearchOutcome { failure, stats })
}
