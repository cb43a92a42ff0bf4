//! # deltx-testkit — deterministic simulation for the deltx engine
//!
//! The third proof layer (after the lockstep oracles and the A/B
//! twins; see `docs/testing.md`): run the *real* engine — sharded
//! scheduler, deletion at the source, WAL group commit and all — under a
//! seeded virtual scheduler, so a concurrent failure is not a flake
//! but a coordinate. `DELTX_SEED=<n>` replays the exact interleaving,
//! bit for bit. The fourth layer builds on it: a *schedule-space
//! search* that explores many interleavings per workload, keeps the
//! decision trace of every run, and shrinks a failing trace to a
//! minimal replayable repro.
//!
//! Five pieces:
//!
//! * [`sim::VirtualRuntime`] — implements `deltx_runtime::Runtime`
//!   over a one-task-at-a-time scheduler with virtual time. Every
//!   workload session (which also leads the WAL's group-commit
//!   flushes) and the workload's sweeper become simulation tasks; all
//!   cross-task ordering is drawn from
//!   the seed — or replayed from an explicit [`sim::ScheduleTrace`],
//!   or steered by a PCT-style priority policy
//!   ([`sim::PickPolicy`]).
//! * [`workload`] — declarative [`workload::WorkloadSpec`]s (sessions,
//!   entities, access profile, think time, faults, whether the graph
//!   bound applies) and [`workload::run_spec`], which executes one
//!   under the simulator and runs the full oracle battery. Crash plans
//!   run recovery *inside* the same simulated timeline —
//!   [`workload::FaultPlan::CrashLoop`] crashes and keeps going for
//!   several engine lifetimes.
//! * [`zoo`] — stock scenarios: the stress transfer mix, hot-key
//!   skew, long analytics readers, §5 batch jobs, read-mostly fanout,
//!   adversarial cross-shard chains, mid-run WAL crashes (single and
//!   repeated), a boundary-summary flood, hot contention, and four
//!   disk faults.
//! * [`search`] — the schedule explorer: sweeps random seeds and PCT
//!   priority schedules looking for a failing interleaving.
//! * [`minimize()`] — the delta-debugging minimizer: shrinks a failing
//!   run's workload spec and decision trace while the failure still
//!   reproduces, and writes a self-contained repro file that
//!   `sim_zoo --replay-trace` re-executes.
//!
//! The `sim_zoo` binary sweeps the zoo over a seed matrix for CI; the
//! `sim_search` binary drives the explorer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod minimize;
pub mod search;
pub mod sim;
pub mod workload;
pub mod zoo;

pub use minimize::{minimize, MinimizedRepro, ReproFile};
pub use search::{search_spec, SearchConfig, SearchOutcome, SearchStats, Strategy};
pub use sim::{Decision, PickPolicy, ScheduleTrace, SimConfig, VirtualRuntime};
pub use workload::{
    run_spec, run_spec_traced, DiskFault, FaultPlan, Profile, SimError, SimReport, TracedRun,
    WorkloadSpec,
};
