//! `offline_c1`: a fixed schedule replayed single-threaded through
//! `Reduced<GreedyC1>` — the paper's scheduler with its exact deletion
//! condition, and no engine around it.
//!
//! `graph`, `core` and `sched` do all the work here and every count
//! repeats exactly for a seed, so a change to `CgState`, the cycle
//! check or the C1 test shows on this workload, and an engine change
//! must show nothing.

use crate::report::Outcome;
use crate::spans::{self, Name, Span, ThreadSpans, NO_PARENT};
use crate::stats;
use deltx_core::policy::{DeletionPolicy, GreedyC1, NoDeletion, Noncurrent};
use deltx_model::workload::{WorkloadConfig, WorkloadGen};
use deltx_model::{Op, Step};
use deltx_sched::reduced::Reduced;
use deltx_sched::{FeedOutcome, Scheduler};
use std::time::{Duration, Instant};

const TXNS: usize = 200_000;
const ENTITIES: u32 = 1024;
const CONCURRENCY: usize = 8;
/// The live-graph size is read every this many steps: an exact count,
/// cheap next to the C1 test every step already runs.
const SIZE_EVERY: usize = 64;
/// `peak_live_nodes` is the mean, over windows of this many steps, of
/// the largest size read in the window. GreedyC1 keeps about a dozen
/// nodes, and a single maximum over the run would move in steps of
/// 9 % from one seed to the next.
const PEAK_WINDOW: usize = 4096;
/// Steps per latency sample: one clock read per step would cost as
/// much as the step.
const CHUNK: usize = 256;
/// Theorem 2 is checked against the undeleted scheduler on this many
/// transactions (its graph grows with history, so not on all).
const ORACLE_TXNS: u32 = 5_000;
/// At least this many timed replays, whatever `--seconds` says.
const MIN_REPLAYS: usize = 5;

fn schedule(seed: u64, txns: usize, entities: u32) -> Vec<Step> {
    WorkloadGen::new(WorkloadConfig {
        n_entities: entities,
        concurrency: CONCURRENCY,
        total_txns: txns,
        seed,
        ..WorkloadConfig::default()
    })
    .collect()
}

/// Everything about one replay that must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    committed: u64,
    aborted: u64,
    deletions: u64,
    /// Sum over the peak windows of each window's largest size.
    window_peaks: usize,
    windows: usize,
    final_nodes: usize,
    final_arcs: usize,
}

impl Counts {
    fn peak_nodes(&self) -> f64 {
        self.window_peaks as f64 / self.windows as f64
    }
}

struct Replay {
    counts: Counts,
    seconds: f64,
    /// Nanoseconds per committed transaction, one sample per chunk.
    chunk_ns_per_txn: Vec<u64>,
}

impl Replay {
    fn quantile_us(&self, q: f64) -> f64 {
        let mut sorted = self.chunk_ns_per_txn.clone();
        sorted.sort_unstable();
        stats::quantile(&sorted, q) as f64 / 1e3
    }
}

fn replay(steps: &[Step], spans: &mut ThreadSpans) -> Replay {
    let mut sched = Reduced::new(GreedyC1);
    let (mut committed, mut peak_nodes) = (0u64, 0usize);
    let (mut window_peaks, mut windows) = (0usize, 0usize);
    let mut chunk_ns_per_txn = Vec::with_capacity(steps.len() / CHUNK + 1);
    let t0 = Instant::now();
    for (c, chunk) in steps.chunks(CHUNK).enumerate() {
        let (chunk_start, committed_before) = (Instant::now(), committed);
        for (i, step) in chunk.iter().enumerate() {
            let n = c * CHUNK + i;
            spans.sample((n as u64).is_multiple_of(spans::SAMPLE_EVERY));
            let s = spans.start();
            let outcome = sched
                .feed(step)
                .expect("generated schedules are well formed");
            let name = match step.op {
                Op::Begin => Name::FeedBegin,
                Op::Read(_) => Name::FeedRead,
                _ => Name::FeedWrite,
            };
            spans.leaf(name, s, NO_PARENT, u64::from(step.txn.0));
            if step.op.is_terminal() && outcome == FeedOutcome::Accepted {
                committed += 1;
            }
            if n.is_multiple_of(SIZE_EVERY) {
                peak_nodes = peak_nodes.max(sched.state_size().nodes);
            }
            if (n + 1).is_multiple_of(PEAK_WINDOW) {
                window_peaks += std::mem::take(&mut peak_nodes);
                windows += 1;
            }
        }
        if committed > committed_before {
            chunk_ns_per_txn
                .push(chunk_start.elapsed().as_nanos() as u64 / (committed - committed_before));
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    let size = sched.state_size();
    let stats = sched.state().stats();
    Replay {
        counts: Counts {
            committed,
            aborted: stats.aborts,
            deletions: stats.deletions,
            window_peaks,
            windows,
            final_nodes: size.nodes,
            final_arcs: size.arcs,
        },
        seconds,
        chunk_ns_per_txn,
    }
}

fn decisions<P: DeletionPolicy>(policy: P, steps: &[Step]) -> Vec<FeedOutcome> {
    let mut sched = Reduced::new(policy);
    steps
        .iter()
        .map(|s| sched.feed(s).expect("generated schedules are well formed"))
        .collect()
}

/// Theorem 2: safe deletions change no decision. Compared on the
/// schedule's prefix up to the first step of transaction
/// `ORACLE_TXNS + 1`.
fn check_theorem_2(steps: &[Step], out: &mut Outcome) {
    let end = steps
        .iter()
        .position(|s| s.txn.0 > ORACLE_TXNS)
        .unwrap_or(steps.len());
    let prefix = &steps[..end];
    let diverged = decisions(GreedyC1, prefix)
        .iter()
        .zip(decisions(NoDeletion, prefix))
        .position(|(a, b)| *a != b);
    out.check(diverged.is_none(), || {
        format!(
            "offline_c1: GreedyC1 and NoDeletion decide step {} differently (Theorem 2)",
            diverged.unwrap_or(0)
        )
    });
}

fn check_repeats(runs: &[Replay], out: &mut Outcome) {
    let first = runs[0].counts;
    out.check(runs.iter().all(|r| r.counts == first), || {
        format!(
            "offline_c1: replays of one schedule disagree: {:?}",
            runs.iter().map(|r| r.counts).collect::<Vec<_>>()
        )
    });
    out.check(first.peak_nodes() <= 4.0 * ENTITIES as f64, || {
        format!("offline_c1: graph held {} nodes", first.peak_nodes())
    });
}

/// The untraced run: every end-to-end metric.
pub fn run_end_to_end(seed: u64, seconds: u64, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut steps = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        steps = schedule(seed, TXNS, ENTITIES);
        setups.push(t0.elapsed().as_secs_f64());
    }
    check_theorem_2(&steps, out);

    let budget = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut untraced = ThreadSpans::new(t0, 0);
    while runs.len() < MIN_REPLAYS || t0.elapsed() < budget {
        runs.push(replay(&steps, &mut untraced));
    }
    check_repeats(&runs, out);

    let txn_per_s: Vec<f64> = runs
        .iter()
        .map(|r| r.counts.committed as f64 / r.seconds)
        .collect();
    out.attempted = TXNS as u64;
    out.put("txn_per_s", stats::median(&txn_per_s));
    out.put("peak_live_nodes", runs[0].counts.peak_nodes());
    out.put("setup_s", stats::median(&setups));
}

/// The traced run: exact counts, per-step spans, the full-scan policy.
pub fn run_per_layer(seed: u64, out: &mut Outcome) -> Vec<(String, Vec<Span>)> {
    let steps = schedule(seed, TXNS, ENTITIES);
    check_theorem_2(&steps, out);
    let mut spans = ThreadSpans::new(
        Instant::now(),
        steps.len() / spans::SAMPLE_EVERY as usize + 64,
    );
    let traced = replay(&steps, &mut spans);
    let untraced = replay(&steps, &mut ThreadSpans::new(Instant::now(), 0));
    let c = traced.counts;
    // There is no arrival schedule offline: "latency" is the scheduler's
    // service time per committed transaction, one sample per chunk.
    out.put("commit_p50_us", untraced.quantile_us(0.50));
    out.put("commit_p99_us", untraced.quantile_us(0.99));
    check_repeats(&[traced, untraced], out);
    let spans = spans.into_spans();
    let totals = spans::totals(&spans);

    out.attempted = TXNS as u64;
    out.put("sched.accepted", c.committed as f64);
    out.put("sched.aborted", c.aborted as f64);
    out.put("core.deletions", c.deletions as f64);
    out.put("core.final_nodes", c.final_nodes as f64);
    out.put("core.final_arcs", c.final_arcs as f64);
    out.put("sched.feed_read_ns", totals.mean_ns(Name::FeedRead));
    out.put("sched.feed_write_ns", totals.mean_ns(Name::FeedWrite));

    // `Noncurrent` rescans every completed node after every step; the
    // gap to GreedyC1's incremental test is what this number records.
    let small = schedule(seed, 20_000, 256);
    let t0 = Instant::now();
    let accepted = decisions(Noncurrent, &small).len();
    out.put(
        "sched.noncurrent_steps_per_s",
        accepted as f64 / t0.elapsed().as_secs_f64(),
    );
    vec![("replay".into(), spans)]
}
