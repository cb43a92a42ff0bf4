//! What one run of one workload consists of.
//!
//! A run is either *untraced* (`--trace 0`: every end-to-end metric)
//! or *traced* (`--trace 1`: every per-layer metric). End-to-end
//! numbers never come from a phase with spans on. Phase lengths are
//! fixed shares of `--seconds`, listed in `perf/README.md`.

use crate::bank::{self, ClosedSpec, Workload};
use crate::report::Outcome;
use crate::schema;
use crate::spans::{self, Span};
use crate::{micro, offline, stats};
use std::time::Duration;

/// An untraced engine run is this many rounds, each on a fresh engine:
/// a new engine means new GC and WAL threads, placed afresh on the
/// cores, and on this box the placement moves throughput by more than
/// any window-to-window noise. The metrics are medians over the
/// windows (and set-ups) of all rounds.
const ROUNDS: u64 = 8;

fn share(seconds: u64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds as f64 * share)
}

/// Untraced engine run: `ROUNDS` closed loops, each a warm-up of 1/64
/// of `--seconds` and 3 windows of 1/32.
fn engine_end_to_end(w: &Workload, seed: u64, seconds: u64, out: &mut Outcome) {
    let window = share(seconds, 1.0 / 32.0);
    let (mut setups, mut txn_per_s, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let spec = ClosedSpec {
            clients: w.closed_clients,
            warmup: window / 2,
            windows: 3,
            window,
            traced: false,
        };
        let closed = bank::closed_phase(w, seed, round + 1, spec, out);
        setups.push(closed.setup_s);
        txn_per_s.extend(closed.window_txn_per_s);
        peaks.extend(closed.window_peak_nodes);
    }
    out.put("txn_per_s", stats::median(&txn_per_s));
    out.put("peak_live_nodes", stats::median(&peaks));
    out.put("setup_s", stats::median(&setups));
}

/// Traced engine run: one closed loop whose windows alternate spans
/// off / spans on (the engine's own counters over all of them, the
/// span means from the traced ones, the tracing overhead from the
/// difference), the same loop with one client (the scaling ratio),
/// then the open loop: one client on the workload's fixed schedule.
fn engine_per_layer(
    w: &Workload,
    seed: u64,
    seconds: u64,
    out: &mut Outcome,
) -> Vec<(String, Vec<Span>)> {
    let window = share(seconds, 1.0 / 20.0);
    let spec = ClosedSpec {
        clients: w.closed_clients,
        warmup: window / 2,
        windows: 8,
        window,
        traced: true,
    };
    let many = bank::closed_phase(w, seed, 1, spec, out);
    bank::counter_metrics(&many, out);
    bank::span_metrics(&many, out);
    let single = ClosedSpec {
        clients: 1,
        windows: 3,
        traced: false,
        ..spec
    };
    let one = bank::closed_phase(w, seed, 3, single, out);
    out.put("engine.scaling_1to2", many.txn_per_s() / one.txn_per_s());
    let open = bank::open_phase(w, seed, 2, window / 2, share(seconds, 0.30), out);
    out.put("commit_p50_us", open.overall.p50_us);
    out.put("commit_p99_us", open.overall.p99_us);
    out.put("engine.commit_p999_us", open.overall.p999_us);
    out.put("harness.late_pct", open.late_pct);
    many.threads
}

fn write_trace(workload: &str, threads: &[(String, Vec<Span>)]) {
    let dir = crate::out_dir();
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::render_trace(workload, threads)))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// One run of `workload`. The caller decides what an incorrect
/// outcome means; nothing is written for one.
///
/// # Panics
/// If `workload` is not in the schema (callers validate user input).
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let engine = bank::WORKLOADS.iter().find(|w| w.name == workload);
    assert!(
        engine.is_some() || workload == "offline_c1",
        "unknown workload {workload}"
    );
    let threads = match (engine, traced) {
        (Some(w), false) => {
            engine_end_to_end(w, seed, seconds, &mut out);
            Vec::new()
        }
        (Some(w), true) => engine_per_layer(w, seed, seconds, &mut out),
        (None, false) => {
            offline::run_end_to_end(seed, seconds, &mut out);
            Vec::new()
        }
        (None, true) => offline::run_per_layer(seed, &mut out),
    };
    // The crash check is a correctness check, so every `durable` run
    // makes it; only the traced run reports what recovery cost.
    if let Some(w) = engine.filter(|w| w.durable) {
        let crash = bank::crash_check(w, seed, &mut out);
        if traced {
            out.put("wal.recovery_ms", crash.recovery_ms);
            out.put("wal.recovery_replayed", crash.replayed);
            out.put("wal.real_fsync_p50_us", bank::real_fsync_p50_us());
        }
    }
    if !traced {
        return out;
    }

    micro::run(&mut out);
    // In schema order; a metric of a layer this workload does not
    // exercise reads 0 (the driver wants every per-layer metric from
    // every workload).
    out.metrics = schema::PER_LAYER
        .iter()
        .map(|m| {
            let measured = out.metrics.iter().find(|(n, _)| *n == m.name);
            (m.name, measured.map_or(0.0, |(_, v)| *v))
        })
        .collect();
    if out.correct() {
        write_trace(workload, &threads);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_schema_workload_has_a_runner() {
        for (name, _) in schema::WORKLOADS {
            assert!(
                name == "offline_c1" || bank::WORKLOADS.iter().any(|w| w.name == name),
                "{name} is in BENCHMARK.json but nothing runs it"
            );
        }
        assert_eq!(schema::WORKLOADS.len(), bank::WORKLOADS.len() + 1);
    }
}
