//! The benchmark's schema: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repository root is this table rendered by
//! `perf schema`; a unit test keeps the two identical. Every number a
//! run reports goes through [`unit_of`], so a metric that is not in
//! the table cannot be emitted.

use crate::json::Json;

/// How long one driver run measures; also the default of `perf run`.
pub const RUN_SECONDS: u64 = 16;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "offline_c1",
        "graph+core+sched do all the work and the engine none; every count repeats exactly, so an engine change must show nothing here",
    ),
    (
        "local",
        "both accounts in one shard: fast path, store install and single-shard GC only; escalation and WAL changes must predict no change",
    ),
    (
        "cross",
        "25% of transfers span shards: planner, partial escalation, summary flush+mirror and ghost-bridging GC; where 2 clients are slower than 1",
    ),
    (
        "longreader",
        "local traffic plus one 16-entity reader that holds its transaction open 50 ms: deletion conditions, boundary nodes and retained size dominate",
    ),
    (
        "durable",
        "local traffic through the WAL with recorded (not issued) fsyncs: encode, submit under ownership, group-commit hand-off, durable wait",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// What a user of the engine sees. Bounds come from the calibration
/// recorded in `perf/README.md`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "txn/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_live_nodes",
        unit: "nodes",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single layers, named `<crate>.<what>`; none is gated.
pub const PER_LAYER: [PerLayer; 54] = [
    // Moved from the end-to-end list by the calibration (see README).
    layer("commit_p50_us", "us", Lower),
    layer("commit_p99_us", "us", Lower),
    // engine: spans around the harness's own calls (traced phase).
    layer("engine.begin_us", "us", Lower),
    layer("engine.read_us", "us", Lower),
    layer("engine.write_us", "us", Lower),
    layer("engine.commit_us", "us", Lower),
    layer("engine.abort_us", "us", Lower),
    layer("engine.commit_share_pct", "%", Lower),
    layer("harness.self_us", "us", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    // engine: allowlisted MetricsSnapshot fields over the closed windows.
    layer("engine.fast_path_share_pct", "%", Higher),
    layer("engine.locks_per_escalation", "count", Lower),
    layer("engine.escalation_fallback_pct", "%", Lower),
    layer("engine.summary_update_ns", "ns", Lower),
    layer("engine.gc_pause_ms_per_s", "ms/s", Lower),
    layer("engine.gc_sweeps_per_s", "1/s", Higher),
    layer("engine.gc_deletions_per_commit", "count", Higher),
    layer("engine.gc_ghosts_per_kcommit", "count", Lower),
    layer("engine.abort_pct", "%", Lower),
    layer("engine.scan_abort_pct", "%", Lower),
    layer("engine.scaling_1to2", "ratio", Higher),
    layer("engine.commit_p999_us", "us", Lower),
    layer("harness.late_pct", "%", Lower),
    // wal: recording wrapper + wal_stats(); `durable` only.
    layer("wal_bytes_per_commit", "bytes", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.appends_per_commit", "count", Lower),
    layer("wal.fsyncs_per_commit", "count", Lower),
    layer("wal.records_per_fsync", "count", Higher),
    layer("wal.handoff_us", "us", Lower),
    layer("wal.segments_unlinked", "count", Higher),
    layer("wal.recovery_ms", "ms", Lower),
    layer("wal.recovery_replayed", "count", Lower),
    layer("wal.real_fsync_p50_us", "us", Lower),
    // sched/core: exact counts of the offline replay; `offline_c1` only.
    layer("sched.accepted", "count", Higher),
    layer("sched.aborted", "count", Lower),
    layer("core.deletions", "count", Higher),
    layer("core.final_nodes", "nodes", Lower),
    layer("core.final_arcs", "count", Lower),
    layer("sched.feed_read_ns", "ns", Lower),
    layer("sched.feed_write_ns", "ns", Lower),
    layer("sched.noncurrent_steps_per_s", "steps/s", Higher),
    // Layer micro-measures: fixed inputs, the same on every workload.
    layer("graph.bitset_union_ns", "ns", Lower),
    layer("graph.cycle_check_ns", "ns", Lower),
    layer("graph.fan_in_check_ns", "ns", Lower),
    layer("core.apply_read_ns", "ns", Lower),
    layer("core.apply_write_ns", "ns", Lower),
    layer("core.delete_ns", "ns", Lower),
    layer("core.noncurrent_among_ns", "ns", Lower),
    layer("core.c1_test_ns", "ns", Lower),
    layer("core.summary_batch_ns", "ns", Lower),
    layer("storage.install_ns", "ns", Lower),
    layer("storage.truncate_versions_ns", "ns", Lower),
    layer("wal.encode_commit_ns", "ns", Lower),
    layer("wal.submit_wait_us", "us", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of a metric of either kind.
///
/// # Panics
/// If the name is not in the schema: a typo in the harness, caught by
/// the first run.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the schema"))
}

/// `BENCHMARK.json`, as the builder's contract spells it.
pub fn benchmark_json() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name".to_string(), Json::str(name)),
            ("unit".to_string(), Json::str(unit)),
            ("better".to_string(), Json::str(better.as_str())),
        ]
    };
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["perf"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut row = metric(m.name, m.unit, m.better);
                        row.push(("bound".to_string(), Json::Num(m.bound)));
                        Json::Obj(row)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::Obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).unwrap(),
            benchmark_json(),
            "regenerate with `perf schema > BENCHMARK.json`"
        );
    }

    #[test]
    fn schema_meets_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
    }
}
