//! Delta-debugging minimizer for failing schedules.
//!
//! A failure out of the search is a `(spec, seed, trace)` triple whose
//! trace can run to thousands of decisions over a workload of hundreds
//! of transactions. [`minimize`] shrinks **both** axes while the
//! failure keeps reproducing:
//!
//! 1. **Spec shrink** — repeatedly halve sessions, transactions per
//!    session, and the entity universe. After each successful shrink
//!    the failing *trace is re-recorded* from the shrunk run, so the
//!    trace tracks the smaller workload instead of diverging against
//!    it.
//! 2. **Trace shrink** — the replay policy falls back to the seeded
//!    RNG when the trace runs out, so a *prefix* of a failing trace is
//!    itself a complete schedule. The minimizer first tries the empty
//!    trace (pure seed replay — often enough once the spec is small),
//!    then binary-searches the shortest failing prefix, then runs
//!    ddmin-style chunk deletion inside it.
//!
//! The result is a [`MinimizedRepro`], serialized as a self-contained
//! [`ReproFile`]: the (shrunk) workload spec, the seed, any planted
//! bug toggles, and the decision trace — the artifact that
//! `sim_zoo --replay-trace` re-executes, twice, to demonstrate the
//! failure is deterministic.

use crate::sim::{PickPolicy, ScheduleTrace, SimConfig};
use crate::workload::{run_spec_traced, SimError, WorkloadSpec};
use std::path::Path;

/// The end state of a minimization: the smallest `(spec, trace)` the
/// budget reached that still fails.
#[derive(Clone, Debug)]
pub struct MinimizedRepro {
    /// The shrunk workload.
    pub spec: WorkloadSpec,
    /// The seed (replays the trace's fallback suffix).
    pub seed: u64,
    /// The shrunk decision trace (possibly empty).
    pub trace: ScheduleTrace,
    /// The failure headline of the final minimized run.
    pub failure: String,
    /// Schedules executed while minimizing.
    pub runs_used: usize,
}

/// One replay attempt: did it fail, and with what trace/message?
struct Probe {
    failed: bool,
    message: Option<String>,
    recorded: Option<ScheduleTrace>,
}

fn probe(spec: &WorkloadSpec, seed: u64, trace: &ScheduleTrace) -> Result<Probe, SimError> {
    let run = run_spec_traced(
        spec,
        &SimConfig {
            seed,
            policy: PickPolicy::Trace(trace.clone()),
            record_trace: true,
        },
    )?;
    Ok(Probe {
        failed: run.failure.is_some(),
        message: run.failure,
        recorded: run.trace,
    })
}

fn shrunk_specs(spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
    let mut out = Vec::new();
    if spec.sessions > 1 {
        out.push(WorkloadSpec {
            sessions: spec.sessions / 2,
            ..spec.clone()
        });
    }
    if spec.txns_per_session > 1 {
        out.push(WorkloadSpec {
            txns_per_session: spec.txns_per_session / 2,
            ..spec.clone()
        });
    }
    let floor = (spec.shards as u32).max(2);
    if spec.entities / 2 >= floor {
        out.push(WorkloadSpec {
            entities: spec.entities / 2,
            ..spec.clone()
        });
    }
    out
}

fn derived_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds tried per resynthesis round (empty-trace replays). A bug
/// that fails about one schedule in five (the planted dropped-bridge
/// bug on `hot_contention`) slips through 8 tries one time in six and
/// then burns the whole budget in ddmin; 16 tries miss it 3 % of the
/// time.
const RESYNTH_SEEDS: u64 = 16;

/// Shrinks `(spec, trace)` while the failure still reproduces.
/// `max_runs` bounds the schedules spent. Errors if the failure does
/// not reproduce on the first replay (a minimizer that "shrinks" a
/// green run proves nothing).
///
/// The returned seed may differ from the input: a *seed resynthesis*
/// phase tries the empty trace under a few seeds derived from the
/// original, because a pure-seed repro (zero recorded decisions) is
/// strictly smaller than any trace — the failure family matters, not
/// the exact schedule that first exposed it.
pub fn minimize(
    spec: &WorkloadSpec,
    seed: u64,
    trace: &ScheduleTrace,
    max_runs: usize,
) -> Result<MinimizedRepro, String> {
    let runs = std::cell::Cell::new(0usize);
    let cur_seed = std::cell::Cell::new(seed);
    let probe_counted = |spec: &WorkloadSpec, trace: &ScheduleTrace| -> Result<Probe, String> {
        runs.set(runs.get() + 1);
        probe(spec, cur_seed.get(), trace).map_err(|e| e.to_string())
    };

    let first = probe_counted(spec, trace)?;
    if !first.failed {
        return Err(format!(
            "failure does not reproduce: [{} seed {seed}] ran green under its own trace",
            spec.name
        ));
    }
    let mut cur_spec = spec.clone();
    let mut cur_trace = trace.clone();
    let mut cur_msg = first.message.unwrap_or_default();

    // Seed resynthesis: an empty trace under SOME seed beats any
    // non-empty trace. Adopts the first derived seed whose pure-seed
    // replay fails on the current spec.
    let resynthesize =
        |cur_spec: &WorkloadSpec, cur_trace: &mut ScheduleTrace, cur_msg: &mut String| {
            if !cur_trace.decisions.is_empty() {
                for i in 0..RESYNTH_SEEDS {
                    if runs.get() >= max_runs {
                        break;
                    }
                    let prev = cur_seed.get();
                    cur_seed.set(derived_seed(seed, i));
                    match probe_counted(cur_spec, &ScheduleTrace::default()) {
                        Ok(p) if p.failed => {
                            *cur_trace = ScheduleTrace::default();
                            if let Some(m) = p.message {
                                *cur_msg = m;
                            }
                            return;
                        }
                        _ => cur_seed.set(prev),
                    }
                }
            }
        };

    // ---- Phase 1: shrink the workload ---------------------------------
    'spec_shrink: while runs.get() < max_runs {
        for cand in shrunk_specs(&cur_spec) {
            if runs.get() >= max_runs {
                break 'spec_shrink;
            }
            let p = probe_counted(&cand, &cur_trace)?;
            if p.failed {
                cur_spec = cand;
                // Re-record so the trace matches the smaller run.
                if let Some(rec) = p.recorded {
                    cur_trace = rec;
                }
                cur_msg = p.message.unwrap_or(cur_msg);
                continue 'spec_shrink;
            }
        }
        break;
    }

    // ---- Phase 2: shrink the trace ------------------------------------
    // Empty trace = pure seed replay; the cheapest possible repro.
    if runs.get() < max_runs {
        let p = probe_counted(&cur_spec, &ScheduleTrace::default())?;
        if p.failed {
            cur_trace = ScheduleTrace::default();
            cur_msg = p.message.unwrap_or(cur_msg);
        }
    }
    resynthesize(&cur_spec, &mut cur_trace, &mut cur_msg);

    // A pure-seed repro unlocks spec shrinks the recorded trace
    // blocked: re-try halving with the (kept-empty) trace.
    'respec: while cur_trace.decisions.is_empty() && runs.get() < max_runs {
        for cand in shrunk_specs(&cur_spec) {
            if runs.get() >= max_runs {
                break 'respec;
            }
            let p = probe_counted(&cand, &cur_trace)?;
            if p.failed {
                cur_spec = cand;
                cur_msg = p.message.unwrap_or(cur_msg);
                continue 'respec;
            }
        }
        break;
    }
    if !cur_trace.decisions.is_empty() {
        // Binary-search the shortest failing prefix.
        let (mut lo, mut hi) = (0usize, cur_trace.decisions.len());
        while lo < hi && runs.get() < max_runs {
            let mid = lo + (hi - lo) / 2;
            let p = probe_counted(&cur_spec, &cur_trace.truncated(mid))?;
            if p.failed {
                hi = mid;
                cur_msg = p.message.unwrap_or(cur_msg);
            } else {
                lo = mid + 1;
            }
        }
        cur_trace = cur_trace.truncated(hi);
        // ddmin-style chunk deletion inside the surviving prefix.
        let mut chunk = (cur_trace.decisions.len() / 2).max(1);
        while chunk >= 1 && !cur_trace.decisions.is_empty() && runs.get() < max_runs {
            let mut start = 0;
            let mut removed_any = false;
            while start < cur_trace.decisions.len() && runs.get() < max_runs {
                let end = (start + chunk).min(cur_trace.decisions.len());
                let mut cand = cur_trace.clone();
                cand.decisions.drain(start..end);
                let p = probe_counted(&cur_spec, &cand)?;
                if p.failed {
                    cur_trace = cand;
                    cur_msg = p.message.unwrap_or(cur_msg);
                    removed_any = true;
                    // Same start now names the next chunk.
                } else {
                    start = end;
                }
            }
            if chunk == 1 && !removed_any {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }

    Ok(MinimizedRepro {
        spec: cur_spec,
        seed: cur_seed.get(),
        trace: cur_trace,
        failure: cur_msg,
        runs_used: runs.get(),
    })
}

/// A self-contained failing-schedule artifact: spec + seed + planted
/// toggles + trace, in one text file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproFile {
    /// The (shrunk) workload.
    pub spec: WorkloadSpec,
    /// The replay seed.
    pub seed: u64,
    /// Planted-bug toggles to flip before replaying (names from
    /// `deltx_engine::planted`; requires the `planted` feature).
    pub planted: Vec<String>,
    /// The decision trace (may be empty — pure seed replay).
    pub trace: ScheduleTrace,
}

impl ReproFile {
    /// Serializes to the `deltx-repro v1` text form.
    pub fn to_text(&self) -> String {
        let mut out = String::from("deltx-repro v1\n# workload\n");
        out.push_str(&self.spec.to_text());
        out.push_str("# schedule\n");
        out.push_str(&format!("seed {}\n", self.seed));
        for p in &self.planted {
            out.push_str(&format!("planted {p}\n"));
        }
        out.push_str(&self.trace.to_text());
        out
    }

    /// Parses the [`ReproFile::to_text`] form.
    pub fn from_text(text: &str) -> Result<ReproFile, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some("deltx-repro v1") {
            return Err("repro: missing `deltx-repro v1` header".into());
        }
        let mut spec_text = String::new();
        let mut seed: Option<u64> = None;
        let mut planted = Vec::new();
        let mut trace_text = String::new();
        for line in lines {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let key = t.split_whitespace().next().unwrap_or("");
            match key {
                "seed" => {
                    seed = t
                        .split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse().ok())
                        .or(None);
                    if seed.is_none() {
                        return Err(format!("repro: bad seed line `{t}`"));
                    }
                }
                "planted" => {
                    planted.push(
                        t.split_whitespace()
                            .nth(1)
                            .ok_or_else(|| format!("repro: bad planted line `{t}`"))?
                            .to_string(),
                    );
                }
                "d" => {
                    trace_text.push_str(t);
                    trace_text.push('\n');
                }
                _ => {
                    spec_text.push_str(t);
                    spec_text.push('\n');
                }
            }
        }
        Ok(ReproFile {
            spec: WorkloadSpec::from_text(&spec_text)?,
            seed: seed.ok_or("repro: missing `seed` line")?,
            planted,
            trace: ScheduleTrace::from_text(&trace_text)?,
        })
    }

    /// Writes the text form to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads and parses a repro file from `path`.
    pub fn read(path: &Path) -> Result<ReproFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        ReproFile::from_text(&text)
    }
}

/// Flips the repro's planted-bug toggles on (true) or off (false).
/// Without the `planted` feature, any named toggle is an error.
#[cfg(feature = "planted")]
pub fn apply_planted(names: &[String], on: bool) -> Result<(), String> {
    for n in names {
        match n.as_str() {
            "bitset_trailing_word" => deltx_engine::planted::set_bitset_trailing_word_bug(on),
            "drop_gc_bridge" => deltx_engine::planted::set_drop_gc_bridge_bug(on),
            "retry_after_fsync_fail" => deltx_engine::planted::set_retry_after_fsync_fail_bug(on),
            other => return Err(format!("unknown planted bug `{other}`")),
        }
    }
    Ok(())
}

/// Flips the repro's planted-bug toggles on (true) or off (false).
/// Without the `planted` feature, any named toggle is an error.
#[cfg(not(feature = "planted"))]
pub fn apply_planted(names: &[String], _on: bool) -> Result<(), String> {
    if names.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "repro names planted bugs {names:?} but this binary was built \
             without the `planted` feature (rebuild with \
             `--features deltx-testkit/planted`)"
        ))
    }
}

/// Replays a repro **twice** and reports `(failure_headline,
/// deterministic)`: the first run's outcome, and whether the second
/// run agreed on it exactly (same failure message, or same green
/// fingerprint). Flips planted toggles around the runs.
pub fn replay_repro(repro: &ReproFile) -> Result<(Option<String>, bool), String> {
    apply_planted(&repro.planted, true)?;
    let go = || {
        run_spec_traced(
            &repro.spec,
            &SimConfig {
                seed: repro.seed,
                policy: PickPolicy::Trace(repro.trace.clone()),
                record_trace: false,
            },
        )
    };
    let a = go();
    let b = go();
    apply_planted(&repro.planted, false)?;
    let (a, b) = (a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?);
    let deterministic = match (&a.failure, &b.failure) {
        (Some(ma), Some(mb)) => ma == mb,
        (None, None) => a.report == b.report,
        _ => false,
    };
    Ok((a.failure, deterministic))
}
