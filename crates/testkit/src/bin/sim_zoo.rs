//! Sweeps the workload zoo over a seed matrix under the deterministic
//! simulator.
//!
//! ```text
//! cargo run --release -p deltx-testkit --bin sim_zoo                    # seeds 1,2,3
//! cargo run --release -p deltx-testkit --bin sim_zoo -- --seeds 7,42
//! cargo run --release -p deltx-testkit --bin sim_zoo -- --only hot_key_skew
//! ```
//!
//! Every failure line echoes the scenario and seed; rerunning with
//! `--seeds <that seed>` (or `DELTX_SEED=<that seed>` on the tests)
//! replays the identical interleaving. Exit code is nonzero if any
//! scenario/seed cell fails.
//!
//! `--replay-trace FILE` re-executes a minimized repro file written by
//! `sim_search` (spec + seed + schedule trace), **twice**, and reports
//! whether both runs agreed exactly — exit 0 when they did (the repro
//! is deterministic; the failure headline, if any, is printed), 1 when
//! they disagreed, 2 on a parse error.

use deltx_testkit::minimize::{replay_repro, ReproFile};
use deltx_testkit::{run_spec, zoo};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// `--replay-trace`: double-replay a repro file, print the verdict.
fn replay_trace_mode(path: &Path) -> ! {
    let repro = match ReproFile::read(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sim_zoo --replay-trace: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "replaying {}: spec `{}` seed {} with {} recorded decisions{}",
        path.display(),
        repro.spec.name,
        repro.seed,
        repro.trace.decisions.len(),
        if repro.planted.is_empty() {
            String::new()
        } else {
            format!(" (planted: {})", repro.planted.join(","))
        }
    );
    match replay_repro(&repro) {
        Ok((headline, deterministic)) => {
            match &headline {
                Some(h) => println!("  outcome: FAILURE — {}", h.lines().next().unwrap_or("")),
                None => println!("  outcome: green"),
            }
            if deterministic {
                println!("  both replays agreed — deterministic");
                std::process::exit(0);
            }
            eprintln!("  replays DISAGREED — repro is not deterministic");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("sim_zoo --replay-trace: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                seeds = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("--seeds: `{s}` is not an integer");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                if seeds.is_empty() {
                    eprintln!("--seeds requires a comma-separated list, e.g. 1,2,3");
                    std::process::exit(2);
                }
            }
            "--only" => match it.next() {
                Some(n) => only = Some(n.clone()),
                None => {
                    eprintln!("--only requires a scenario name");
                    std::process::exit(2);
                }
            },
            "--replay-trace" => match it.next() {
                Some(p) => replay_trace_mode(Path::new(p)),
                None => {
                    eprintln!("--replay-trace requires a repro file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected `--seeds a,b,c`, `--only NAME`, \
                     `--replay-trace FILE`)"
                );
                std::process::exit(2);
            }
        }
    }

    let specs: Vec<_> = zoo::all()
        .into_iter()
        .filter(|s| only.as_deref().is_none_or(|n| s.name == n))
        .collect();
    if specs.is_empty() {
        eprintln!("no scenario matches --only {only:?}");
        std::process::exit(2);
    }

    println!(
        "sim_zoo: {} scenarios x {} seeds {:?}",
        specs.len(),
        seeds.len(),
        seeds
    );
    let mut failures = 0usize;
    for spec in &specs {
        for &seed in &seeds {
            match catch_unwind(AssertUnwindSafe(|| run_spec(spec, seed))) {
                Ok(Ok(r)) => {
                    println!(
                        "  ok   {:<22} seed {:<12} {} commits, {} gc deletions, peak {} \
                         nodes, {} switches, {:.2}ms virtual, fp {:016x}",
                        r.name,
                        seed,
                        r.commits,
                        r.gc_deletions,
                        r.peak_nodes,
                        r.switches,
                        r.virtual_ns as f64 / 1e6,
                        r.fingerprint
                    );
                }
                Ok(Err(e)) => {
                    failures += 1;
                    eprintln!("  FAIL {:<22} seed {seed}: {e}", spec.name);
                }
                Err(_) => {
                    failures += 1;
                    eprintln!(
                        "  FAIL {:<22} seed {seed}: oracle panic — replay with \
                         `--only {} --seeds {seed}` or DELTX_SEED={seed}",
                        spec.name, spec.name
                    );
                }
            }
        }
    }

    if failures > 0 {
        eprintln!("sim_zoo: {failures} failing cell(s)");
        std::process::exit(1);
    }
    println!("sim_zoo: all green");
}
