//! `sim_search` — schedule-space search over the workload zoo.
//!
//! Sweeps each zoo scenario through many interleavings (random seeds,
//! PCT priority schedules, coverage-guided trace mutations), and on a
//! failure shrinks it with the delta-debugging minimizer and writes a
//! self-contained repro file that `sim_zoo --replay-trace` re-executes.
//!
//! ```text
//! sim_search [--budget N] [--seed S] [--only NAME] [--strategy random|pct|coverage]
//!            [--repro-dir DIR]
//!            [--planted bitset_trailing_word|drop_gc_bridge|retry_after_fsync_fail]
//! ```
//!
//! Exit status: 0 when every sweep ran green (or, with `--planted`,
//! when the planted bug WAS found — that mode asserts the search
//! works); 1 otherwise.

use deltx_testkit::minimize::{apply_planted, minimize, replay_repro, ReproFile};
use deltx_testkit::search::{search_spec, SearchConfig, Strategy};
use deltx_testkit::{zoo, WorkloadSpec};
use std::path::PathBuf;

/// Run budget handed to the minimizer (schedules, not decisions).
const MINIMIZE_BUDGET: usize = 200;

struct Args {
    budget: usize,
    seed: u64,
    only: Option<String>,
    strategies: Vec<Strategy>,
    repro_dir: Option<PathBuf>,
    planted: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        budget: 40,
        seed: 1,
        only: None,
        strategies: Vec::new(),
        repro_dir: None,
        planted: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--budget" => args.budget = val("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--only" => args.only = Some(val("--only")?),
            "--strategy" => args.strategies.push(val("--strategy")?.parse()?),
            "--repro-dir" => args.repro_dir = Some(PathBuf::from(val("--repro-dir")?)),
            "--planted" => args.planted = Some(val("--planted")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The planted-bug hunt runs against the scenario shaped to expose it.
fn planted_target(bug: &str) -> Result<WorkloadSpec, String> {
    match bug {
        "bitset_trailing_word" => Ok(zoo::boundary_flood()),
        "drop_gc_bridge" => Ok(zoo::hot_contention()),
        "retry_after_fsync_fail" => Ok(zoo::disk_fsync_poison()),
        other => Err(format!("unknown planted bug `{other}`")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sim_search: {e}");
            std::process::exit(2);
        }
    };

    let specs: Vec<WorkloadSpec> = match &args.planted {
        Some(bug) => match planted_target(bug) {
            Ok(s) => vec![s],
            Err(e) => {
                eprintln!("sim_search: {e}");
                std::process::exit(2);
            }
        },
        None => zoo::all()
            .into_iter()
            .filter(|s| args.only.as_deref().is_none_or(|n| s.name == n))
            .collect(),
    };
    if specs.is_empty() {
        eprintln!("sim_search: no scenario matches --only");
        std::process::exit(2);
    }
    if let Some(bug) = &args.planted {
        if let Err(e) = apply_planted(std::slice::from_ref(bug), true) {
            eprintln!("sim_search: {e}");
            std::process::exit(2);
        }
        println!("== planted bug `{bug}` armed; the search MUST find it ==");
    }

    let cfg = SearchConfig {
        budget: args.budget,
        base_seed: args.seed,
        strategies: args.strategies.clone(),
        pct_depth: 3,
        stop_at_first_failure: true,
    };

    let mut any_failed = false;

    for spec in &specs {
        println!(
            "== {}: searching up to {} schedules from seed {} ==",
            spec.name, cfg.budget, cfg.base_seed
        );
        let outcome = match search_spec(spec, &cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("  SKIP {e}");
                continue;
            }
        };
        println!(
            "  {} runs, {} distinct signatures, corpus {}, mean {} switches",
            outcome.stats.runs,
            outcome.stats.distinct_signatures,
            outcome.stats.corpus_size,
            outcome.stats.mean_switches
        );

        let Some(found) = outcome.failure else {
            println!("  no failing schedule within budget");
            continue;
        };
        any_failed = true;
        println!(
            "  FAILED at schedule {} (strategy {}, seed {}, {} decisions):\n    {}",
            found.schedule_index,
            found.strategy,
            found.seed,
            found.trace.decisions.len(),
            found.message.lines().next().unwrap_or("")
        );

        // Minimize the spec the failing run actually executed — the
        // sweep mutates fault parameters per run, so `found.spec` can
        // differ from the base zoo spec.
        match minimize(&found.spec, found.seed, &found.trace, MINIMIZE_BUDGET) {
            Ok(min) => {
                println!(
                    "  minimized: {} sessions x {} txns, {} decisions ({} runs spent)",
                    min.spec.sessions,
                    min.spec.txns_per_session,
                    min.trace.decisions.len(),
                    min.runs_used
                );
                let repro = ReproFile {
                    spec: min.spec,
                    seed: min.seed,
                    planted: args.planted.iter().cloned().collect(),
                    trace: min.trace,
                };
                match replay_repro(&repro) {
                    Ok((Some(_), true)) => println!("  repro replays deterministically"),
                    Ok((headline, det)) => eprintln!(
                        "  WARNING: repro unstable (failure: {:?}, deterministic: {det})",
                        headline.as_deref().map(|h| h.lines().next().unwrap_or(""))
                    ),
                    Err(e) => eprintln!("  WARNING: repro replay errored: {e}"),
                }
                if let Some(dir) = &args.repro_dir {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("  cannot create {dir:?}: {e}");
                    } else {
                        let path = dir.join(format!("{}.repro", spec.name));
                        match repro.write(&path) {
                            Ok(()) => println!("  wrote {}", path.display()),
                            Err(e) => eprintln!("  cannot write {path:?}: {e}"),
                        }
                    }
                }
            }
            Err(e) => eprintln!("  minimizer failed: {e}"),
        }
    }

    if let Some(bug) = &args.planted {
        // Disarm before exiting, symmetric with the arm above.
        let _ = apply_planted(std::slice::from_ref(bug), false);
    }

    let ok = match args.planted {
        // Planted mode asserts the search finds the bug.
        Some(bug) => {
            if any_failed {
                println!("== planted bug `{bug}` found ==");
            } else {
                eprintln!("== planted bug `{bug}` NOT found within budget ==");
            }
            any_failed
        }
        None => !any_failed,
    };
    std::process::exit(if ok { 0 } else { 1 });
}
