//! `perf` — the deltx benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload, as the benchmark driver calls it. The
//!     last line of standard output is the result object.
//! perf run [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
//!     Every workload, untraced then traced; one line per metric;
//!     writes perf/out/result.json (or <file>) unless a check failed.
//! perf micro
//!     The layer micro-measures alone.
//! perf compare <A.json> <B.json>
//!     One row per workload x end-to-end metric, judged by its bound.
//! perf schema
//!     Prints BENCHMARK.json.
//! ```
//!
//! Run from the repository root; everything written goes under
//! `perf/out/`. See `perf/README.md` for the schema.

mod bank;
mod json;
mod load;
mod micro;
mod offline;
mod recording;
mod report;
mod schema;
mod spans;
mod stats;
mod suite;

use report::{Outcome, ResultFile, SuiteRun};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where traces, result files and WAL directories go: `perf/out`
/// under the repository root, which is the current directory for the
/// driver and `out` for `cargo test` (which runs inside `perf/`).
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("perf/Cargo.toml").is_file() {
        PathBuf::from("perf/out")
    } else {
        PathBuf::from("out")
    }
}

/// `--key value` pairs after the subcommand; anything else is an error.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if allowed.contains(&key.as_str()) => {
                    pairs.push((key.clone(), value.clone()));
                }
                [key, ..] => return Err(format!("unexpected argument `{key}`")),
                [] => unreachable!("chunks are never empty"),
            }
        }
        Ok(Flags(pairs))
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match self.text(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} takes a whole number, got `{v}`")),
            None => default.ok_or_else(|| format!("{key} is required")),
        }
    }
}

fn seconds_flag(flags: &Flags, default: Option<u64>) -> Result<u64, String> {
    match flags.number("--seconds", default)? {
        s @ 1..=60 => Ok(s),
        s => Err(format!("--seconds must be 1..=60, got {s}")),
    }
}

fn report_failures(out: &Outcome) {
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }
}

fn driver(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let workload = flags.text("--workload").ok_or("--workload is required")?;
    if !schema::WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let traced = match flags.number("--trace", None)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    let out = suite::run(
        workload,
        flags.number("--seed", None)?,
        seconds_flag(&flags, None)?,
        traced,
    );
    report_failures(&out);
    println!("{}", out.driver_line());
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_rows(workload: &str, out: &Outcome) {
    for (name, value) in &out.metrics {
        println!("{workload} {name} {value} {}", schema::unit_of(name));
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds", "--runs", "--out"])?;
    let seed = flags.number("--seed", Some(1))?;
    let seconds = seconds_flag(&flags, Some(schema::RUN_SECONDS))?;
    let path = flags
        .text("--out")
        .map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    let mut file = ResultFile {
        seconds,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        runs: Vec::new(),
    };
    for _ in 0..flags.number("--runs", Some(1))? {
        let mut run = SuiteRun {
            seed,
            attempted: 0,
            rows: Vec::new(),
        };
        for (workload, _) in schema::WORKLOADS {
            for traced in [false, true] {
                let out = suite::run(workload, seed, seconds, traced);
                print_rows(workload, &out);
                if !out.correct() {
                    report_failures(&out);
                    return Ok(ExitCode::FAILURE);
                }
                run.attempted += out.attempted;
                run.rows.extend(
                    out.metrics
                        .iter()
                        .map(|(name, value)| (workload.to_string(), name.to_string(), *value)),
                );
            }
        }
        file.runs.push(run);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_json().render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("micro") => {
            let mut out = Outcome::default();
            micro::run(&mut out);
            print_rows("micro", &out);
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args[1..] {
            [a, b] => ResultFile::load(a).and_then(|a| {
                let (table, clean) = report::compare(&a, &ResultFile::load(b)?);
                print!("{table}");
                Ok(if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }),
            _ => Err("compare takes two result files".into()),
        },
        Some("schema") => {
            print!("{}", schema::benchmark_json().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => driver(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        eprintln!("usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        eprintln!("       perf run [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]");
        eprintln!("       perf micro | perf compare <A.json> <B.json> | perf schema");
        ExitCode::from(2)
    })
}
