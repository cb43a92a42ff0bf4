//! What a run reports, the files it is kept in, and `perf compare`.

use crate::json::Json;
use crate::schema::{self, Better};
use crate::stats;

/// The result of one workload run: metrics by schema name, the
/// operations attempted, and every correctness check that did not
/// hold. There is no count of failed operations: an attempt ends in a
/// commit, a rollback the client asked for or the scheduler's abort
/// (`engine.abort_pct`, `sched.aborted`), which are all decisions; an
/// engine error panics, so a run that prints a result had none.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "{name} twice"
        );
        self.metrics.push((name, value));
    }

    /// Requires `ok`; a failed check makes the whole run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line object the driver reads from the last line of
    /// standard output.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(value)),
                                    ("unit", Json::str(schema::unit_of(name))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// One full pass over every workload.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteRun {
    pub seed: u64,
    pub attempted: u64,
    /// `(workload, metric, value)`.
    pub rows: Vec<(String, String, f64)>,
}

/// A result file: a set of runs of the same code and settings.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    pub seconds: u64,
    pub nproc: usize,
    pub runs: Vec<SuiteRun>,
}

const FILE_SCHEMA: f64 = 1.0;

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(FILE_SCHEMA)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("nproc", Json::Num(self.nproc as f64)),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|run| {
                            Json::obj([
                                ("seed", Json::Num(run.seed as f64)),
                                ("attempted", Json::Num(run.attempted as f64)),
                                (
                                    "metrics",
                                    Json::Arr(
                                        run.rows
                                            .iter()
                                            .map(|(w, m, v)| {
                                                Json::obj([
                                                    ("workload", Json::str(w)),
                                                    ("metric", Json::str(m)),
                                                    ("value", Json::Num(*v)),
                                                    ("unit", Json::str(schema::unit_of(m))),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<ResultFile, String> {
        let num = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result file: missing number `{key}`"))
        };
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result file: missing string `{key}`"))
        };
        let list = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("result file: missing list `{key}`"))
        };
        if num(j, "schema")? != FILE_SCHEMA {
            return Err("result file: unknown schema version".into());
        }
        let mut runs = Vec::new();
        for run in list(j, "runs")? {
            let mut rows = Vec::new();
            for row in list(&run, "metrics")? {
                rows.push((
                    text(&row, "workload")?,
                    text(&row, "metric")?,
                    num(&row, "value")?,
                ));
            }
            runs.push(SuiteRun {
                seed: num(&run, "seed")? as u64,
                attempted: num(&run, "attempted")? as u64,
                rows,
            });
        }
        Ok(ResultFile {
            seconds: num(j, "seconds")? as u64,
            nproc: num(j, "nproc")? as usize,
            runs,
        })
    }

    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&Json::parse(&text)?).map_err(|e| format!("{path}: {e}"))
    }

    /// The values of one workload × metric across the runs of the set.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| &r.rows)
            .filter(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, v)| *v)
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side disagree by more than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the medians of two sets of runs by the metric's bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if stats::iqr_share(a).max(stats::iqr_share(b)) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive when B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per workload × end-to-end metric; returns the table and
/// whether every row is `better` or `same`.
pub fn compare(a: &ResultFile, b: &ResultFile) -> (String, bool) {
    let mut table = format!(
        "{:<11} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut clean = true;
    for (workload, _) in schema::WORKLOADS {
        for m in &schema::END_TO_END {
            let (va, vb) = (a.values(workload, m.name), b.values(workload, m.name));
            if va.is_empty() || vb.is_empty() {
                clean = false;
                table += &format!("{workload:<11} {:<16} missing on one side\n", m.name);
                continue;
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            clean &= matches!(verdict, Verdict::Better | Verdict::Same);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            table += &format!(
                "{workload:<11} {:<16} {ma:>14.3} {mb:>14.3} {:>+7.1}% {:>5.0}%  {}\n",
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
    }
    (table, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(values: &[f64]) -> ResultFile {
        ResultFile {
            seconds: 12,
            nproc: 2,
            runs: values
                .iter()
                .enumerate()
                .map(|(i, v)| SuiteRun {
                    seed: i as u64,
                    attempted: 1000,
                    rows: schema::WORKLOADS
                        .iter()
                        .flat_map(|(w, _)| {
                            schema::END_TO_END
                                .iter()
                                .map(move |m| (w.to_string(), m.name.to_string(), *v))
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn result_file_round_trips() {
        let f = file(&[101.25, 99.5, 100.0]);
        let text = f.to_json().render_pretty();
        assert_eq!(
            ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap(),
            f
        );
        assert!(ResultFile::from_json(&Json::parse("{\"schema\":2}").unwrap()).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.put("txn_per_s", 1234.5);
        o.attempted = 10;
        assert_eq!(
            o.driver_line(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":\
             {\"txn_per_s\":{\"value\":1234.5,\"unit\":\"txn/s\"}}}"
        );
        o.check(false, || "balance sum 7 != 0".into());
        assert!(o.driver_line().starts_with("{\"correct\":false"));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0];
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(&steady, &[105.0, 106.0, 104.0], Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&steady, &[115.0, 116.0, 114.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[85.0, 86.0, 84.0], Better::Lower, 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(&steady, &[115.0, 116.0, 114.0], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&steady, &[85.0, 86.0, 84.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        // A side whose own runs differ by more than the bound.
        assert_eq!(
            judge(&[100.0, 120.0, 90.0], &steady, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_prints_a_row_per_pair_and_flags_regressions() {
        let (table, clean) = compare(&file(&[100.0, 101.0, 99.0]), &file(&[100.5, 100.0, 101.0]));
        assert!(clean, "{table}");
        assert_eq!(
            table.lines().count(),
            1 + schema::WORKLOADS.len() * schema::END_TO_END.len()
        );
        // 30 % more: worse where lower is better, better where higher is.
        let (table, clean) = compare(&file(&[100.0, 101.0, 99.0]), &file(&[130.0, 131.0, 129.0]));
        assert!(!clean);
        assert!(table.contains("worse") && table.contains("better"));
    }
}
