//! `dgnn-benchmark all`: every workload, each run in a child process of
//! its own so that its peak memory is its own, untraced and then traced,
//! written with the host's fingerprint to one result file.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{self, Value};
use crate::{host, report, Args};

pub const DEFAULT_SEED: u64 = 11;
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Untraced runs per workload, on consecutive seeds: the fewest that give
/// `compare` a spread.
const DEFAULT_RUNS: u64 = 3;
const DEFAULT_OUT: &str = "benchmark/out/results.json";

/// What a child process left: its exit, and what it printed.
pub struct ChildOutput {
    pub success: bool,
    pub stdout: String,
}

/// One run as the result file keeps it.
#[derive(Debug, PartialEq)]
pub struct RunRecord {
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the catalog's order; empty for a lost run.
    pub metrics: Vec<(String, f64)>,
    /// Resolved sizes the run printed.
    pub sizes: Vec<(String, f64)>,
}

impl RunRecord {
    /// A run that left no result counts as one failed operation.
    fn lost(seed: u64) -> Self {
        Self {
            seed,
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            sizes: Vec::new(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn to_json(&self) -> Value {
        let nums = |pairs: &[(String, f64)]| {
            Value::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            )
        };
        Value::obj([
            ("seed", Value::Num(self.seed as f64)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("sizes", nums(&self.sizes)),
            ("metrics", nums(&self.metrics)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let nums = |key: &str| -> Option<Vec<(String, f64)>> {
            v.get(key)?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        Some(Self {
            seed: v.get("seed")?.as_f64()? as u64,
            correct: v.get("correct")? == &Value::Bool(true),
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            metrics: nums("metrics")?,
            sizes: nums("sizes")?,
        })
    }
}

/// Reads a child's output into a record. A child that exited with an
/// error, or whose last line is not the result object with every wanted
/// metric, is a lost run: counted as failed, never dropped.
pub fn record_child(seed: u64, wanted: &[Metric], child: &ChildOutput) -> RunRecord {
    let parsed = || -> Option<RunRecord> {
        let doc = json::parse(child.stdout.lines().rev().find(|l| !l.trim().is_empty())?).ok()?;
        let metrics = doc.get("metrics")?;
        Some(RunRecord {
            seed,
            correct: doc.get("correct")? == &Value::Bool(true),
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            metrics: wanted
                .iter()
                .map(|m| {
                    Some((
                        m.name.to_string(),
                        metrics.get(m.name)?.get("value")?.as_f64()?,
                    ))
                })
                .collect::<Option<_>>()?,
            sizes: child
                .stdout
                .lines()
                .filter_map(|l| {
                    let (key, value) = l.trim().strip_prefix("size ")?.split_once(" = ")?;
                    Some((key.to_string(), value.parse().ok()?))
                })
                .collect(),
        })
    };
    match parsed() {
        Some(record) if child.success => record,
        _ => RunRecord::lost(seed),
    }
}

fn spawn_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> ChildOutput {
    let exe = std::env::current_exe().expect("the running program has a path");
    // The DGNN_* switches were removed from this process's environment at
    // start-up, so the child inherits none.
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    match out {
        Ok(out) => ChildOutput {
            success: out.status.success(),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        },
        Err(_) => ChildOutput {
            success: false,
            stdout: String::new(),
        },
    }
}

fn print_metrics(record: &RunRecord, wanted: &[Metric]) {
    for m in wanted {
        println!("{}", report::metric_line(m, record.metric(m.name)));
    }
    println!(
        "  checks: {} attempted, {} failed",
        record.attempted, record.failed
    );
}

pub fn run_all(
    args: &Args,
    env_found: &[(&'static str, Option<String>)],
) -> Result<ExitCode, String> {
    args.only(&["seed", "seconds", "runs", "out"])?;
    let seed: u64 = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args.get("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let runs: u64 = args.get("runs")?.unwrap_or(DEFAULT_RUNS).max(1);
    let out: PathBuf = args
        .get("out")?
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));

    let mut failed = 0;
    let mut per_workload = Vec::new();
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let untraced: Vec<RunRecord> = (0..runs)
            .map(|r| {
                let child = spawn_run(w.name, seed + r, seconds, false);
                let record = record_child(seed + r, &END_TO_END, &child);
                println!(" untraced, seed {}:", seed + r);
                print_metrics(&record, &END_TO_END);
                record
            })
            .collect();
        let child = spawn_run(w.name, seed, seconds, true);
        let traced = record_child(seed, &PER_LAYER, &child);
        println!(" traced, seed {seed}:");
        print_metrics(&traced, &PER_LAYER);

        failed += untraced
            .iter()
            .chain([&traced])
            .map(|r| r.failed)
            .sum::<u64>();
        per_workload.push((
            w.name,
            Value::obj([
                ("why", Value::str(w.why)),
                (
                    "runs",
                    Value::Arr(untraced.iter().map(RunRecord::to_json).collect()),
                ),
                ("traced", traced.to_json()),
            ]),
        ));
    }

    let doc = Value::obj([
        ("benchmark", Value::str("dgnn-benchmark")),
        ("host", host::fingerprint()),
        (
            "dgnn_env_found",
            Value::obj(
                env_found
                    .iter()
                    .map(|(k, v)| (*k, v.clone().map_or(Value::Null, Value::Str))),
            ),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Num(runs as f64)),
        ("workloads", Value::obj(per_workload)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    println!("error_rate: {failed} failed operations and checks");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload's runs as a result file holds them.
pub struct WorkloadResult {
    pub runs: Vec<RunRecord>,
    pub traced: RunRecord,
}

/// Reads the per-workload records back out of a result file.
pub fn read_results(text: &str) -> Result<Vec<(String, WorkloadResult)>, String> {
    let doc = json::parse(text)?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("no \"workloads\" object")?;
    workloads
        .iter()
        .map(|(name, w)| {
            let bad = || format!("workload {name} is malformed");
            let runs = w
                .get("runs")
                .and_then(Value::as_arr)
                .ok_or_else(bad)?
                .iter()
                .map(RunRecord::from_json)
                .collect::<Option<Vec<_>>>()
                .ok_or_else(bad)?;
            let traced = w
                .get("traced")
                .and_then(RunRecord::from_json)
                .ok_or_else(bad)?;
            Ok((name.clone(), WorkloadResult { runs, traced }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    fn clean_child(trace: bool) -> ChildOutput {
        let mut out = Outcome::default();
        let wanted: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        for (i, m) in wanted.iter().enumerate() {
            out.values.insert(m.name, 2.5 + i as f64);
        }
        out.checks.check("an operation", true);
        ChildOutput {
            success: true,
            stdout: format!(
                "  size n = 16384\n  step_ms 1.0 ms\n{}\n",
                out.result_line(trace)
            ),
        }
    }

    #[test]
    fn a_clean_child_is_read_back() {
        let r = record_child(11, &END_TO_END, &clean_child(false));
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (5, 0));
        assert_eq!(r.metric("step_ms"), Some(2.5));
        assert_eq!(r.sizes, [("n".to_string(), 16384.0)]);
        assert_eq!(RunRecord::from_json(&r.to_json()), Some(r));
    }

    #[test]
    fn a_crashed_or_silent_child_is_a_failed_operation_not_a_gap() {
        // Panicked: a non-zero exit and no result line.
        let crashed = ChildOutput {
            success: false,
            stdout: "workload train_mem seed 11\n".to_string(),
        };
        // Killed after it printed a result, or printed one and then failed.
        let mut late = clean_child(false);
        late.success = false;
        // Exited cleanly but printed something else.
        let silent = ChildOutput {
            success: true,
            stdout: "{\"correct\":true}\n".to_string(),
        };
        for child in [crashed, late, silent] {
            let r = record_child(11, &END_TO_END, &child);
            assert_eq!((r.correct, r.attempted, r.failed), (false, 1, 1));
            assert!(r.metrics.is_empty());
        }
    }

    #[test]
    fn result_files_validate_and_read_back() {
        let record = record_child(11, &END_TO_END, &clean_child(false));
        let traced = record_child(11, &PER_LAYER, &clean_child(true));
        let doc = Value::obj([
            ("host", host::fingerprint()),
            (
                "workloads",
                Value::obj([(
                    "train_mem",
                    Value::obj([
                        ("runs", Value::Arr(vec![record.to_json()])),
                        ("traced", traced.to_json()),
                    ]),
                )]),
            ),
        ]);
        let text = doc.render_pretty();
        crate::adapter::validate_json(&text).expect("valid JSON");
        let back = read_results(&text).expect("reads back");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, "train_mem");
        assert_eq!(back[0].1.runs, [record]);
        assert_eq!(back[0].1.traced, traced);
        assert!(read_results("{}").is_err());
    }
}
