//! `dgnn-benchmark compare A.json B.json`: whether set B is worse than
//! set A, per workload and end-to-end metric, against the metric's bound.

use std::process::ExitCode;

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::suite::{read_results, WorkloadResult};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's, and the spread is too.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs spread wider than the bound (or are too few to tell), and
    /// B's runs do not all read better than all of A's.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// The wider of the two sets' interquartile ranges over their median.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judges metric `m` from set A's and set B's runs.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Row {
    let bound = m.bound.expect("only end-to-end metrics are judged");
    let (median_a, median_b) = (median(a), median(b));
    let spread = spread(a).zip(spread(b)).map(|(x, y)| x.max(y));
    let all_better = !a.is_empty()
        && !b.is_empty()
        && b.iter()
            .all(|&y| a.iter().all(|&x| m.better.worsening(x, y) < 0.0));
    let verdict = if a.is_empty() || b.is_empty() {
        Verdict::Unresolved
    } else if m.better.worsening(median_a, median_b) > bound {
        Verdict::Worse
    } else if spread.is_none_or(|s| s > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        spread,
        verdict,
    }
}

fn values(w: &WorkloadResult, name: &str) -> Vec<f64> {
    w.runs.iter().filter_map(|r| r.metric(name)).collect()
}

fn failed(w: &WorkloadResult) -> u64 {
    w.runs.iter().chain([&w.traced]).map(|r| r.failed).sum()
}

pub fn run(paths: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = paths else {
        return Err("compare takes two result files".to_string());
    };
    let read = |path: &String| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        read_results(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (set_a, set_b) = (read(path_a)?, read(path_b)?);

    let mut bad = 0;
    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread", "bound"
    );
    for (name, a) in &set_a {
        let Some((_, b)) = set_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<13} missing from {path_b}: unresolved");
            bad += 1;
            continue;
        };
        for m in &END_TO_END {
            let row = judge(m, &values(a, m.name), &values(b, m.name));
            println!(
                "{name:<13} {:<16} {:>14.4} {:>14.4} {:>8} {:>7.3}  {}",
                m.name,
                row.median_a,
                row.median_b,
                row.spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
                m.bound.unwrap_or(0.0),
                row.verdict.as_str()
            );
            bad += u32::from(row.verdict != Verdict::Ok);
        }
        let (failed_a, failed_b) = (failed(a), failed(b));
        println!("{name:<13} {:<16} {failed_a:>14} {failed_b:>14}", "failed");
        bad += u32::from(failed_b > failed_a);
        // Counts the program makes repeat exactly on the same seed.
        if a.traced.seed == b.traced.seed {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (x, y) = (a.traced.metric(m.name), b.traced.metric(m.name));
                if x != y {
                    println!("{name:<13} {:<34} {x:?} != {y:?}  differs", m.name);
                    bad += 1;
                }
            }
        }
    }
    println!("{bad} rows worse, unresolved or differing");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lower-is-better timing with a 10% bound.
    fn step_ms() -> &'static Metric {
        &Metric {
            name: "step_ms",
            unit: "ms",
            better: crate::catalog::Better::Lower,
            bound: Some(0.10),
            exact: false,
        }
    }

    #[test]
    fn steady_sets_within_the_bound_are_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        let row = judge(step_ms(), &a, &b);
        assert_eq!(row.verdict, Verdict::Ok);
        assert_eq!((row.median_a, row.median_b), (100.0, 103.0));
        assert!(row.spread.unwrap() < 0.03);
    }

    #[test]
    fn a_median_beyond_the_bound_is_worse() {
        let a = [100.0, 101.0, 99.0];
        let b = [112.0, 113.0, 111.0];
        assert_eq!(judge(step_ms(), &a, &b).verdict, Verdict::Worse);
        // The other way round it is an improvement, which is fine.
        assert_eq!(judge(step_ms(), &b, &a).verdict, Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let b = [101.0, 131.0, 81.0, 121.0, 91.0];
        assert_eq!(judge(step_ms(), &a, &b).verdict, Verdict::Unresolved);
        let better = [60.0, 70.0, 50.0, 75.0, 55.0];
        assert_eq!(judge(step_ms(), &a, &better).verdict, Verdict::Ok);
    }

    #[test]
    fn too_few_runs_to_know_the_spread_are_unresolved() {
        assert_eq!(
            judge(step_ms(), &[100.0], &[100.0]).verdict,
            Verdict::Unresolved
        );
        assert_eq!(judge(step_ms(), &[], &[100.0]).verdict, Verdict::Unresolved);
    }
}
