//! What one run reports: the operations and checks it counted, its
//! metrics by name, and the one JSON line the driver reads.

use std::collections::BTreeMap;

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::json::Value;

/// Operations and output checks, counted together: `failed / attempted`
/// is the run's error rate.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the person reading the run.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation or check; `what` names it if it failed.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }
}

/// Metric values by name, as measured.
pub type Values = BTreeMap<&'static str, f64>;

/// One finished run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub values: Values,
    /// Resolved sizes and other facts worth keeping beside the numbers.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The metrics this run owes the driver: every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one. An
    /// end-to-end metric that is missing, zero or not finite is a failed
    /// check; a per-layer metric nobody set reads 0, its layer having
    /// done no work.
    pub fn metrics_json(&mut self, trace: bool) -> Value {
        let wanted: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut pairs = Vec::with_capacity(wanted.len());
        for m in wanted {
            let v = self.values.get(m.name).copied();
            if trace {
                self.checks.check(
                    &format!("{} is a finite number", m.name),
                    v.is_none_or(f64::is_finite),
                );
            } else {
                self.checks.check(
                    &format!("{} was measured and is not 0", m.name),
                    v.is_some_and(|v| v.is_finite() && v != 0.0),
                );
            }
            let value = v.filter(|v| v.is_finite()).unwrap_or(0.0);
            pairs.push((
                m.name,
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(m.unit))]),
            ));
        }
        Value::obj(pairs)
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&mut self, trace: bool) -> String {
        let metrics = self.metrics_json(trace);
        Value::obj([
            ("correct", Value::Bool(self.checks.failed == 0)),
            ("attempted", Value::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}

/// One printed line of a metric: name, value (`lost` where a run left
/// none) and unit.
pub fn metric_line(m: &Metric, v: Option<f64>) -> String {
    let value = v.map_or("lost".to_string(), |v| format!("{v:.6}"));
    format!("  {:<34} {value:>16} {}", m.name, m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn full_outcome(trace: bool) -> Outcome {
        let mut out = Outcome::default();
        let wanted: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        for (i, m) in wanted.iter().enumerate() {
            out.values.insert(m.name, 1.5 + i as f64);
        }
        out.checks.check("an operation", true);
        out
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for trace in [false, true] {
            let line = full_outcome(trace).result_line(trace);
            assert!(!line.contains('\n'));
            crate::adapter::validate_json(&line).expect("valid JSON");
            let doc = json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
            let wanted: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(metrics.len(), wanted.len());
            for ((name, v), m) in metrics.iter().zip(wanted) {
                assert_eq!(name, m.name);
                assert_eq!(v.get("unit").and_then(Value::as_str), Some(m.unit));
                assert!(v.get("value").and_then(Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn a_failed_check_is_counted_not_dropped() {
        let mut out = full_outcome(false);
        out.checks.check("loss is finite", false);
        let doc = json::parse(&out.result_line(false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        assert_eq!(out.checks.failures, ["loss is finite"]);
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_fails_the_run() {
        let mut out = full_outcome(false);
        out.values.remove("step_ms");
        out.values.insert("setup_s", 0.0);
        let doc = json::parse(&out.result_line(false)).unwrap();
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(2.0));
        // Still every metric by name, so the line keeps its shape.
        assert_eq!(
            doc.get("metrics").unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn an_unset_layer_metric_reads_zero_and_a_nan_fails() {
        let mut out = Outcome::default();
        out.checks.check("an operation", true);
        out.values.insert("core.final_loss", f64::NAN);
        let doc = json::parse(&out.result_line(true)).unwrap();
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        let m = doc.get("metrics").unwrap();
        let value = |name| {
            m.get(name)
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(value("store.evictions"), Some(0.0));
        assert_eq!(value("core.final_loss"), Some(0.0));
    }
}
