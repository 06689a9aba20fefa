//! Every workload and metric the benchmark knows, in one table.
//! `BENCHMARK.json` at the root of the repository states the same table
//! for the driver; a unit test holds the two equal.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let delta = match self {
            Better::Lower => new - base,
            Better::Higher => base - new,
        };
        delta / base.abs()
    }
}

/// One workload: its name and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen; per-layer metrics have none. `exact`
/// marks a count that must repeat bit for bit on the same seed.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "train_mem",
        why: "Paper section 3 baseline: checkpointed CD-GCN epochs on a resident task. Loads tensor, autograd, models, core; bypasses stream, store, sim, serve. Other rows are read against it.",
    },
    Workload {
        name: "train_ooc",
        why: "The train_mem task and calls through the tiered store at half its working set: the store is the only difference, so store work shows here and must not move train_mem.",
    },
    Workload {
        name: "train_dist",
        why: "Paper section 4.2: TM-GCN snapshot-partitioned over 2 rank threads with all-to-all redistribution. The only workload on which sim and partition work; SpMM and M-product kernel mix.",
    },
    Workload {
        name: "stream_train",
        why: "Continual learning through train_streaming on an AML-style event log at 2% churn. Unsmoothed CD-GCN puts pre-aggregation on the journal path; serve and store do nothing.",
    },
    Workload {
        name: "stream_serve",
        why: "The whole pipeline per closed window: events, task prep, warm-started EvolveGCN training, checkpoint, served refresh, queries. Edge-life smoothing puts prep on the exact-scan path.",
    },
    Workload {
        name: "serve_mixed",
        why: "Writes beside reads on the serving tier, one closed-loop client: nine 10-event advances and one 2000-event burst per cycle, 16 query batches after each. core does nothing.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
    }
}

/// What a user of the system sees; measured by the untraced run.
///
/// One bound serves all six workloads, so it is set by the noisiest: on
/// the shared 2-core reference host `train_dist`, which keeps both cores
/// busy, drifted 12% between two ten-seed sets taken an hour apart, and
/// its runs spread 12% in the noisier hour (3% in the quiet one). A
/// tighter gate would reject changes for the host's weather; `compare`
/// over several runs resolves smaller differences.
pub const END_TO_END: [Metric; 4] = [
    // Median wall time of one step: an epoch (train_*), a closed window
    // taken to an updated model (stream_train) or to served new weights
    // and answered queries (stream_serve), a ten-round cycle (serve_mixed).
    e2e("step_ms", "ms", 0.25),
    // Processor time per step, every thread counted: a step made faster
    // by occupying the second core shows here.
    e2e("cpu_ms_per_step", "ms", 0.25),
    // Peak resident set of the process up to the end of the timed region.
    e2e("peak_rss_mb", "MiB", 0.15),
    // Input generation plus everything untimed before the first step.
    e2e("setup_s", "s", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Single layers; measured by the traced run. A layer's metrics read 0 on
/// a workload that bypasses the layer.
pub const PER_LAYER: [Metric; 79] = [
    // tensor: the workload's own Laplacian and widths, timed after the run.
    layer("tensor.spmm_ms", "ms", Lower),
    layer("tensor.spmm_gflops", "GFLOP/s", Higher),
    layer("tensor.spmm_computed_gbps", "GB/s", Higher),
    layer("tensor.spmm_transa_ms", "ms", Lower),
    layer("tensor.spmm_rows_ms", "ms", Lower),
    layer("tensor.matmul_ms", "ms", Lower),
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("tensor.peak_gflops", "GFLOP/s", Higher),
    count("tensor.ws_fresh_allocs_per_step", "count", Lower),
    count("tensor.ws_reused_per_step", "count", Higher),
    // core: one call into a training entry point and its phases per epoch.
    layer("core.job_ms", "ms", Lower),
    layer("core.forward_ms", "ms", Lower),
    layer("core.recompute_ms", "ms", Lower),
    layer("core.backward_ms", "ms", Lower),
    layer("core.optimizer_ms", "ms", Lower),
    layer("core.phase_coverage", "ratio", Higher),
    layer("core.recompute_share", "ratio", Lower),
    layer("core.self_ms_per_step", "ms", Lower),
    count("core.final_loss", "loss", Lower),
    count("core.holdout_auc", "auc", Higher),
    // graph: task preparation and the graph-difference transfer encoding.
    layer("graph.prep_ms", "ms", Lower),
    count("graph.preagg_recomputed_frac", "ratio", Lower),
    count("graph.preagg_full_rebuilds", "count", Lower),
    layer("graph.laplacian_ms", "ms", Lower),
    layer("graph.diff_ms", "ms", Lower),
    count("graph.gd_bytes_per_epoch", "B", Lower),
    count("graph.naive_bytes_per_epoch", "B", Lower),
    count("graph.gd_ratio", "ratio", Higher),
    layer("graph.self_ms_per_step", "ms", Lower),
    // stream: event application and window close.
    layer("stream.apply_events_per_s", "1/s", Higher),
    layer("stream.window_close_ms", "ms", Lower),
    count("stream.events_per_window", "count", Lower),
    count("stream.touched_frac", "ratio", Lower),
    layer("stream.self_ms_per_step", "ms", Lower),
    // sim: collectives between rank threads, and the section 7 model.
    count("sim.comm_bytes_per_epoch", "B", Lower),
    layer("sim.comm_ms", "ms", Lower),
    layer("sim.comm_wait_ms", "ms", Lower),
    layer("sim.comm_share", "ratio", Lower),
    layer("sim.alltoall_1mib_us", "us", Lower),
    layer("sim.model_epoch_ms", "ms", Lower),
    layer("sim.model_rel_err", "ratio", Lower),
    // store: the out-of-core tier, per training call.
    layer("store.miss_bytes_per_epoch", "B", Lower),
    layer("store.demand_misses", "count", Lower),
    layer("store.prefetch_hits", "count", Higher),
    layer("store.prefetch_hit_ratio", "ratio", Higher),
    layer("store.evictions", "count", Lower),
    layer("store.peak_resident_frac", "ratio", Lower),
    layer("store.wait_ms_per_epoch", "ms", Lower),
    count("store.spilled_bytes", "B", Lower),
    layer("store.put_get_mbps", "MB/s", Higher),
    // serve: checkpoint codec, refresh, incremental advance and queries.
    count("serve.ckpt_bytes", "B", Lower),
    layer("serve.ckpt_encode_ms", "ms", Lower),
    layer("serve.ckpt_decode_ms", "ms", Lower),
    layer("serve.bulk_ingest_ms", "ms", Lower),
    layer("serve.bulk_forward_ms", "ms", Lower),
    layer("serve.refresh_ms", "ms", Lower),
    layer("serve.advance_ms", "ms", Lower),
    layer("serve.advance_tail_ms", "ms", Lower),
    layer("serve.advance_tail_pct", "%", Higher),
    layer("serve.burst_advance_ms", "ms", Lower),
    layer("serve.frontier_frac", "ratio", Lower),
    layer("serve.burst_frontier_frac", "ratio", Lower),
    layer("serve.full_forward_ms", "ms", Lower),
    layer("serve.advance_over_full", "ratio", Lower),
    layer("serve.predict_us", "us", Lower),
    layer("serve.predict_tail_us", "us", Lower),
    layer("serve.score_us", "us", Lower),
    layer("serve.score_tail_us", "us", Lower),
    layer("serve.query_tail_pct", "%", Higher),
    layer("serve.self_ms_per_step", "ms", Lower),
    // telemetry: what tracing itself cost and kept.
    layer("telemetry.traced_step_ms", "ms", Lower),
    layer("telemetry.plain_step_ms", "ms", Lower),
    layer("telemetry.trace_overhead_frac", "ratio", Lower),
    layer("telemetry.span_coverage", "ratio", Higher),
    layer("telemetry.spans", "count", Lower),
    layer("telemetry.program_events", "count", Lower),
    layer("telemetry.dropped_events", "count", Lower),
    layer("telemetry.steps", "count", Higher),
    layer("telemetry.samples", "count", Higher),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let head = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!name_ok("") && !name_ok("-x") && !name_ok("a b") && name_ok("a.b_c-1"));
    }

    #[test]
    fn bounds_follow_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 110.0) + 0.1).abs() < 1e-12);
    }

    fn metric_json(m: &Metric, with_bound: bool) -> Value {
        let mut pairs = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            (
                "better",
                Value::str(match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }),
            ),
        ];
        if with_bound {
            pairs.push(("bound", Value::Num(m.bound.unwrap())));
        }
        Value::obj(pairs)
    }

    #[test]
    fn benchmark_json_states_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = Value::Arr(
            WORKLOADS
                .iter()
                .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                .collect(),
        );
        assert_eq!(doc.get("workloads"), Some(&workloads));
        let e2e = Value::Arr(END_TO_END.iter().map(|m| metric_json(m, true)).collect());
        assert_eq!(doc.get("end_to_end"), Some(&e2e));
        let per_layer = Value::Arr(PER_LAYER.iter().map(|m| metric_json(m, false)).collect());
        assert_eq!(doc.get("per_layer"), Some(&per_layer));
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
