//! # dgnn-bench
//!
//! Experiment harnesses regenerating the tables and figures of the paper's
//! evaluation (§6): the scaling rows on the §7 cost model, the convergence
//! rows (Fig. 6, §6.5) by real training. Each module prints the same
//! rows/series the paper reports, side by side with the paper's published
//! values where available.
//!
//! Binaries: `table1`, `fig4_graph_diff`, `fig5_strong_scaling`,
//! `fig6_convergence`, `fig7_weak_scaling`, `table2_partition`,
//! `table3_hybrid`, `ablations`, `calib` (machine-constant calibration) and
//! `run_all`, plus two print-only sweeps: `kernel_scaling` (the hot kernels
//! serial vs 2/4/8 pool threads) and `reuse` (the pre-aggregation build
//! across churn rates). Measured end-to-end and per-layer numbers come
//! from `dgnn-benchmark` (`benchmark/`), not from here.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod kernel_scaling;
pub mod reuse;
pub mod table1;
pub mod table2;
pub mod table3;

/// The GPU counts swept by the paper's strong-scaling plots.
pub const P_SWEEP: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Formats a millisecond value compactly.
pub fn ms(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2}s", v / 1e3)
    } else {
        format!("{v:.0}ms")
    }
}

/// Formats a byte count in GiB.
pub fn gib(bytes: u64) -> String {
    format!("{:.1}GiB", bytes as f64 / (1u64 << 30) as f64)
}

/// The smoothing each model applies to a dataset, with windows calibrated
/// against Table 1.
pub fn smoothing_for(
    kind: dgnn_graph::ModelKind,
    spec: &dgnn_graph::DatasetSpec,
) -> dgnn_graph::Smoothing {
    use dgnn_graph::{ModelKind, Smoothing};
    match kind {
        ModelKind::CdGcn => Smoothing::None,
        ModelKind::EvolveGcn => Smoothing::EdgeLife(spec.calibrated_edge_life()),
        ModelKind::TmGcn => Smoothing::MProduct(spec.calibrated_mproduct_window()),
    }
}
