//! The hybrid trainer (paper §6.5): individual snapshots too large for
//! one GPU are split row-wise among the members of a processor group.
//! This runs the paper's exploratory experiment — one group whose members
//! share *every* snapshot — which trained AMLSim-Large-1/2 on two GPUs.
//!
//! It is the row-split layout (`crate::engine::layout`) over balanced
//! ranges of the original vertex ids, with no renaming: the same layout as
//! the vertex-partitioning baseline, which differs only in where its
//! ranges come from.

use dgnn_graph::{DynamicGraph, Snapshot};
use dgnn_models::ModelConfig;
use dgnn_partition::balanced_ranges;

use crate::distributed::{train_ranks, Split};
use crate::engine::EngineConfig;
use crate::metrics::{EpochStats, TrainOptions};
use crate::task::{prepare_task, TaskOptions};

/// Hybrid training: one group of `p` ranks sharing every snapshot row-wise
/// (the paper's §6.5 two-GPU experiment). Returns per-epoch statistics and
/// the FNV digest of each rank's final parameter replica (rank order); the
/// replicas must agree bitwise, and `tests/distributed_equivalence.rs`
/// pins that at every rank and thread count.
///
/// The row-split SpMM consumes whole Laplacian rows, so the §5.5 first-layer
/// pre-aggregation does not apply; [`EngineConfig`] disables it here
/// regardless of `task_opts`.
pub fn train_hybrid_digest(
    raw: &DynamicGraph,
    next: &Snapshot,
    cfg: ModelConfig,
    task_opts: &TaskOptions,
    opts: &TrainOptions,
    p: usize,
) -> (Vec<EpochStats>, Vec<u64>) {
    let _threads = dgnn_tensor::pool::scoped_threads(opts.threads);
    let econf = EngineConfig::new(*opts, *task_opts);
    let task = prepare_task(raw, next, &cfg, &econf.resolved_task(false));
    let ranges = balanced_ranges(task.n, p);
    train_ranks(&task, cfg, &econf, Split::Rows(&ranges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::gen::churn;
    use dgnn_models::ModelKind;

    #[test]
    fn hybrid_learns_with_two_members() {
        let g = churn(20, 6, 80, 0.3, 5);
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let cfg = ModelConfig {
            kind: ModelKind::TmGcn,
            input_f: 2,
            hidden: 4,
            mprod_window: 3,
            smoothing_window: 3,
        };
        let stats = train_hybrid_digest(
            &raw,
            &next,
            cfg,
            &TaskOptions {
                precompute_first_layer: false,
                ..Default::default()
            },
            &TrainOptions {
                epochs: 8,
                lr: 0.02,
                nb: 1,
                seed: 3,
                threads: None,
            },
            2,
        )
        .0;
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
    }

    #[test]
    fn preagg_request_is_neutralised_by_engine_config() {
        // The hybrid layout cannot consume Ã·X; requesting it must not
        // change results (the engine config disables it up front).
        let g = churn(20, 5, 80, 0.3, 6);
        let raw = g.time_slice(0, 4);
        let next = g.snapshot(4).clone();
        let cfg = ModelConfig {
            kind: ModelKind::TmGcn,
            input_f: 2,
            hidden: 4,
            mprod_window: 3,
            smoothing_window: 3,
        };
        let run = |preagg: bool| {
            train_hybrid_digest(
                &raw,
                &next,
                cfg,
                &TaskOptions {
                    precompute_first_layer: preagg,
                    ..Default::default()
                },
                &TrainOptions {
                    epochs: 2,
                    lr: 0.02,
                    nb: 1,
                    seed: 3,
                    threads: None,
                },
                2,
            )
            .0
        };
        let on = run(true);
        let off = run(false);
        for (a, b) in on.iter().zip(&off) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        }
    }
}
