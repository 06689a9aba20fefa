//! The vertex-partitioned (hypergraph) baseline trainer (paper §4.1,
//! §6.4): the row-split layout, which it shares with the hybrid trainer
//! ([`crate::hybrid`]), over a hypergraph partition.
//!
//! The entry point owns the setup that is genuinely its own — hypergraph
//! partitioning, the contiguous renaming, and relabelling the samples so
//! both schemes train on the same task. The exchange plan lives in
//! `crate::engine::vertex_part`, the layout in `crate::engine::layout`.

use dgnn_graph::{DynamicGraph, Snapshot};
use dgnn_models::ModelConfig;
use dgnn_partition::{contiguous_renaming, partition, Hypergraph, PartitionerConfig};

use crate::distributed::{train_ranks, Split};
use crate::engine::vertex_part::part_ranges;
use crate::engine::EngineConfig;
use crate::metrics::{EpochStats, TrainOptions};
use crate::task::{prepare_task, TaskOptions};

/// Trains with hypergraph-based vertex partitioning over `p` rank threads
/// and returns per-epoch statistics (identical on every rank) and the FNV
/// digest of each rank's final parameter replica (rank order); the
/// replicas must agree bitwise, and `tests/distributed_equivalence.rs`
/// pins that at every rank and thread count.
///
/// The partitioned SpMM consumes remapped Laplacian rows, so the §5.5
/// first-layer pre-aggregation does not apply; [`EngineConfig`] disables
/// it for the renamed-space task regardless of `task_opts`.
pub fn train_vertex_partitioned_digest(
    raw: &DynamicGraph,
    next: &Snapshot,
    cfg: ModelConfig,
    task_opts: &TaskOptions,
    opts: &TrainOptions,
    p: usize,
) -> (Vec<EpochStats>, Vec<u64>) {
    let _threads = dgnn_tensor::pool::scoped_threads(opts.threads);
    let econf = EngineConfig::new(*opts, *task_opts);
    let task_opts = econf.resolved_task(false);
    // Samples are drawn in the original vertex space so both schemes train
    // on the same task, then renamed alongside the vertices.
    let task = prepare_task(raw, next, &cfg, &task_opts);
    let hg = Hypergraph::column_net_model(&task.graph);
    let part = partition(&hg, &PartitionerConfig::new(p));
    let (perm, _inv) = contiguous_renaming(&part, p);
    // Rebuild graph-side data in the renamed space (degree features and
    // Laplacians are permutation-equivariant).
    let mut renamed = prepare_task(&raw.relabel(&perm), &next.relabel(&perm), &cfg, &task_opts);
    // Both schemes must train on the *same* sample pairs (paper Fig. 6
    // compares convergence): take the original-space samples and rename
    // their endpoints, rather than re-sampling in the renamed space.
    renamed.train = task.train.iter().map(|s| s.relabel(&perm)).collect();
    renamed.test = task.test.relabel(&perm);
    let ranges = part_ranges(&part, p);
    train_ranks(&renamed, cfg, &econf, Split::Rows(&ranges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::gen::churn;
    use dgnn_models::ModelKind;

    fn tiny_cfg(kind: ModelKind) -> ModelConfig {
        ModelConfig {
            kind,
            input_f: 2,
            hidden: 4,
            mprod_window: 3,
            smoothing_window: 3,
        }
    }

    #[test]
    fn vertex_partitioned_learns() {
        let g = churn(24, 6, 100, 0.3, 5);
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let stats = train_vertex_partitioned_digest(
            &raw,
            &next,
            tiny_cfg(ModelKind::TmGcn),
            &TaskOptions {
                precompute_first_layer: false,
                ..Default::default()
            },
            &TrainOptions {
                epochs: 4,
                lr: 0.02,
                nb: 1,
                seed: 3,
                threads: None,
            },
            2,
        )
        .0;
        assert_eq!(stats.len(), 4);
        assert!(stats.last().unwrap().loss < stats.first().unwrap().loss);
    }
}
