//! The vertex-partitioned (hypergraph) baseline trainer (paper §4.1, §6.4)
//! — a thin wrapper binding the
//! `VertexPartitioned` (`engine::vertex_part`)
//! strategy to the shared execution engine. The wrapper owns the setup
//! that is genuinely entry-point work — hypergraph partitioning, the
//! contiguous renaming, and relabelling the samples so both schemes train
//! on the same task — while the exchange plan and staged backward live in
//! `crate::engine::vertex_part`.

use dgnn_graph::{DynamicGraph, EdgeSamples, Snapshot};
use dgnn_models::{LinkPredHead, Model, ModelConfig};
use dgnn_partition::{contiguous_renaming, partition, Hypergraph, PartitionerConfig};
use dgnn_sim::run_ranks;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::vertex_part::{build_plan, part_ranges, VertexPartitioned, VertexRankCtx};
use crate::engine::{run_engine, EngineConfig};
use crate::metrics::{EpochStats, TrainOptions};
use crate::task::{prepare_task, TaskOptions};
use dgnn_autograd::ParamStore;

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
    // Samples are drawn in the original vertex space so both schemes train
    // on the same task, then renamed alongside the vertices.
    let task = prepare_task(raw, next, &cfg, &econf.resolved_task(false));
    let smoothed = &task.graph;
    let hg = Hypergraph::column_net_model(smoothed);
    let part = partition(&hg, &PartitionerConfig::new(p));
    let (perm, _inv) = contiguous_renaming(&part, p);
    let renamed_raw = raw.relabel(&perm);
    // Rebuild graph-side data in the renamed space (degree features and
    // Laplacians are permutation-equivariant).
    let renamed_task = prepare_task(
        &renamed_raw,
        &next.relabel(&perm),
        &cfg,
        &econf.resolved_task(false),
    );
    let ranges = part_ranges(&part, p);
    // Both schemes must train on the *same* sample pairs (paper Fig. 6
    // compares convergence): take the original-space samples and rename
    // their endpoints, rather than re-sampling in the renamed space.
    let train_samples: Vec<EdgeSamples> = task.train.iter().map(|s| s.relabel(&perm)).collect();
    let test_samples = task.test.relabel(&perm);
    let ctx_template = (renamed_task, ranges);

    let results = run_ranks(p, |comm| {
        let (task, ranges) = &ctx_template;
        let plan = build_plan(&task.laps, ranges, comm.rank());
        let ctx = VertexRankCtx {
            ranges: ranges.clone(),
            plan,
            features: task.features.clone(),
            train: train_samples.clone(),
            test: test_samples.clone(),
        };
        let mut rng = StdRng::seed_from_u64(econf.train.seed);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        let blocks = econf.blocks(task.t);
        let mut strategy = VertexPartitioned::new(comm, &model, &head, &ctx, task);
        let stats = run_engine(
            &mut strategy,
            &mut store,
            &blocks,
            econf.train.epochs,
            econf.train.lr,
        );
        let digest = dgnn_tensor::digest::digest_f32(&store.values_flat());
        (stats, digest)
    });
    let (mut stats, digests): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (stats.swap_remove(0), digests)
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
