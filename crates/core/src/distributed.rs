//! The snapshot-partitioned distributed trainer (paper §4.2, Fig. 3) — a
//! thin wrapper binding the
//! `TimePartitioned` (`engine::time_part`) strategy
//! to the shared execution engine; the layout and its redistributions
//! live in `crate::engine::time_part`.

use dgnn_graph::{DynamicGraph, Snapshot};
use dgnn_models::{LinkPredHead, Model, ModelConfig};
use dgnn_sim::{run_ranks, Comm};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::time_part::TimePartitioned;
use crate::engine::{run_engine, EngineConfig};
use crate::metrics::{EpochStats, TrainOptions};
use crate::task::{prepare_task, Task, TaskOptions};
use dgnn_autograd::ParamStore;

/// Distributed training with snapshot partitioning over `p` rank threads.
///
/// Each rank holds a full parameter replica initialised from `opts.seed`;
/// gradients are all-reduced once per epoch so all replicas stay identical.
/// Returns the per-epoch statistics (identical on every rank) and the FNV
/// digest of each rank's final parameter replica (rank order). The
/// replicas must agree bitwise — gradients are all-reduced in fixed rank
/// order — and `tests/distributed_equivalence.rs` pins that at every rank
/// and thread count.
pub fn train_distributed_digest(
    raw: &DynamicGraph,
    next: &Snapshot,
    cfg: ModelConfig,
    task_opts: &TaskOptions,
    opts: &TrainOptions,
    p: usize,
) -> (Vec<EpochStats>, Vec<u64>) {
    let _threads = dgnn_tensor::pool::scoped_threads(opts.threads);
    let econf = EngineConfig::new(*opts, *task_opts);
    let task = prepare_task(raw, next, &cfg, &econf.resolved_task(true));
    let results = run_ranks(p, |comm| train_rank(comm, &task, cfg, &econf));
    let (mut stats, digests): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (stats.swap_remove(0), digests)
}

fn train_rank(
    comm: &mut Comm,
    task: &Task,
    cfg: ModelConfig,
    econf: &EngineConfig,
) -> (Vec<EpochStats>, u64) {
    // `opts.threads` (installed by the entry fn) reaches this rank thread
    // via `run_ranks`' override propagation: each rank owns an independent
    // pool of that size.
    let opts = &econf.train;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let blocks = econf.blocks(task.t);
    let mut strategy = TimePartitioned::new(comm, &model, &head, task, &blocks);
    let stats = run_engine(&mut strategy, &mut store, &blocks, opts.epochs, opts.lr);
    let digest = dgnn_tensor::digest::digest_f32(&store.values_flat());
    (stats, digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::gen::{churn, churn_skewed};
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
    fn distributed_runs_and_learns() {
        let g = churn_skewed(40, 8, 160, 0.3, 0.9, 5);
        let raw = g.time_slice(0, 7);
        let next = g.snapshot(7).clone();
        for kind in ModelKind::all() {
            let stats = train_distributed_digest(
                &raw,
                &next,
                tiny_cfg(kind),
                &TaskOptions::default(),
                &TrainOptions {
                    epochs: 6,
                    lr: 0.05,
                    nb: 2,
                    seed: 3,
                    threads: None,
                },
                2,
            )
            .0;
            assert_eq!(stats.len(), 6);
            assert!(
                stats.last().unwrap().loss < stats.first().unwrap().loss,
                "{kind:?}: loss should fall"
            );
        }
    }

    #[test]
    fn world_size_does_not_change_results() {
        // P = 1 and P = 3 faithfully simulate the same sequential run.
        let g = churn(30, 6, 120, 0.25, 9);
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let cfg = tiny_cfg(ModelKind::TmGcn);
        let run = |p: usize| {
            train_distributed_digest(
                &raw,
                &next,
                cfg,
                &TaskOptions::default(),
                &TrainOptions {
                    epochs: 3,
                    lr: 0.02,
                    nb: 1,
                    seed: 3,
                    threads: None,
                },
                p,
            )
            .0
        };
        let s1 = run(1);
        let s3 = run(3);
        for (a, b) in s1.iter().zip(&s3) {
            assert!(
                (a.loss - b.loss).abs() < 1e-4,
                "loss {} vs {}",
                a.loss,
                b.loss
            );
        }
    }
}
