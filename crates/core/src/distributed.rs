//! The snapshot-partitioned distributed trainer (paper §4.2, Fig. 3), and
//! the one `run_ranks` body of every distributed layout: each rank thread
//! builds its parameter replica and its share of the layout, then runs
//! the engine. The layouts themselves are data (`crate::engine::layout`).

use std::ops::Range;

use dgnn_autograd::ParamStore;
use dgnn_graph::{DynamicGraph, Snapshot};
use dgnn_models::{LinkPredHead, Model, ModelConfig};
use dgnn_sim::run_ranks;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::layout::Layout;
use crate::engine::objective::Objective;
use crate::engine::source::{MemoryCarryBank, TaskSource};
use crate::engine::vertex_part::RowSplit;
use crate::engine::{Engine, EngineConfig};
use crate::metrics::{EpochStats, TrainOptions};
use crate::task::{prepare_task, Task, TaskOptions};

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
    train_ranks(&task, cfg, &econf, Split::Time(p))
}

/// How the ranks split the `T × N` grid.
pub(crate) enum Split<'r> {
    /// Each block's timesteps among this many ranks (paper §4.2).
    Time(usize),
    /// Rank `q` owns rows `ranges[q]` (ascending and contiguous) of every
    /// snapshot (paper §4.1, §6.5).
    Rows(&'r [Range<usize>]),
}

/// Trains `task` over the ranks of `split` and returns rank 0's per-epoch
/// statistics and every rank's final-parameter digest (rank order).
pub(crate) fn train_ranks(
    task: &Task,
    cfg: ModelConfig,
    econf: &EngineConfig,
    split: Split,
) -> (Vec<EpochStats>, Vec<u64>) {
    let p = match split {
        Split::Time(p) => p,
        Split::Rows(ranges) => ranges.len(),
    };
    // `opts.threads` (installed by the entry fn) reaches each rank thread
    // via `run_ranks`' override propagation: each rank owns an independent
    // pool of that size.
    let results = run_ranks(p, |comm| {
        let rows = match split {
            Split::Rows(ranges) => Some(RowSplit::new(task, ranges, comm.rank())),
            Split::Time(_) => None,
        };
        let mut rng = StdRng::seed_from_u64(econf.train.seed);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        let source;
        let layout = match &rows {
            Some(rows) => Layout::row_split(comm, rows, &model, task.n),
            None => {
                source = TaskSource::new(task);
                Layout::time_split(comm, &source, &model, task.n)
            }
        };
        let mut engine = Engine {
            model: &model,
            task,
            layout,
            objective: Objective::Link(&head),
        };
        let epochs = engine.run(&mut store, &econf.train, &mut MemoryCarryBank::default());
        let stats: Vec<EpochStats> = epochs.into_iter().map(|(stats, _)| stats).collect();
        (stats, dgnn_tensor::digest::digest_f32(&store.values_flat()))
    });
    let (mut stats, digests): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (stats.swap_remove(0), digests)
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

    /// One rank is one layout: at `p = 1` and one checkpoint block, every
    /// distributed entry point ends on `train_single`'s parameters, bit for
    /// bit, for every model (the row split and its single-rank twin without
    /// the §5.5 pre-aggregation, which it cannot consume). The epoch
    /// losses differ by design — an f64 sum on one rank, an f32
    /// all-reduce on ranks — so only the digests are compared.
    ///
    /// At `nb = 2`, CD-GCN's digests differ on all three layouts: after
    /// one epoch, 10 of 434 values by at most 1.5e-7. The likely cause is
    /// the order of a sum, not a wrong gradient: the collective sums the
    /// loss-side gradients of a block before the carry seed `dh` joins
    /// them, while the single rank adds the seed first.
    #[test]
    fn one_rank_is_one_layout() {
        let g = churn_skewed(30, 7, 120, 0.25, 0.9, 9);
        let raw = g.time_slice(0, 6);
        let next = g.snapshot(6).clone();
        let opts = TrainOptions {
            epochs: 3,
            lr: 0.05,
            nb: 1,
            seed: 3,
            threads: None,
        };
        let single = |cfg: ModelConfig, task_opts: &TaskOptions| {
            let task = prepare_task(&raw, &next, &cfg, task_opts);
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let mut store = ParamStore::new();
            let model = Model::new(cfg, &mut store, &mut rng);
            let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
            crate::train_single(&model, &head, &mut store, &task, &opts);
            vec![dgnn_tensor::digest::digest_f32(&store.values_flat())]
        };
        let rows = TaskOptions {
            precompute_first_layer: false,
            ..TaskOptions::default()
        };
        for kind in ModelKind::all() {
            let cfg = tiny_cfg(kind);
            let time =
                train_distributed_digest(&raw, &next, cfg, &TaskOptions::default(), &opts, 1);
            assert_eq!(
                time.1,
                single(cfg, &TaskOptions::default()),
                "{kind:?}: time split"
            );
            let want = single(cfg, &rows);
            let vertex = crate::train_vertex_partitioned_digest(&raw, &next, cfg, &rows, &opts, 1);
            assert_eq!(vertex.1, want, "{kind:?}: vertex partitioning");
            let hybrid = crate::train_hybrid_digest(&raw, &next, cfg, &rows, &opts, 1);
            assert_eq!(hybrid.1, want, "{kind:?}: hybrid");
        }
    }
}
