//! The faithful-simulation claim (paper §6.4, Fig. 6): every distribution
//! scheme — snapshot partitioning, hypergraph vertex partitioning, hybrid
//! row splitting — reproduces the sequential training trajectory; their
//! loss/accuracy curves are identical up to floating-point accumulation
//! order. Within one scheme the rank replicas agree bit for bit, at every
//! rank and thread count.

use dgnn_autograd::ParamStore;
use dgnn_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(kind: ModelKind) -> ModelConfig {
    ModelConfig {
        kind,
        input_f: 2,
        hidden: 4,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

fn sequential_losses(
    raw: &DynamicGraph,
    next: &Snapshot,
    kind: ModelKind,
    epochs: usize,
    task_opts: &TaskOptions,
) -> Vec<f64> {
    let task = dgnn_core::prepare_task(raw, next, &cfg(kind), task_opts);
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let model = Model::new(cfg(kind), &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg(kind).embedding_dim(), 2, &mut rng);
    train_single(
        &model,
        &head,
        &mut store,
        &task,
        &TrainOptions {
            epochs,
            lr: 0.05,
            nb: 2,
            seed: 3,
            threads: None,
        },
    )
    .into_iter()
    .map(|s| s.loss)
    .collect()
}

#[test]
fn snapshot_partitioning_matches_sequential() {
    let g = dgnn_graph::gen::churn_skewed(30, 7, 120, 0.25, 0.9, 9);
    let raw = g.time_slice(0, 6);
    let next = g.snapshot(6).clone();
    let opts = TaskOptions::default();
    for kind in ModelKind::all() {
        let seq = sequential_losses(&raw, &next, kind, 3, &opts);
        for p in [2usize, 3] {
            let dist = train_distributed_digest(
                &raw,
                &next,
                cfg(kind),
                &opts,
                &TrainOptions {
                    epochs: 3,
                    lr: 0.05,
                    nb: 2,
                    seed: 3,
                    threads: None,
                },
                p,
            )
            .0;
            for (e, (a, b)) in seq.iter().zip(&dist).enumerate() {
                assert!(
                    (a - b.loss).abs() < 2e-4,
                    "{kind:?} P={p} epoch {e}: sequential {a} vs distributed {}",
                    b.loss
                );
            }
        }
    }
}

#[test]
fn vertex_partitioning_matches_sequential() {
    // Fig. 6's claim: both partitioning schemes faithfully simulate the
    // same sequential algorithm, so their curves coincide.
    let g = dgnn_graph::gen::churn_skewed(30, 6, 120, 0.25, 0.9, 9);
    let raw = g.time_slice(0, 5);
    let next = g.snapshot(5).clone();
    // The vertex trainer does not implement the pre-aggregation shortcut;
    // disable it on both sides (it does not change the math, see the
    // training_convergence suite).
    let opts = TaskOptions {
        precompute_first_layer: false,
        ..Default::default()
    };
    for kind in ModelKind::all() {
        let seq = sequential_losses(&raw, &next, kind, 3, &opts);
        let dist = train_vertex_partitioned_digest(
            &raw,
            &next,
            cfg(kind),
            &opts,
            &TrainOptions {
                epochs: 3,
                lr: 0.05,
                nb: 2,
                seed: 3,
                threads: None,
            },
            2,
        )
        .0;
        for (e, (a, b)) in seq.iter().zip(&dist).enumerate() {
            assert!(
                (a - b.loss).abs() < 2e-4,
                "{kind:?} epoch {e}: sequential {a} vs vertex {}",
                b.loss
            );
        }
    }
}

#[test]
fn hybrid_matches_sequential() {
    // §6.5: the hybrid scheme "truthfully simulates the sequential
    // execution".
    let g = dgnn_graph::gen::churn_skewed(24, 6, 100, 0.25, 0.9, 9);
    let raw = g.time_slice(0, 5);
    let next = g.snapshot(5).clone();
    let opts = TaskOptions {
        precompute_first_layer: false,
        ..Default::default()
    };
    for kind in ModelKind::all() {
        let seq = sequential_losses(&raw, &next, kind, 3, &opts);
        let dist = train_hybrid_digest(
            &raw,
            &next,
            cfg(kind),
            &opts,
            &TrainOptions {
                epochs: 3,
                lr: 0.05,
                nb: 2,
                seed: 3,
                threads: None,
            },
            2,
        )
        .0;
        for (e, (a, b)) in seq.iter().zip(&dist).enumerate() {
            assert!(
                (a - b.loss).abs() < 2e-4,
                "{kind:?} epoch {e}: sequential {a} vs hybrid {}",
                b.loss
            );
        }
    }
}

#[test]
fn all_world_sizes_agree_with_each_other() {
    let g = dgnn_graph::gen::churn_skewed(32, 9, 130, 0.25, 0.9, 17);
    let raw = g.time_slice(0, 8);
    let next = g.snapshot(8).clone();
    let opts = TaskOptions::default();
    let kind = ModelKind::CdGcn;
    let run = |p: usize| {
        train_distributed_digest(
            &raw,
            &next,
            cfg(kind),
            &opts,
            &TrainOptions {
                epochs: 2,
                lr: 0.05,
                nb: 2,
                seed: 3,
                threads: None,
            },
            p,
        )
        .0
    };
    let r1 = run(1);
    let r2 = run(2);
    let r4 = run(4);
    for e in 0..2 {
        assert!((r1[e].loss - r2[e].loss).abs() < 2e-4);
        assert!((r1[e].loss - r4[e].loss).abs() < 2e-4);
    }
}

/// A distributed entry point: per-epoch stats and each rank's
/// final-parameter digest.
type DistTrainer = fn(
    &DynamicGraph,
    &Snapshot,
    ModelConfig,
    &TaskOptions,
    &TrainOptions,
    usize,
) -> (Vec<EpochStats>, Vec<u64>);

/// Every rank's final parameter replica must agree bitwise — gradients are
/// all-reduced in fixed rank order — at every rank count and intra-rank
/// thread count, and the thread count must not move a single bit of the
/// stat stream or the parameters. `TrainOptions::threads` is the
/// programmatic form of `DGNN_THREADS`, so the {1, 4} sweep here covers
/// the env-var matrix CI also runs.
fn replicas_agree(train: DistTrainer, g: DynamicGraph, task_opts: TaskOptions) {
    let raw = g.time_slice(0, 5);
    let next = g.snapshot(5).clone();
    let cfg = ModelConfig {
        hidden: 6,
        ..cfg(ModelKind::TmGcn)
    };
    for p in [1usize, 2, 4] {
        let mut by_threads = Vec::new();
        for threads in [1usize, 4] {
            let opts = TrainOptions {
                epochs: 2,
                lr: 0.02,
                nb: 2,
                seed: 3,
                threads: Some(threads),
            };
            let (stats, params) = train(&raw, &next, cfg, &task_opts, &opts, p);
            assert_eq!(params.len(), p);
            for (rank, d) in params.iter().enumerate() {
                assert_eq!(
                    d, &params[0],
                    "p={p} threads={threads}: rank {rank} replica diverged"
                );
            }
            let losses: Vec<u64> = stats.iter().map(|s| s.loss.to_bits()).collect();
            let comm: Vec<u64> = stats.iter().map(|s| s.comm_bytes).collect();
            by_threads.push((losses, comm, params[0]));
        }
        assert_eq!(
            by_threads[0], by_threads[1],
            "p={p}: thread count changed the run"
        );
    }
}

fn no_preagg() -> TaskOptions {
    TaskOptions {
        precompute_first_layer: false,
        ..Default::default()
    }
}

#[test]
fn time_partitioned_replicas_agree() {
    replicas_agree(
        train_distributed_digest,
        dgnn_graph::gen::churn(30, 6, 120, 0.25, 9),
        TaskOptions::default(),
    );
}

#[test]
fn vertex_partitioned_replicas_agree() {
    replicas_agree(
        train_vertex_partitioned_digest,
        dgnn_graph::gen::churn(24, 6, 100, 0.3, 5),
        no_preagg(),
    );
}

#[test]
fn hybrid_replicas_agree() {
    replicas_agree(
        train_hybrid_digest,
        dgnn_graph::gen::churn(20, 6, 80, 0.3, 5),
        no_preagg(),
    );
}
