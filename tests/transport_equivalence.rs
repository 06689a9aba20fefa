//! The PR-10 transport contract: every distributed entry point produces
//! **bit-identical** results on [`SharedMemComm`] and [`SimComm`] — loss
//! streams, transfer/comm accounting, and final parameters — at every
//! rank count and intra-rank thread count, and the shared-memory
//! transport reproduces the pre-engine golden captures exactly.
//!
//! `TrainOptions::threads` is the programmatic form of `DGNN_THREADS`
//! (the pool resolves them through the same override chain), so the
//! {1, 4} sweep here covers the env-var matrix CI also runs; the
//! transport sweep here likewise covers the `DGNN_COMM={sim,shm}` CI
//! dimension from inside one process.
//!
//! [`SimComm`]: dgnn_sim::SimComm
//! [`SharedMemComm`]: dgnn_sim::SharedMemComm

mod common;

use common::{assert_dist_golden, HYBRID_GOLDEN, TIME_GOLDEN, VERTEX_GOLDEN};
use dgnn_core::prelude::*;
use dgnn_graph::DynamicGraph;
use dgnn_graph::Snapshot;
use dgnn_sim::{scoped_transport, CommTransport};
use dgnn_tensor::digest::fnv1a as fnv;
use proptest::prelude::*;

/// Digest over the full per-epoch stat stream — loss, train/test accuracy,
/// transfer accounting, comm volume — for comparing two transports with
/// each other.
fn digest_stats(stats: &[EpochStats]) -> u64 {
    fnv(stats.iter().flat_map(|s| {
        let mut b = Vec::new();
        b.extend(s.loss.to_bits().to_le_bytes());
        b.extend(s.train_acc.to_bits().to_le_bytes());
        b.extend(s.test_acc.to_bits().to_le_bytes());
        b.extend(s.transfer_naive_bytes.to_le_bytes());
        b.extend(s.transfer_gd_bytes.to_le_bytes());
        b.extend(s.comm_bytes.to_le_bytes());
        b
    }))
}

fn small_cfg(kind: ModelKind) -> ModelConfig {
    ModelConfig {
        kind,
        input_f: 2,
        hidden: 6,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

const KINDS: [ModelKind; 3] = [ModelKind::CdGcn, ModelKind::EvolveGcn, ModelKind::TmGcn];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Strategy {
    Time,
    Vertex,
    Hybrid,
}

impl Strategy {
    /// The same workload shapes the golden captures in
    /// `engine_equivalence.rs` were taken on.
    fn workload(self) -> (DynamicGraph, Snapshot, TaskOptions) {
        let (g, task_opts) = match self {
            Strategy::Time => (
                dgnn_graph::gen::churn(30, 6, 120, 0.25, 9),
                TaskOptions::default(),
            ),
            Strategy::Vertex => (
                dgnn_graph::gen::churn(24, 6, 100, 0.3, 5),
                TaskOptions {
                    precompute_first_layer: false,
                    ..Default::default()
                },
            ),
            Strategy::Hybrid => (
                dgnn_graph::gen::churn(20, 6, 80, 0.3, 5),
                TaskOptions {
                    precompute_first_layer: false,
                    ..Default::default()
                },
            ),
        };
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        (raw, next, task_opts)
    }

    fn run(self, kind: ModelKind, p: usize, opts: &TrainOptions) -> (Vec<EpochStats>, Vec<u64>) {
        let (raw, next, task_opts) = self.workload();
        let cfg = small_cfg(kind);
        match self {
            Strategy::Time => train_distributed_digest(&raw, &next, cfg, &task_opts, opts, p),
            Strategy::Vertex => {
                train_vertex_partitioned_digest(&raw, &next, cfg, &task_opts, opts, p)
            }
            Strategy::Hybrid => train_hybrid_digest(&raw, &next, cfg, &task_opts, opts, p),
        }
    }
}

/// One strategy run on one transport, reduced to comparable fingerprints:
/// (loss bits, stat-stream digest, per-rank final-parameter digests).
fn fingerprint(
    strategy: Strategy,
    kind: ModelKind,
    transport: CommTransport,
    p: usize,
    opts: &TrainOptions,
) -> (Vec<u64>, u64, Vec<u64>) {
    let _t = scoped_transport(transport);
    let (stats, params) = strategy.run(kind, p, opts);
    let losses = stats.iter().map(|s| s.loss.to_bits()).collect();
    (losses, digest_stats(&stats), params)
}

fn sweep_strategy(strategy: Strategy) {
    for p in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            let opts = TrainOptions {
                epochs: 2,
                lr: 0.02,
                nb: 2,
                seed: 3,
                threads: Some(threads),
            };
            let sim = fingerprint(strategy, ModelKind::TmGcn, CommTransport::Sim, p, &opts);
            let shm = fingerprint(
                strategy,
                ModelKind::TmGcn,
                CommTransport::SharedMem,
                p,
                &opts,
            );
            assert_eq!(
                sim, shm,
                "{strategy:?} p={p} threads={threads}: transports diverge"
            );
            // Every rank's final parameter replica must agree bitwise.
            assert_eq!(shm.2.len(), p);
            for (rank, d) in shm.2.iter().enumerate() {
                assert_eq!(
                    d, &shm.2[0],
                    "{strategy:?} p={p} threads={threads}: rank {rank} replica diverged"
                );
            }
        }
    }
}

#[test]
fn time_partitioned_is_transport_invariant() {
    sweep_strategy(Strategy::Time);
}

#[test]
fn vertex_partitioned_is_transport_invariant() {
    sweep_strategy(Strategy::Vertex);
}

#[test]
fn hybrid_is_transport_invariant() {
    sweep_strategy(Strategy::Hybrid);
}

/// The shared-memory transport must reproduce the pre-engine golden
/// captures bit-for-bit — the same constants `engine_equivalence.rs`
/// asserts (there under the ambient transport, here pinned to `shm`).
#[test]
fn golden_captures_hold_on_shared_mem_transport() {
    let _t = scoped_transport(CommTransport::SharedMem);
    let opts = TrainOptions {
        epochs: 3,
        lr: 0.02,
        nb: 2,
        seed: 3,
        threads: None,
    };
    let golden = [
        (Strategy::Time, &TIME_GOLDEN),
        (Strategy::Hybrid, &HYBRID_GOLDEN),
        (Strategy::Vertex, &VERTEX_GOLDEN),
    ];
    for (strategy, goldens) in golden {
        for (kind, golden) in KINDS.into_iter().zip(goldens) {
            let run = strategy.run(kind, 2, &opts);
            assert_dist_golden(
                &format!("{strategy:?}/{kind:?} on shared memory"),
                &run,
                golden,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized sweep: graph shape, model kind, rank count, and thread
    /// count are all drawn at random; the two transports must still agree
    /// bit-for-bit on every fingerprint component.
    #[test]
    fn random_workloads_are_transport_invariant(
        seed in 0u64..1_000,
        rho in 0.05f64..0.45,
        kind_idx in 0usize..3,
        p_idx in 0usize..3,
        threads_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let p = [1usize, 2, 4][p_idx];
        let threads = [1usize, 4][threads_idx];
        let g = dgnn_graph::gen::churn(28, 5, 110, rho, seed);
        let raw = g.time_slice(0, 4);
        let next = g.snapshot(4).clone();
        let cfg = small_cfg(kind);
        let task_opts = TaskOptions::default();
        let opts = TrainOptions { epochs: 2, lr: 0.02, nb: 2, seed, threads: Some(threads) };
        let run = |transport| {
            let _t = scoped_transport(transport);
            let (stats, params) =
                train_distributed_digest(&raw, &next, cfg, &task_opts, &opts, p);
            let losses: Vec<u64> = stats.iter().map(|s| s.loss.to_bits()).collect();
            (losses, digest_stats(&stats), params)
        };
        let sim = run(CommTransport::Sim);
        let shm = run(CommTransport::SharedMem);
        prop_assert_eq!(sim, shm, "kind {:?} p {} threads {}", kind, p, threads);
    }
}
