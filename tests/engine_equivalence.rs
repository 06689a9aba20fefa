//! The engine-refactor contract: every strategy's per-epoch loss stream
//! and final parameters are **bit-identical** to the pre-engine trainers.
//!
//! The golden values below were captured from the six standalone trainers
//! at the commit before they collapsed onto the shared execution engine
//! (verified identical under `DGNN_THREADS=1` and `=4` — the parallel
//! kernels are thread-count invariant by construction, and CI runs this
//! suite under both settings). Any drift in the engine, a strategy, the
//! workspace reuse path, or the kernels that changes a single output bit
//! fails here.

mod common;

use common::{
    assert_dist_golden, HYBRID_GOLDEN, HYBRID_GOLDEN_P3, HYBRID_GOLDEN_P4, TIME_GOLDEN,
    VERTEX_GOLDEN,
};
use dgnn_autograd::ParamStore;
use dgnn_core::classification::train_single_classification;
use dgnn_core::prelude::*;
use dgnn_models::ClassificationHead;
use dgnn_tensor::digest::{digest_f32, fnv1a as fnv};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Digest over the full per-epoch stat stream of a single-rank run: loss,
/// train/test accuracy, transfer accounting, and a comm volume that is
/// always zero. The distributed strategies pin their (non-zero) volume
/// beside the numbers instead — see [`common`].
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

fn losses(stats: &[EpochStats]) -> Vec<u64> {
    stats.iter().map(|s| s.loss.to_bits()).collect()
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

#[test]
fn single_rank_matches_pre_engine_trainer() {
    // (loss-stream bits, stat-stream digest, final-parameter digest)
    let golden: [(&[u64; 3], u64, u64); 3] = [
        (
            &[
                4604441065729032192,
                4604335990504573221,
                4604519952620491337,
            ],
            0x477c4238e9e35cb1,
            0x1d42982e89030442,
        ),
        (
            &[
                4604706710913510839,
                4604584094965919159,
                4604326391559450039,
            ],
            0x161a6038b7592034,
            0xf0db5e0c8d0e8c72,
        ),
        (
            &[
                4604361452527924955,
                4604282163980327790,
                4604218665343123456,
            ],
            0x8a077fe53f0976cb,
            0xaa3ef13f06ba9519,
        ),
    ];
    for (kind, (loss_bits, stream, params)) in ModelKind::all().into_iter().zip(golden) {
        let g = dgnn_graph::gen::churn_skewed(60, 8, 240, 0.3, 0.9, 11);
        let cfg = small_cfg(kind);
        let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        let opts = TrainOptions {
            epochs: 3,
            lr: 0.05,
            nb: 2,
            seed: 7,
            threads: None,
        };
        let stats = train_single(&model, &head, &mut store, &task, &opts);
        assert_eq!(losses(&stats), loss_bits, "{kind:?}: loss stream drifted");
        assert_eq!(
            digest_stats(&stats),
            stream,
            "{kind:?}: stat stream drifted"
        );
        assert_eq!(
            digest_f32(&store.values_flat()),
            params,
            "{kind:?}: final parameters drifted"
        );
    }
}

/// The options every distributed golden was captured under.
fn dist_opts() -> TrainOptions {
    TrainOptions {
        epochs: 3,
        lr: 0.02,
        nb: 2,
        seed: 3,
        threads: None,
    }
}

#[test]
fn time_partitioned_matches_pre_engine_trainer() {
    for (kind, golden) in ModelKind::all().into_iter().zip(&TIME_GOLDEN) {
        let g = dgnn_graph::gen::churn(30, 6, 120, 0.25, 9);
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let run = train_distributed_digest(
            &raw,
            &next,
            small_cfg(kind),
            &TaskOptions::default(),
            &dist_opts(),
            2,
        );
        assert_dist_golden(&format!("{kind:?} distributed"), &run, golden);
    }
}

#[test]
fn hybrid_matches_pre_engine_trainer() {
    let g = dgnn_graph::gen::churn(20, 6, 80, 0.3, 5);
    let raw = g.time_slice(0, 5);
    let next = g.snapshot(5).clone();
    // The p = 3 and p = 4 goldens postdate the engine; `common` says when
    // they were captured.
    for (p, goldens) in [
        (2, &HYBRID_GOLDEN),
        (3, &HYBRID_GOLDEN_P3),
        (4, &HYBRID_GOLDEN_P4),
    ] {
        for (kind, golden) in ModelKind::all().into_iter().zip(goldens) {
            let run = train_hybrid_digest(
                &raw,
                &next,
                small_cfg(kind),
                &TaskOptions {
                    precompute_first_layer: false,
                    ..Default::default()
                },
                &dist_opts(),
                p,
            );
            assert_dist_golden(&format!("{kind:?} hybrid, p = {p}"), &run, golden);
        }
    }
}

#[test]
fn vertex_partitioned_matches_pre_engine_trainer() {
    for (kind, golden) in ModelKind::all().into_iter().zip(&VERTEX_GOLDEN) {
        let g = dgnn_graph::gen::churn(24, 6, 100, 0.3, 5);
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let run = train_vertex_partitioned_digest(
            &raw,
            &next,
            small_cfg(kind),
            &TaskOptions {
                precompute_first_layer: false,
                ..Default::default()
            },
            &dist_opts(),
            2,
        );
        assert_dist_golden(&format!("{kind:?} vertex-partitioned"), &run, golden);
    }
}

#[test]
fn classification_matches_pre_engine_trainer() {
    let aml = dgnn_graph::gen::AmlSimConfig {
        n: 80,
        t: 7,
        communities: 4,
        transactions_per_step: 240,
        intra_community_prob: 0.9,
        churn: 0.2,
        rings: 4,
        ring_size: 5,
        zipf_s: 0.6,
    };
    let (graph, labels) = dgnn_graph::gen::amlsim_with_labels(&aml, 77);
    let raw = graph.time_slice(0, graph.t() - 1);
    let next = graph.snapshot(graph.t() - 1).clone();
    let cfg = small_cfg(ModelKind::CdGcn);
    let task = prepare_task(&raw, &next, &cfg, &TaskOptions::default());
    let labels = labels[..raw.t()].to_vec();
    let mut rng = StdRng::seed_from_u64(13);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = ClassificationHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let stats = train_single_classification(
        &model,
        &head,
        &mut store,
        &task,
        &labels,
        &TrainOptions {
            epochs: 2,
            lr: 0.05,
            nb: 2,
            seed: 13,
            threads: None,
        },
    );
    let stream = fnv(stats.iter().flat_map(|s| {
        let mut b = Vec::new();
        b.extend(s.loss.to_bits().to_le_bytes());
        b.extend(s.accuracy.to_bits().to_le_bytes());
        b.extend(s.balanced_accuracy.to_bits().to_le_bytes());
        b
    }));
    assert_eq!(stream, 0x6963dcf93d212b9d, "classification stream drifted");
    assert_eq!(
        digest_f32(&store.values_flat()),
        0x1988984808c6c9e5,
        "classification final parameters drifted"
    );
}

#[test]
fn streaming_matches_pre_engine_trainer() {
    let g = dgnn_graph::gen::churn_skewed(50, 7, 180, 0.3, 0.9, 4);
    let log = EventLog::replay(&g);
    let opts = StreamTrainOptions {
        history: 3,
        min_history: 2,
        epochs_per_window: 2,
        ..Default::default()
    };
    let stats = dgnn_core::train_streaming(&log, small_cfg(ModelKind::TmGcn), &opts);
    let stream = fnv(stats.iter().flat_map(|s| {
        let mut b = Vec::new();
        b.extend(s.final_loss().to_bits().to_le_bytes());
        b.extend(s.auc.to_bits().to_le_bytes());
        b.extend(s.test_acc.to_bits().to_le_bytes());
        b.extend((s.t as u64).to_le_bytes());
        b.extend((s.events as u64).to_le_bytes());
        b
    }));
    assert_eq!(stream, 0xedc6b227f1c68ea4, "streaming stream drifted");
}

#[test]
fn workspace_reuse_does_not_change_bits() {
    // The same run with buffer reuse suppressed must produce the same
    // stream — reuse is a pure allocation optimisation.
    let run = || {
        let g = dgnn_graph::gen::churn_skewed(60, 8, 240, 0.3, 0.9, 11);
        let cfg = small_cfg(ModelKind::CdGcn);
        let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        let opts = TrainOptions {
            epochs: 2,
            lr: 0.05,
            nb: 2,
            seed: 7,
            threads: None,
        };
        let stats = train_single(&model, &head, &mut store, &task, &opts);
        (digest_stats(&stats), digest_f32(&store.values_flat()))
    };
    let with_ws = run();
    let without_ws = {
        let _off = dgnn_tensor::workspace::disable();
        run()
    };
    assert_eq!(with_ws, without_ws);
}
