//! Cross-checks between the analytic communication-volume formulas
//! (paper §4) and the volumes the functional trainers actually move.

use dgnn_core::prelude::*;
use dgnn_partition::{
    partition, snapshot_epoch_units, vertex_spmm_units, Hypergraph, PartitionerConfig,
};

fn cfg(kind: ModelKind) -> ModelConfig {
    ModelConfig {
        kind,
        input_f: 2,
        hidden: 4,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

#[test]
fn snapshot_trainer_moves_the_predicted_feature_volume() {
    // TM-GCN: every redistribution is `hidden` floats wide, so the epoch
    // feature volume is exactly snapshot_epoch_units * hidden * 4 bytes.
    let g = dgnn_graph::gen::churn_skewed(32, 9, 130, 0.25, 0.9, 4);
    let raw = g.time_slice(0, 8);
    let next = g.snapshot(8).clone();
    let kind = ModelKind::TmGcn;
    for p in [2usize, 4] {
        let stats = train_distributed_digest(
            &raw,
            &next,
            cfg(kind),
            &TaskOptions::default(),
            &TrainOptions {
                epochs: 1,
                lr: 0.01,
                nb: 2,
                seed: 3,
                threads: None,
            },
            p,
        )
        .0;
        let measured = stats[0].comm_bytes as f64;
        // `comm_bytes` is per-rank. The checkpointed backward re-runs the
        // forward redistributions of every block but the last, whose tape
        // the engine keeps (paper Fig. 2's rerun segment): an epoch moves
        // forward + backward + (nb − 1)/nb of a forward rerun, which with
        // forward = backward and nb = 2 is 5/4 of the nominal volume.
        let nb = 2.0;
        let rerun_factor = 1.0 + (nb - 1.0) / (2.0 * nb);
        let predicted =
            rerun_factor * snapshot_epoch_units(8, 32, p, 2) as f64 * cfg(kind).hidden as f64 * 4.0
                / p as f64;
        // Measured adds only the small gradient/stat all-reduces on top.
        assert!(
            measured >= predicted,
            "P={p}: measured {measured} below prediction {predicted}"
        );
        assert!(
            measured < predicted * 1.15,
            "P={p}: measured {measured} far above prediction {predicted}"
        );
    }
}

#[test]
fn snapshot_volume_is_independent_of_density() {
    // The paper's headline property: O(T·N), regardless of graph density.
    let run = |m: usize| {
        let g = dgnn_graph::gen::churn_skewed(32, 7, m, 0.25, 0.9, 4);
        let raw = g.time_slice(0, 6);
        let next = g.snapshot(6).clone();
        let stats = train_distributed_digest(
            &raw,
            &next,
            cfg(ModelKind::TmGcn),
            &TaskOptions::default(),
            &TrainOptions {
                epochs: 1,
                lr: 0.01,
                nb: 1,
                seed: 3,
                threads: None,
            },
            2,
        )
        .0;
        stats[0].comm_bytes
    };
    let sparse = run(60);
    let dense = run(240);
    // Identical redistribution volume; only sampled-loss payloads differ
    // slightly because denser graphs have more training pairs.
    let ratio = dense as f64 / sparse as f64;
    assert!(
        (0.95..1.15).contains(&ratio),
        "volume should not scale with density: {sparse} vs {dense}"
    );
}

#[test]
fn exchange_plan_volume_equals_lambda_formula() {
    // The vertex-partitioned exchange lists are exactly the
    // Σ_t Σ_v (λ_t(v) − 1) units of paper §4.1.
    let g = dgnn_graph::gen::churn_skewed(40, 5, 200, 0.3, 0.7, 11);
    let smoothed = dgnn_graph::Smoothing::MProduct(3).apply(&g);
    let p = 4;
    let hg = Hypergraph::column_net_model(&smoothed);
    let part = partition(&hg, &PartitionerConfig::new(p));
    let units = vertex_spmm_units(&smoothed, &part, p);
    // Volume grows with p and is positive for connected random graphs.
    assert!(units > 0);
    let part2 = partition(&hg, &PartitionerConfig::new(2));
    let units2 = vertex_spmm_units(&smoothed, &part2, 2);
    assert!(
        units > units2,
        "λ volume should grow with P: {units2} -> {units}"
    );
}

#[test]
fn evolvegcn_communicates_orders_less_than_tmgcn() {
    // Paper Table 2: EvolveGCN's only traffic is the parameter all-reduce.
    let g = dgnn_graph::gen::churn_skewed(32, 7, 130, 0.25, 0.9, 4);
    let raw = g.time_slice(0, 6);
    let next = g.snapshot(6).clone();
    let run = |kind: ModelKind| {
        let (stats, _) = train_distributed_digest(
            &raw,
            &next,
            cfg(kind),
            &TaskOptions::default(),
            &TrainOptions {
                epochs: 1,
                lr: 0.01,
                nb: 1,
                seed: 3,
                threads: None,
            },
            4,
        );
        stats[0].comm_bytes
    };
    let egcn = run(ModelKind::EvolveGcn);
    let tmgcn = run(ModelKind::TmGcn);
    // At nb = 1 nothing is re-run, so TM-GCN moves forward + backward +
    // all-reduce (2·2560 + 660 = 5780 bytes here; 8340 when the one block
    // was re-run as well) against EvolveGCN's all-reduce alone (4116: the
    // weight LSTMs make its parameter set the larger one). On a graph this
    // small that is a factor of 0.71; the redistributions grow with N, the
    // all-reduce does not.
    assert!(
        (egcn as f64) < 0.75 * tmgcn as f64,
        "EvolveGCN {egcn} should be well below TM-GCN {tmgcn}"
    );
}
