//! Experiment E7 — paper §6.5: training with hybrid partitioning on the
//! large AML-Sim variants, where individual snapshots are split between two
//! GPUs.
//!
//! The paper reports test accuracies of 63.8% (AMLSim-Large-1, 2.2B edges,
//! 44 GB) and 65.8% (AMLSim-Large-2, 3.2B edges, 64 GB) and emphasises that
//! the hybrid scheme truthfully simulates the sequential execution. Here a
//! scaled stand-in is trained functionally with the hybrid trainer (P = 2,
//! one group) and the sequential trainer side by side; the full-scale
//! memory argument is reproduced analytically.

use dgnn_autograd::ParamStore;
use dgnn_core::prelude::*;
use dgnn_graph::datasets::{AMLSIM_LARGE_1, AMLSIM_LARGE_2};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg() -> ModelConfig {
    ModelConfig {
        kind: ModelKind::TmGcn,
        input_f: 2,
        hidden: 6,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

/// Runs the §6.5 harness. `fast` shrinks the stand-in and epoch count.
pub fn run(fast: bool) {
    println!("== §6.5: hybrid partitioning on large snapshots ==");
    println!(
        "{:<16} {:>5} {:>8} {:>10} | {:>10}",
        "dataset", "T", "nnz", "size", "paper acc"
    );
    for (spec, acc) in [(AMLSIM_LARGE_1, 63.8), (AMLSIM_LARGE_2, 65.8)] {
        println!(
            "{:<16} {:>5} {:>7.1}B {:>9.0}GB | {:>9.1}%",
            spec.name,
            spec.t,
            spec.nnz as f64 / 1e9,
            spec.nnz as f64 * 20.0 / 1e9,
            acc
        );
    }
    println!("\nfull-scale memory: 20 B/edge COO -> 44 GB and 64 GB total, larger than one");
    println!("32 GiB GPU even under checkpointing; splitting each snapshot between 2 GPUs halves");
    println!("the per-rank share, which is the hybrid scheme's motivation.\n");

    let (n, t, m, epochs) = if fast {
        (60, 9, 300, 6)
    } else {
        (120, 13, 700, 25)
    };
    let g = dgnn_graph::gen::churn_skewed(n, t, m, 0.2, 0.9, 77);
    let raw = g.time_slice(0, t - 1);
    let next = g.snapshot(t - 1).clone();
    let task_opts = TaskOptions {
        precompute_first_layer: false,
        ..Default::default()
    };
    let train_opts = TrainOptions {
        epochs,
        lr: 0.1,
        nb: 2,
        seed: 19,
        ..TrainOptions::default()
    };

    // Hybrid (2 members splitting every snapshot).
    let hybrid = train_hybrid_digest(&raw, &next, cfg(), &task_opts, &train_opts, 2).0;

    // Sequential reference.
    let task = dgnn_core::prepare_task(&raw, &next, &cfg(), &task_opts);
    let mut rng = StdRng::seed_from_u64(train_opts.seed);
    let mut store = ParamStore::new();
    let model = Model::new(cfg(), &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg().embedding_dim(), 2, &mut rng);
    let seq = train_single(&model, &head, &mut store, &task, &train_opts);

    println!("functional stand-in (N={n}, T={}):", t - 1);
    println!(
        "{:>5} {:>14} {:>14} {:>12} {:>12}",
        "epoch", "loss(hybrid)", "loss(seq)", "acc(hybrid)", "acc(seq)"
    );
    for (e, (h, s)) in hybrid.iter().zip(&seq).enumerate() {
        println!(
            "{e:>5} {:>14.6} {:>14.6} {:>11.1}% {:>11.1}%",
            h.loss,
            s.loss,
            h.test_acc * 100.0,
            s.test_acc * 100.0
        );
    }
    let best = hybrid.iter().map(|s| s.test_acc).fold(0.0, f64::max);
    println!(
        "\nbest hybrid test accuracy: {:.1}%  (paper full-scale: 63.8% / 65.8%; the claim",
        best * 100.0
    );
    println!("reproduced here is the *faithful simulation* — hybrid == sequential curves).");
}
