//! Experiment E4 — paper Figure 6: loss and test-accuracy convergence under
//! snapshot partitioning vs hypergraph vertex partitioning.
//!
//! This is a *functional* experiment: both distributed trainers run real
//! training on an AML-Sim-like stand-in with identical seeds. The paper's
//! claim (§6.4): both schemes faithfully simulate the sequential algorithm,
//! so the curves are identical up to floating-point accumulation error.

use dgnn_core::prelude::*;

fn cfg(kind: ModelKind) -> ModelConfig {
    ModelConfig {
        kind,
        input_f: 2,
        hidden: 6,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

/// Runs the Figure 6 harness. `fast` reduces epochs and problem size.
pub fn run(fast: bool) {
    println!("== Figure 6: convergence under snapshot vs hypergraph partitioning ==");
    let (n, t, m, epochs) = if fast {
        (60, 7, 240, 3)
    } else {
        (120, 13, 600, 10)
    };
    let g = dgnn_graph::gen::churn_skewed(n, t, m, 0.2, 0.9, 41);
    let raw = g.time_slice(0, t - 1);
    let next = g.snapshot(t - 1).clone();
    let task_opts = TaskOptions {
        precompute_first_layer: false,
        ..Default::default()
    };
    let train_opts = TrainOptions {
        epochs,
        lr: 0.05,
        nb: 2,
        seed: 11,
        ..TrainOptions::default()
    };

    for kind in ModelKind::all() {
        println!(
            "\n-- {} (AML-Sim stand-in, N={n}, T={}) --",
            cfg(kind).kind.name(),
            t - 1
        );
        let snap = train_distributed_digest(&raw, &next, cfg(kind), &task_opts, &train_opts, 2).0;
        let hyper =
            train_vertex_partitioned_digest(&raw, &next, cfg(kind), &task_opts, &train_opts, 2).0;
        println!(
            "{:>5} {:>14} {:>14} {:>10} {:>12} {:>12}",
            "epoch", "loss(snap)", "loss(hyper)", "|Δloss|", "acc(snap)", "acc(hyper)"
        );
        let mut max_div = 0.0f64;
        for (e, (a, b)) in snap.iter().zip(&hyper).enumerate() {
            let d = (a.loss - b.loss).abs();
            max_div = max_div.max(d);
            println!(
                "{e:>5} {:>14.6} {:>14.6} {:>10.2e} {:>11.1}% {:>11.1}%",
                a.loss,
                b.loss,
                d,
                a.test_acc * 100.0,
                b.test_acc * 100.0
            );
        }
        println!("max |loss divergence| = {max_div:.2e}  (paper: curves identical)");
    }
}
