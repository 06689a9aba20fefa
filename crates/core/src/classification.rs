//! Vertex classification (paper §2.2): "we are given ground truth labels
//! for each vertex at each timestep in the form of a matrix Q of size T×N
//! ... predictions are derived by projecting each embedding matrix Z_t to
//! the label space via a learnable weight matrix U".
//!
//! The engine over the single-rank layout with the class-balanced
//! classification objective (`engine::objective`). The motivating
//! workload is laundering-account detection on the AML-Sim stand-in
//! ([`dgnn_graph::gen::amlsim_with_labels`]).

use std::rc::Rc;

use dgnn_autograd::ParamStore;
use dgnn_models::{ClassificationHead, Model};

use crate::engine::layout::Layout;
use crate::engine::objective::Objective;
use crate::engine::source::{MemoryCarryBank, TaskSource};
use crate::engine::Engine;
use crate::metrics::TrainOptions;
use crate::task::Task;

/// Per-epoch statistics of a classification run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassEpochStats {
    /// Mean cross-entropy over all timesteps.
    pub loss: f64,
    /// Plain accuracy over all (vertex, timestep) pairs.
    pub accuracy: f64,
    /// Balanced accuracy (mean of per-class recalls) — the meaningful
    /// metric when positives are rare, as laundering accounts are.
    pub balanced_accuracy: f64,
}

/// Trains the model for per-vertex classification with gradient
/// checkpointing and returns per-epoch statistics.
///
/// `labels[t][v]` gives the class (0 or 1) of vertex `v` at timestep `t`;
/// the loss balances the two classes so rare positives still train.
pub fn train_single_classification(
    model: &Model,
    head: &ClassificationHead,
    store: &mut ParamStore,
    task: &Task,
    labels: &[Vec<u32>],
    opts: &TrainOptions,
) -> Vec<ClassEpochStats> {
    assert_eq!(labels.len(), task.t, "one label vector per timestep");
    let _threads = dgnn_tensor::pool::scoped_threads(opts.threads);
    let source = TaskSource::new(task);
    let mut engine = Engine {
        model,
        task,
        // The epoch record has no transfer bytes or test set to report.
        layout: Layout {
            transfer: false,
            scores_test: false,
            ..Layout::single(&source, task.n)
        },
        objective: Objective::Classify {
            head,
            labels: labels.iter().map(|l| Rc::new(l.clone())).collect(),
        },
    };
    let epochs = engine.run(store, opts, &mut MemoryCarryBank::default());
    epochs
        .into_iter()
        .map(|(stats, tally)| ClassEpochStats {
            loss: stats.loss,
            accuracy: stats.train_acc,
            balanced_accuracy: tally.balanced(),
        })
        .collect()
}
