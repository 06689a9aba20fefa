//! Online training over a live event stream (continual learning).
//!
//! [`train_streaming`] consumes the windows of a `dgnn-stream` event log
//! as they close. Each closed window appends one materialized snapshot to
//! a bounded trailing history; once enough history exists, the model
//! trains on the history with the newest snapshot held out as the
//! prediction target — the online analogue of `prepare_task_holdout`.
//! Parameters persist across windows (the model *warm-starts* from the
//! previous window), so late windows start from an already-fitted model
//! instead of a fresh initialisation; per-window optimiser state (Adam
//! moments) resets with the window, matching how the batch trainer treats
//! each call.
//!
//! The inner loop is exactly the §3 checkpointed trainer
//! ([`crate::train_single`]): a streaming run configured to close a
//! single window over the full timeline reproduces the batch trainer's
//! parameter trajectory bit for bit, which the integration tests assert.

use std::collections::VecDeque;

use dgnn_autograd::ParamStore;
use dgnn_graph::{DynamicGraph, Snapshot};
use dgnn_models::{accuracy, LinkPredHead, Model, ModelConfig};
use dgnn_stream::{windows, EventLog, WindowPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::layout::Layout;
use crate::engine::objective::Objective;
use crate::engine::source::TaskSource;
use crate::engine::Engine;
use crate::metrics::{auc, EpochStats, TrainOptions};
use crate::single::train_single;
use crate::task::{prepare_task_journaled, Task, TaskOptions};

/// Options for online streaming training.
#[derive(Clone, Copy, Debug)]
pub struct StreamTrainOptions {
    /// How the event log is cut into snapshots.
    pub policy: WindowPolicy,
    /// Maximum trailing snapshots trained on per window (memory bound).
    pub history: usize,
    /// Training begins once this many history snapshots exist (≥ 1). With
    /// `min_history = T - 1` on a `T`-snapshot stream, only the final
    /// window trains — the batch-equivalence configuration.
    pub min_history: usize,
    /// Epochs per closed window.
    pub epochs_per_window: usize,
    /// Inner-trainer options (lr, checkpoint blocks, parameter seed).
    pub train: TrainOptions,
    /// Task-preparation options (sampling fraction, seed, pre-aggregation).
    pub task: TaskOptions,
}

impl Default for StreamTrainOptions {
    fn default() -> Self {
        Self {
            policy: WindowPolicy::Tumbling { width: 1 },
            history: 8,
            min_history: 1,
            epochs_per_window: 4,
            train: TrainOptions::default(),
            task: TaskOptions::default(),
        }
    }
}

/// Statistics of one trained window.
#[derive(Clone, Debug)]
pub struct WindowStats {
    /// Window index in the stream (windows before `min_history` snapshots
    /// accumulate history and produce no entry).
    pub window: usize,
    /// Exclusive end timestamp of the window.
    pub end_time: u64,
    /// Training timesteps used (history length).
    pub t: usize,
    /// Events consumed by this window's advance.
    pub events: usize,
    /// Per-epoch inner-trainer statistics for this window.
    pub epochs: Vec<EpochStats>,
    /// Link-prediction AUC on the held-out (newest) snapshot's samples,
    /// evaluated after this window's training.
    pub auc: f64,
    /// Accuracy on the same held-out samples.
    pub test_acc: f64,
}

impl WindowStats {
    /// Final-epoch mean loss of this window.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map(|e| e.loss).unwrap_or(f64::NAN)
    }
}

/// Trains continually over an event stream and returns one entry per
/// trained window.
pub fn train_streaming(
    log: &EventLog,
    cfg: ModelConfig,
    opts: &StreamTrainOptions,
) -> Vec<WindowStats> {
    assert!(opts.history >= 1, "need at least one history snapshot");
    assert!(opts.min_history >= 1, "min_history must be at least 1");
    assert!(
        opts.min_history <= opts.history,
        "min_history ({}) exceeds history ({}): no window could ever train",
        opts.min_history,
        opts.history
    );
    let n = log.n();
    let _threads = dgnn_tensor::pool::scoped_threads(opts.train.threads);
    // Engage the buffer workspace for the whole stream so the per-window
    // engine runs (which nest inside this scope) keep their tape scratch
    // warm across windows instead of re-allocating per window.
    let _ws = dgnn_tensor::workspace::engage();

    // One parameter store for the whole stream: this is the warm start.
    let mut rng = StdRng::seed_from_u64(opts.train.seed);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);

    let mut history: VecDeque<Snapshot> = VecDeque::new();
    // Touched-vertex journal aligned with `history`: `transitions[i]` is
    // the touched set of the transition `history[i] → history[i+1]`
    // (invariant: `transitions.len() == history.len() - 1`).
    let mut transitions: VecDeque<Vec<u32>> = VecDeque::new();
    let mut out = Vec::new();
    for w in windows(log, opts.policy) {
        if !history.is_empty() {
            transitions.push_back(w.touched.clone());
        }
        history.push_back(w.snapshot.clone());
        // Keep `history` training snapshots plus the held-out newest.
        while history.len() > opts.history + 1 {
            history.pop_front();
            transitions.pop_front();
        }
        if history.len() < opts.min_history + 1 {
            continue;
        }
        let train_snaps: Vec<Snapshot> = history.iter().take(history.len() - 1).cloned().collect();
        let t = train_snaps.len();
        let train_graph = DynamicGraph::new(n, train_snaps);
        let next = history.back().expect("non-empty history").clone();
        // Task preparation runs fresh per window, but the window journal
        // lets the §5.5 pre-aggregation build incrementally across the
        // history for raw-graph (unsmoothed) configs: only rows touched
        // by each transition are recomputed. Smoothed configs (§5.4)
        // re-mix *every* history snapshot as the window slides, so
        // `prepare_task_journaled` builds them from scratch; either path
        // produces the same bits. The journal for the training slice
        // excludes the final transition (into the held-out snapshot).
        let journal: Vec<Vec<u32>> = transitions.iter().take(t - 1).cloned().collect();
        let task = prepare_task_journaled(&train_graph, &next, &cfg, &opts.task, Some(&journal));

        let inner = TrainOptions {
            epochs: opts.epochs_per_window,
            ..opts.train
        };
        let epochs = train_single(&model, &head, &mut store, &task, &inner);

        let (auc_score, test_acc) = evaluate_holdout(&model, &head, &store, &task);
        out.push(WindowStats {
            window: w.index,
            end_time: w.end,
            t,
            events: w.events,
            epochs,
            auc: auc_score,
            test_acc,
        });
    }
    out
}

/// One forward-only run of the single-rank layout over the whole
/// history, then AUC and accuracy of the held-out samples on the last
/// timestep's embeddings under the current parameters.
fn evaluate_holdout(
    model: &Model,
    head: &LinkPredHead,
    store: &ParamStore,
    task: &Task,
) -> (f64, f64) {
    let source = TaskSource::new(task);
    let mut engine = Engine {
        model,
        task,
        layout: Layout::single(&source, task.n),
        objective: Objective::Link(head),
    };
    let carry = model.initial_carry(task.n);
    let run = engine.forward_block(store, 0..task.t, &carry);
    let last = run.scored.last().expect("stream history is non-empty");
    let logits = head.predict(store, run.tape.value(last.z), &task.test);
    run.retire();
    let scores: Vec<f32> = (0..logits.rows())
        .map(|r| logits.get(r, 1) - logits.get(r, 0))
        .collect();
    (
        auc(&scores, &task.test.labels),
        accuracy(&logits, &task.test.labels),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::gen::churn_skewed;
    use dgnn_models::ModelKind;
    use dgnn_stream::EventLog;

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            kind: ModelKind::TmGcn,
            input_f: 2,
            hidden: 6,
            mprod_window: 3,
            smoothing_window: 3,
        }
    }

    #[test]
    fn trains_one_entry_per_eligible_window() {
        let g = churn_skewed(50, 7, 180, 0.3, 0.9, 4);
        let log = EventLog::replay(&g);
        let opts = StreamTrainOptions {
            history: 3,
            min_history: 2,
            epochs_per_window: 2,
            ..Default::default()
        };
        let stats = train_streaming(&log, small_cfg(), &opts);
        // Windows 0 and 1 accumulate history; 2..=6 train.
        assert_eq!(stats.len(), 5);
        assert_eq!(stats[0].window, 2);
        assert_eq!(stats[0].t, 2);
        assert!(stats.iter().all(|s| s.epochs.len() == 2));
        assert!(stats.iter().all(|s| (0.0..=1.0).contains(&s.auc)));
        assert!(stats.iter().skip(1).all(|s| s.t == 3), "history capped");
    }

    #[test]
    fn warm_start_improves_over_stream() {
        let g = churn_skewed(60, 10, 240, 0.2, 0.9, 8);
        let log = EventLog::replay(&g);
        let opts = StreamTrainOptions {
            history: 4,
            min_history: 2,
            epochs_per_window: 6,
            train: TrainOptions {
                lr: 0.05,
                ..Default::default()
            },
            ..Default::default()
        };
        let stats = train_streaming(&log, small_cfg(), &opts);
        // Later windows start from fitted parameters: their *first* epoch
        // loss should beat the first window's untrained first epoch.
        let first = stats.first().unwrap().epochs.first().unwrap().loss;
        let late = stats.last().unwrap().epochs.first().unwrap().loss;
        assert!(late < first, "warm start should help: {late} vs {first}");
    }
}
