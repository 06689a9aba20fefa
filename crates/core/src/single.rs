//! The single-GPU checkpointed trainer (paper §3, Fig. 2): the engine
//! ([`crate::engine`]) over the single-rank layout with the
//! link-prediction objective, its blocks drawn from the in-memory task or
//! from a tiered store.
//!
//! The timeline is cut into `nb` blocks. The forward pass walks blocks in
//! order, keeping only one block's tape alive at a time and storing the
//! carry `π_b` between blocks. Backpropagation walks blocks in reverse:
//! each block but the last (whose forward tape is still alive) is *re-run*
//! forward on a fresh tape (paper Fig. 2's "rerun" segment), then swept
//! backward with the per-timestep loss seeds plus the carry gradients
//! arriving from the block above.
//!
//! Snapshot transfers are accounted per block under both the naive and
//! the graph-difference encodings — twice per epoch per block, once for the
//! forward pass and once for the backward rerun, as the paper does (§3.2).

use std::cell::RefCell;
use std::rc::Rc;

use dgnn_autograd::ParamStore;
use dgnn_models::{LinkPredHead, Model};
use dgnn_store::{StoreConfig, StoreError, StoreStats, TieredStore};

use crate::engine::layout::Layout;
use crate::engine::objective::Objective;
use crate::engine::source::{
    CarryBank, MemoryCarryBank, SnapshotSource, SpillCarryBank, StoreSource, TaskSource,
};
use crate::engine::{checkpoint_blocks, Engine};
use crate::metrics::{EpochStats, TrainOptions};
use crate::task::Task;

/// Trains over the single-rank layout with blocks from `source` and
/// carries in `bank`.
fn train_link(
    model: &Model,
    head: &LinkPredHead,
    store: &mut ParamStore,
    task: &Task,
    opts: &TrainOptions,
    source: &dyn SnapshotSource,
    bank: &mut dyn CarryBank,
) -> Vec<EpochStats> {
    let mut engine = Engine {
        model,
        task,
        layout: Layout::single(source, task.n),
        objective: Objective::Link(head),
    };
    let epochs = engine.run(store, opts, bank);
    epochs.into_iter().map(|(stats, _)| stats).collect()
}

/// Trains the model with gradient checkpointing on a single simulated GPU
/// and returns per-epoch statistics.
pub fn train_single(
    model: &Model,
    head: &LinkPredHead,
    store: &mut ParamStore,
    task: &Task,
    opts: &TrainOptions,
) -> Vec<EpochStats> {
    let _threads = dgnn_tensor::pool::scoped_threads(opts.threads);
    let source = TaskSource::new(task);
    let mut bank = MemoryCarryBank::default();
    train_link(model, head, store, task, opts, &source, &mut bank)
}

/// [`train_single`] with the snapshot blocks *and* checkpoint carries
/// spilled to a tiered [`TieredStore`]: the task's Laplacians and layer-0
/// inputs are sealed into spill files up front, an LRU memory tier keeps
/// the hot blocks resident within the store budget, and a background
/// thread prefetches one checkpoint block ahead along the §3.1 schedule.
/// This is how the repo trains a snapshot working set larger than memory.
///
/// The parameter trajectory is **bit-identical** to [`train_single`] at
/// every budget and thread count (spill frames round-trip raw bit
/// patterns; pinned by `tests/out_of_core_equivalence.rs`), and each
/// epoch's [`EpochStats::store_miss_bytes`] reports the bytes the tier
/// faulted. Returns the per-epoch statistics plus the store's final
/// counters.
///
/// Up-front I/O failures surface as typed [`StoreError`]s; a spill file
/// turning unreadable *mid-epoch* (environment failure — the store wrote
/// it moments earlier) panics with the typed error in the message.
pub fn train_single_out_of_core(
    model: &Model,
    head: &LinkPredHead,
    store: &mut ParamStore,
    task: &Task,
    opts: &TrainOptions,
    cfg: &StoreConfig,
) -> Result<(Vec<EpochStats>, StoreStats), StoreError> {
    let _threads = dgnn_tensor::pool::scoped_threads(opts.threads);
    let blocks = checkpoint_blocks(opts, task.t);
    let tier = Rc::new(RefCell::new(TieredStore::open(cfg)?));
    let source = StoreSource::spill(task, Rc::clone(&tier), &blocks)?;
    let mut bank = SpillCarryBank::new(Rc::clone(&tier));
    let stats = train_link(model, head, store, task, opts, &source, &mut bank);
    let report = source.stats();
    Ok((stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{prepare_task_holdout, TaskOptions};
    use dgnn_models::{ModelConfig, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(kind: ModelKind) -> (Model, LinkPredHead, ParamStore, Task) {
        let g = dgnn_graph::gen::churn_skewed(60, 8, 240, 0.3, 0.9, 11);
        let cfg = ModelConfig {
            kind,
            input_f: 2,
            hidden: 6,
            mprod_window: 3,
            smoothing_window: 3,
        };
        let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        (model, head, store, task)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        for kind in ModelKind::all() {
            let (model, head, mut store, task) = setup(kind);
            let opts = TrainOptions {
                epochs: 8,
                lr: 0.05,
                nb: 1,
                seed: 7,
                threads: None,
            };
            let stats = train_single(&model, &head, &mut store, &task, &opts);
            let first = stats.first().unwrap().loss;
            let last = stats.last().unwrap().loss;
            assert!(
                last < first,
                "{kind:?}: loss should fall ({first} -> {last})"
            );
        }
    }

    #[test]
    fn checkpoint_blocks_do_not_change_training() {
        // The core checkpointing guarantee: nb = 1 and nb = 3 produce the
        // same parameter trajectory (up to f32 noise).
        for kind in ModelKind::all() {
            let run = |nb: usize| {
                let (model, head, mut store, task) = setup(kind);
                let opts = TrainOptions {
                    epochs: 3,
                    lr: 0.02,
                    nb,
                    seed: 7,
                    threads: None,
                };
                let stats = train_single(&model, &head, &mut store, &task, &opts);
                (stats.last().unwrap().loss, store.values_flat())
            };
            let (loss1, params1) = run(1);
            let (loss3, params3) = run(3);
            assert!(
                (loss1 - loss3).abs() < 1e-4,
                "{kind:?}: losses diverge: {loss1} vs {loss3}"
            );
            let max_diff = params1
                .iter()
                .zip(&params3)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 1e-3, "{kind:?}: params diverge by {max_diff}");
        }
    }

    /// A [`TaskSource`] that counts block entries: the engine enters a
    /// block once per block run.
    struct CountingRuns<'a> {
        inner: TaskSource<'a>,
        runs: std::cell::Cell<usize>,
    }

    impl SnapshotSource for CountingRuns<'_> {
        fn lap(&self, t: usize) -> Rc<dgnn_tensor::Csr> {
            self.inner.lap(t)
        }

        fn input(&self, t: usize) -> dgnn_tensor::Dense {
            self.inner.input(t)
        }

        fn preagg(&self) -> bool {
            self.inner.preagg()
        }

        fn enter_block(&self, _block: &std::ops::Range<usize>) {
            self.runs.set(self.runs.get() + 1);
        }
    }

    #[test]
    fn only_the_blocks_before_the_last_are_rerun() {
        // One epoch runs every block forward once and re-runs all but the
        // last for the backward pass: nb + (nb - 1) block runs.
        for (nb, want_runs) in [(1usize, 1usize), (2, 3), (4, 7)] {
            let (model, head, mut store, task) = setup(ModelKind::CdGcn);
            let opts = TrainOptions {
                epochs: 1,
                lr: 0.05,
                nb,
                seed: 7,
                threads: None,
            };
            let counting = CountingRuns {
                inner: TaskSource::new(&task),
                runs: std::cell::Cell::new(0),
            };
            let mut bank = MemoryCarryBank::default();
            train_link(
                &model, &head, &mut store, &task, &opts, &counting, &mut bank,
            );
            assert_eq!(counting.runs.get(), want_runs, "nb={nb}");
        }
    }

    #[test]
    fn transfer_accounting_reports_gd_savings() {
        let (model, head, mut store, task) = setup(ModelKind::TmGcn);
        let opts = TrainOptions {
            epochs: 1,
            lr: 0.01,
            nb: 2,
            seed: 7,
            threads: None,
        };
        let stats = train_single(&model, &head, &mut store, &task, &opts);
        let s = &stats[0];
        assert!(s.transfer_gd_bytes < s.transfer_naive_bytes);
        assert!(s.gd_speedup() > 1.5, "speedup {}", s.gd_speedup());
    }

    #[test]
    fn test_accuracy_beats_chance_eventually() {
        // Link prediction on a slowly churning graph is learnable: positive
        // pairs repeat over time.
        let (model, head, mut store, task) = setup(ModelKind::TmGcn);
        let opts = TrainOptions {
            epochs: 60,
            lr: 0.1,
            nb: 1,
            seed: 7,
            threads: None,
        };
        let stats = train_single(&model, &head, &mut store, &task, &opts);
        let best = stats.iter().map(|s| s.test_acc).fold(0.0, f64::max);
        assert!(best > 0.55, "best test accuracy {best}");
    }

    #[test]
    fn nb_zero_panics() {
        let (model, head, mut store, task) = setup(ModelKind::TmGcn);
        let opts = TrainOptions {
            epochs: 1,
            lr: 0.01,
            nb: 0,
            seed: 7,
            threads: None,
        };
        let result =
            std::panic::catch_unwind(move || train_single(&model, &head, &mut store, &task, &opts));
        assert!(result.is_err(), "nb = 0 must be rejected");
    }
}
