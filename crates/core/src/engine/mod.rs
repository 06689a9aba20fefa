//! The unified checkpointed training engine (paper §3, Fig. 2).
//!
//! Every trainer in this crate is the *same* algorithm — a timeline cut
//! into `nb` checkpoint blocks, walked forward storing only the carries
//! `π_b`, then walked backward re-running each block but the last (whose
//! tape the forward pass hands over) on a fresh tape —
//! specialised only by how timesteps and vertices are laid out across
//! ranks. `run_engine` owns that loop once: the snapshot schedule, the
//! forward/recompute/backward block order, each block's one
//! `Tape::backward` call (loss seeds plus the carry gradients of the block
//! above), optimizer stepping, carry bookkeeping, and workspace recycling.
//! A `ParallelStrategy` supplies the parts that differ:
//!
//! * how one block runs forward on a tape (which timesteps this rank owns,
//!   which collective tape ops move activations between layers — their
//!   backward runs the reverse collectives inside that one call);
//! * each loss's weight in the epoch loss, the communicator (whose
//!   gradient all-reduce keeps replicas identical) and how per-epoch
//!   metrics are assembled.
//!
//! The concrete strategies are `SingleRank` (`single_rank`)
//! (paper §3), `TimePartitioned` (`time_part`, §4.2) and the one
//! row-split layout `VertexPartitioned` (`vertex_part`), which runs both
//! the vertex-partitioning baseline (§4.1/§6.4) and the hybrid (§6.5);
//! vertex classification rides the single-rank layout with its own
//! objective (`classify::SingleRankClassification`), and the streaming
//! trainer is a front-end that feeds windows to the single-rank engine.
//! Adding a new layout (e.g. DGC-style chunked partitioning) means
//! implementing the trait — roughly a hundred lines — not forking a
//! trainer.
//!
//! # Bit-identity
//!
//! The engine executes exactly the operation sequences of the trainers it
//! replaced: `tests/engine_equivalence.rs` pins every strategy's loss
//! stream and final parameters to golden bit patterns captured from the
//! pre-engine trainers, at multiple thread counts.

pub(crate) mod classify;
pub(crate) mod single_rank;
pub mod source;
pub(crate) mod time_part;
pub(crate) mod vertex_part;

use std::ops::Range;

use dgnn_autograd::{Adam, Communicator, Optimizer, ParamStore, Tape, Var};
use dgnn_graph::diff::chunk_transfer;
use dgnn_models::{CarryGrads, CarryState, LayerCarry, Model, Segment};
use dgnn_telemetry::trace;
use dgnn_tensor::{workspace, Csr, Dense};

use crate::metrics::{PhaseBreakdown, TrainOptions};
use crate::task::TaskOptions;

/// Engine-level configuration: the one place that owns the training and
/// task-preparation knobs the entry points used to default independently.
///
/// Defaults (documented here so call sites no longer re-state them):
///
/// * `train` — [`TrainOptions::default`]: 10 epochs, Adam lr `0.01`, one
///   checkpoint block, seed 42, thread count resolved from
///   `DGNN_THREADS` / available parallelism.
/// * `task` — [`TaskOptions::default`]: sampling fraction θ = 0.1,
///   sampling seed 17, and the §5.5 first-layer pre-aggregation *enabled*.
/// * Strategies whose spatial phase runs on row-partitioned operators
///   (hybrid, vertex-partitioned) cannot consume the pre-aggregated
///   `Ã·X`; [`EngineConfig::resolved_task`] turns it off for them here,
///   rather than at each call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Trainer options (epochs, lr, checkpoint blocks, seed, threads).
    pub train: TrainOptions,
    /// Task-preparation options (sampling, pre-aggregation).
    pub task: TaskOptions,
}

impl EngineConfig {
    /// Bundles explicit trainer and task options.
    pub fn new(train: TrainOptions, task: TaskOptions) -> Self {
        Self { train, task }
    }

    /// The task options a strategy actually prepares with: first-layer
    /// pre-aggregation is forced off when the strategy cannot use it.
    pub fn resolved_task(&self, supports_preagg: bool) -> TaskOptions {
        TaskOptions {
            precompute_first_layer: self.task.precompute_first_layer && supports_preagg,
            ..self.task
        }
    }

    /// The checkpoint-block schedule for a `t`-timestep timeline.
    pub fn blocks(&self, t: usize) -> Vec<Range<usize>> {
        checkpoint_blocks(&self.train, t)
    }
}

/// The checkpoint-block schedule for a `t`-timestep timeline: `nb`
/// balanced contiguous ranges, clamped to one block per timestep. Entry
/// points whose task is already prepared call this directly; full
/// [`EngineConfig`] holders go through [`EngineConfig::blocks`].
pub fn checkpoint_blocks(train: &TrainOptions, t: usize) -> Vec<Range<usize>> {
    assert!(train.nb >= 1, "need at least one block");
    dgnn_partition::balanced_ranges(t, train.nb.min(t))
}

/// The artifacts of one block run: the tape, the bound model segment, the
/// per-owned-timestep loss/logit variables and loss weights, the
/// final-layer embeddings, and whatever the strategy's metrics need.
pub(crate) struct BlockRun<'m, Io> {
    pub tape: Tape,
    pub seg: Segment<'m>,
    /// Per-owned-timestep loss variables.
    pub loss_vars: Vec<Var>,
    /// Each loss variable's weight in the epoch loss: its backward seed.
    pub loss_weights: Vec<f32>,
    /// Per-owned-timestep logits variables (for accuracy).
    pub logit_vars: Vec<Var>,
    /// Final-layer embedding variables per owned timestep.
    pub z_vars: Vec<Var>,
    /// Strategy-specific artifacts for the metrics.
    pub io: Io,
}

impl<Io> BlockRun<'_, Io> {
    /// Retires the run, returning its tape scratch to the workspace arena.
    pub(crate) fn retire(self) {
        self.tape.recycle();
    }
}

/// One rank's view of a parallel training layout. See the module docs for
/// the division of labour between the engine loop and a strategy.
pub(crate) trait ParallelStrategy<'m> {
    /// Per-block strategy artifacts threaded from forward to the metrics.
    type Io;
    /// Per-epoch metric accumulator.
    type Stats: Default;
    /// Per-epoch output record.
    type EpochOut;

    /// The model this strategy trains (borrowed for the whole run).
    fn model(&self) -> &'m Model;

    /// Rows of this rank's temporal carry (its vertex-chunk height).
    fn carry_rows(&self) -> usize;

    /// Called at the top of every epoch (volume marks, counters).
    fn begin_epoch(&mut self) {}

    /// Runs one block forward on a fresh tape — both the forward pass and
    /// the backward pass's recompute (every block but the last) go through
    /// here, exactly as in paper Fig. 2.
    fn forward_block(
        &mut self,
        store: &ParamStore,
        block: Range<usize>,
        carry_in: &CarryState,
    ) -> BlockRun<'m, Self::Io>;

    /// The communicator of the block tapes' collectives and the epoch's
    /// gradient all-reduce (none on one rank).
    fn comm(&mut self) -> Option<&mut dyn Communicator> {
        None
    }

    /// Folds one forward block into the epoch accumulator and captures the
    /// final timestep's embeddings when this rank owns them.
    fn observe_block(
        &mut self,
        run: &BlockRun<'m, Self::Io>,
        block: &Range<usize>,
        stats: &mut Self::Stats,
        last_z: &mut Option<Dense>,
    );

    /// Assembles the epoch record (runs *after* the optimizer step, so
    /// held-out evaluation sees the updated parameters).
    fn finish_epoch(
        &mut self,
        stats: Self::Stats,
        last_z: Option<Dense>,
        store: &ParamStore,
    ) -> Self::EpochOut;

    /// Stores the engine's measured phase breakdown on the epoch record,
    /// adding whatever attributions the strategy tracks itself (comm busy
    /// time, store wait). Default: the record carries no breakdown.
    fn attach_phase(&mut self, _out: &mut Self::EpochOut, _phase: PhaseBreakdown) {}
}

/// The checkpointed training loop (paper §3.1), shared by every strategy:
/// forward over blocks storing carries, backward over blocks in reverse —
/// the last block on the tape its forward run left, the others re-run
/// first — with one `Tape::backward` call each, seeded with the weighted
/// losses and the carry gradients of the block above; then gradient
/// reduction, optimizer step, metrics. Engages a per-rank buffer workspace
/// for the duration so steady-state epochs reuse tape scratch instead of
/// allocating. Carries live in the in-memory [`source::MemoryCarryBank`];
/// the out-of-core entry points call [`run_engine_banked`] with a spilling
/// bank instead.
pub(crate) fn run_engine<'m, S: ParallelStrategy<'m>>(
    strategy: &mut S,
    store: &mut ParamStore,
    blocks: &[Range<usize>],
    epochs: usize,
    lr: f32,
) -> Vec<S::EpochOut> {
    let mut bank = source::MemoryCarryBank::default();
    run_engine_banked(strategy, store, blocks, epochs, lr, &mut bank)
}

/// [`run_engine`] with an explicit carry bank deciding where the `π_b`
/// live between the forward and backward passes (memory or the tiered
/// store). Carry placement is bit-neutral: spilled carries round-trip as
/// raw bit patterns.
pub(crate) fn run_engine_banked<'m, S: ParallelStrategy<'m>>(
    strategy: &mut S,
    store: &mut ParamStore,
    blocks: &[Range<usize>],
    epochs: usize,
    lr: f32,
    bank: &mut dyn source::CarryBank,
) -> Vec<S::EpochOut> {
    let _ws = workspace::engage();
    let model = strategy.model();
    let mut opt = Adam::new(lr);
    let mut out = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let epoch_span = trace::span_cat("epoch", "engine");
        let mut phase = PhaseBreakdown::default();
        strategy.begin_epoch();
        store.zero_grad();

        // ---- Forward pass: bank π_b for every block. ----
        bank.begin_epoch(model.initial_carry(strategy.carry_rows()));
        let mut stats = S::Stats::default();
        let mut last_z: Option<Dense> = None;
        // The last block's run is kept for the backward pass, which starts
        // with that block: re-running it would rebuild the tape just
        // retired. Every other tape retires here — only π_b survives, as in
        // the paper — so at most one block's tape is alive at a time.
        let mut kept: Option<BlockRun<'m, S::Io>> = None;
        for (b, block) in blocks.iter().enumerate() {
            let span = trace::span_cat("forward", "engine");
            let run = strategy.forward_block(store, block.clone(), bank.last());
            strategy.observe_block(&run, block, &mut stats, &mut last_z);
            bank.push(run.seg.carry_out(&run.tape));
            if b + 1 == blocks.len() {
                kept = Some(run);
            } else {
                run.retire();
            }
            phase.forward_us += span.finish_us();
        }

        // ---- Backward pass: blocks in reverse, all but the last rerun. ----
        let mut carry_grads: Option<CarryGrads> = None;
        for (b, block) in blocks.iter().enumerate().rev() {
            let carry_in = bank.take(b);
            let mut run = kept.take().unwrap_or_else(|| {
                let span = trace::span_cat("recompute", "engine");
                let run = strategy.forward_block(store, block.clone(), &carry_in);
                phase.recompute_us += span.finish_us();
                run
            });
            let span = trace::span_cat("backward", "engine");
            let mut seeds: Vec<(Var, Dense)> = run
                .loss_vars
                .iter()
                .zip(&run.loss_weights)
                .map(|(&lv, &w)| (lv, Dense::full(1, 1, w)))
                .collect();
            if let Some(cg) = &carry_grads {
                seeds.extend(run.seg.carry_out_seeds(cg));
            }
            run.tape.backward(seeds, strategy.comm());
            run.tape.accumulate_param_grads(store);
            let next = run.seg.carry_in_grads(&run.tape);
            if let Some(old) = carry_grads.replace(next) {
                recycle_carry_grads(old);
            }
            run.retire();
            recycle_carry(carry_in);
            phase.backward_us += span.finish_us();
        }
        if let Some(last) = carry_grads.take() {
            recycle_carry_grads(last);
        }
        bank.finish_epoch();

        let span = trace::span_cat("optimizer", "engine");
        if let Some(comm) = strategy.comm() {
            // The gradient all-reduce keeps the replicas identical.
            let mut flat = store.grads_flat();
            comm.all_reduce_sum(&mut flat);
            store.set_grads_from_flat(&flat);
        }
        opt.step(store);
        phase.optimizer_us += span.finish_us();
        let mut rec = strategy.finish_epoch(stats, last_z.take(), store);
        strategy.attach_phase(&mut rec, phase);
        drop(epoch_span);
        if trace::enabled() {
            eprintln!(
                "[dgnn-trace] epoch {epoch}: forward {}us recompute {}us backward {}us optimizer {}us",
                phase.forward_us, phase.recompute_us, phase.backward_us, phase.optimizer_us
            );
        }
        out.push(rec);
    }
    out
}

/// Returns one retired carry's matrices to the workspace arena.
pub(crate) fn recycle_carry(carry: CarryState) {
    if !workspace::is_engaged() {
        return;
    }
    for layer in carry.layers {
        match layer {
            LayerCarry::Lstm { h, c } | LayerCarry::Egcn { h, c } => {
                workspace::recycle(h);
                workspace::recycle(c);
            }
            LayerCarry::Window { frames } => frames.into_iter().for_each(workspace::recycle),
        }
    }
}

/// Returns a retired carry-gradient bundle's matrices to the arena.
fn recycle_carry_grads(grads: CarryGrads) {
    if !workspace::is_engaged() {
        return;
    }
    for layer in grads.layers {
        if let Some(dh) = layer.dh {
            workspace::recycle(dh);
        }
        if let Some(dc) = layer.dc {
            workspace::recycle(dc);
        }
        layer
            .dframes
            .into_iter()
            .flatten()
            .for_each(workspace::recycle);
    }
}

/// Snapshot-transfer accounting shared by the strategies (paper §3.2):
/// the given snapshots move twice per epoch — once for the forward pass
/// and once for the backward rerun — under both the naive and the
/// graph-difference encodings. Returns `(naive_bytes, gd_bytes)`. This
/// is the paper's accounting, which re-sends every block; that the engine
/// keeps the last block's tape does not enter it.
pub(crate) fn transfer_bytes<'a>(chunks: impl Iterator<Item = Vec<&'a Csr>>) -> (u64, u64) {
    let (mut naive, mut gd) = (0u64, 0u64);
    for slices in chunks {
        if slices.is_empty() {
            continue;
        }
        let acc = chunk_transfer(&slices);
        naive += 2 * acc.naive_bytes;
        gd += 2 * acc.gd_bytes;
    }
    (naive, gd)
}

/// The dense (whole-row) layer walk shared by the single-rank layouts:
/// layer-0 inputs from the features or the §5.5 pre-aggregation, then per
/// layer the spatial GCN phase followed by the temporal phase over the
/// whole block. Returns the final-layer embeddings per block timestep.
///
/// Operators and inputs come from a [`source::SnapshotSource`] — the
/// in-memory task view or the out-of-core tiered store — which is told
/// about the block entry first so it can stage the next block.
pub(crate) fn dense_layer_walk<'m>(
    tape: &mut Tape,
    seg: &mut Segment<'m>,
    model: &Model,
    src: &dyn source::SnapshotSource,
    block: &Range<usize>,
) -> Vec<Var> {
    src.enter_block(block);
    let mut feats: Vec<Var> = Vec::with_capacity(block.len());
    for t in block.clone() {
        feats.push(tape.constant(src.input(t)));
    }
    for layer in 0..model.config().layers() {
        let spatial: Vec<Var> = block
            .clone()
            .map(|t| {
                let x = feats[t - block.start];
                if layer == 0 && src.preagg() {
                    seg.spatial_preagg(tape, t, x)
                } else {
                    seg.spatial(tape, layer, t, src.lap(t), x)
                }
            })
            .collect();
        feats = seg.temporal(tape, layer, 0, &spatial);
    }
    feats
}
