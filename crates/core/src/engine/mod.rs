//! The checkpointed training engine (paper §3, Fig. 2).
//!
//! Every trainer in this crate is the *same* algorithm — a timeline cut
//! into `nb` checkpoint blocks, walked forward storing only the carries
//! `π_b`, then walked backward re-running each block but the last (whose
//! tape the forward pass hands over) on a fresh tape — over a different
//! ownership map of the `T × N` grid. `Engine` owns that loop once: the
//! snapshot schedule, the forward/recompute/backward block order, each
//! block's one `Tape::backward` call (loss seeds plus the carry gradients
//! of the block above), the gradient all-reduce, optimizer stepping,
//! carry bookkeeping, workspace recycling and the epoch statistics.
//!
//! It runs one block forward for every layout. What differs is data:
//!
//! * a `Layout` (`layout`) — which timesteps this rank runs the spatial
//!   phase for, the rows and operator of each, and the collectives
//!   around the phases (a row exchange before each SpMM, all-to-alls
//!   around the temporal phase, a loss-side all-gather). Collectives are
//!   tape ops, so the one backward call runs them reversed; an absent one
//!   emits no op, and the single-rank tape is the collective-free one.
//! * an `Objective` (`objective`) — link prediction or class-balanced
//!   vertex classification: the loss terms, their weights and the
//!   accuracy counters.
//!
//! The layouts are the single rank (paper §3), the time split (§4.2) and
//! the row split, which runs both the vertex-partitioning baseline
//! (§4.1/§6.4) and the hybrid (§6.5). The streaming trainer and its
//! hold-out pass ride the single-rank layout. A new layout (e.g.
//! DGC-style chunks) is a new `Layout` constructor.
//!
//! # Bit-identity
//!
//! The engine executes exactly the operation sequences of the trainers it
//! replaced: `tests/engine_equivalence.rs` pins every layout's loss
//! stream and final parameters to golden bit patterns captured from the
//! pre-engine trainers, at multiple thread counts.

pub(crate) mod layout;
pub(crate) mod objective;
pub mod source;
pub(crate) mod time_part;
pub(crate) mod vertex_part;

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{Adam, Communicator, Optimizer, ParamStore, Tape, Var};
use dgnn_graph::diff::chunk_transfer;
use dgnn_models::{CarryGrads, CarryState, LayerCarry, Model, Segment};
use dgnn_sim::{Comm, CommMark};
use dgnn_telemetry::trace;
use dgnn_tensor::{workspace, Csr, Dense};

use crate::engine::layout::Layout;
use crate::engine::objective::{Objective, Scored, Tally};
use crate::engine::source::CarryBank;
use crate::metrics::{EpochStats, PhaseBreakdown, TrainOptions};
use crate::task::{Task, TaskOptions};

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
/// * Layouts whose spatial phase runs on row-partitioned operators
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

    /// The task options a layout actually prepares with: first-layer
    /// pre-aggregation is forced off when the layout cannot use it.
    pub fn resolved_task(&self, supports_preagg: bool) -> TaskOptions {
        TaskOptions {
            precompute_first_layer: self.task.precompute_first_layer && supports_preagg,
            ..self.task
        }
    }
}

/// The checkpoint-block schedule for a `t`-timestep timeline: `nb`
/// balanced contiguous ranges, clamped to one block per timestep.
pub fn checkpoint_blocks(train: &TrainOptions, t: usize) -> Vec<Range<usize>> {
    assert!(train.nb >= 1, "need at least one block");
    dgnn_partition::balanced_ranges(t, train.nb.min(t))
}

/// The artifacts of one block run: the tape, the bound model segment, and
/// the timesteps this rank scored.
pub(crate) struct BlockRun<'a> {
    pub tape: Tape,
    pub seg: Segment<'a>,
    pub scored: Vec<Scored>,
}

impl BlockRun<'_> {
    /// Retires the run, returning its tape scratch to the workspace arena.
    pub(crate) fn retire(self) {
        self.tape.recycle();
    }
}

/// Where an epoch's counters stood when it began.
struct EpochMarks {
    comm: Option<CommMark>,
    miss_bytes: u64,
    wait_us: u64,
}

/// One rank's engine run: a model trained on a task over a layout, for an
/// objective. See the module docs.
pub(crate) struct Engine<'a> {
    pub model: &'a Model,
    pub task: &'a Task,
    pub layout: Layout<'a>,
    pub objective: Objective<'a>,
}

impl<'a> Engine<'a> {
    /// Runs one block forward on a fresh tape — both the forward pass and
    /// the backward pass's recompute (every block but the last) go through
    /// here, exactly as in paper Fig. 2: layer-0 inputs from the features
    /// or the §5.5 pre-aggregation, then per layer the spatial phase of
    /// each of this rank's timesteps and the temporal phase over the
    /// block, then the losses of this rank's timesteps.
    pub fn forward_block(
        &mut self,
        store: &ParamStore,
        block: Range<usize>,
        carry_in: &CarryState,
    ) -> BlockRun<'a> {
        let (model, task, layout) = (self.model, self.task, &mut self.layout);
        let cfg = model.config();
        let steps = layout.steps(&block);
        let routes = layout.routes(&block);
        let mut tape = Tape::new();
        let mut seg = model.bind_segment(&mut tape, store, block.clone(), carry_in);
        let head = self.objective.bind(&mut tape, store);
        let src = layout.source;
        // Out-of-core sources stage the next scheduled block here.
        src.enter_block(&block);
        let mut feats: Vec<Var> = steps.iter().map(|&t| tape.constant(src.input(t))).collect();
        for layer in 0..cfg.layers() {
            let mut spatial = Vec::with_capacity(steps.len());
            for (&t, &x) in steps.iter().zip(&feats) {
                spatial.push(if layer == 0 && src.preagg() {
                    seg.spatial_preagg(&mut tape, t, x)
                } else {
                    // Send each peer the rows it references; stack what
                    // arrives in global-id order, the columns of `a_loc`.
                    let x = match layout.exchange {
                        Some(plan) => {
                            let rows = Rc::clone(&plan.needed_out[t]);
                            tape.exchange_rows(layout.comm(), x, rows)
                        }
                        None => x,
                    };
                    seg.spatial(&mut tape, layer, t, src.lap(t), x)
                });
            }
            feats = match &routes {
                // Spatial outputs → vertex chunks, the temporal phase on
                // the chunk over the whole block, its outputs → owners.
                Some([to_chunks, to_owners]) => {
                    let comm = layout.comm();
                    let width = cfg.gcn_out(layer);
                    let b_in = tape.all_to_all(comm, &spatial, width, Rc::clone(to_chunks));
                    let b_out = seg.temporal(&mut tape, layer, 0, &b_in);
                    let width = cfg.temporal_out(layer);
                    tape.all_to_all(comm, &b_out, width, Rc::clone(to_owners))
                }
                None => seg.temporal(&mut tape, layer, 0, &spatial),
            };
        }

        let objective = &self.objective;
        let scored = steps
            .into_iter()
            .zip(feats)
            .map(|(t, z)| {
                let z = match layout.exchange {
                    Some(_) => tape.all_gather(layout.comm(), z),
                    None => z,
                };
                let slice = layout.sample_slice(task.train[t].len());
                objective.loss(&mut tape, head, task, t, z, slice)
            })
            .collect();
        BlockRun { tape, seg, scored }
    }

    /// Folds one forward block into the epoch tally, and captures the last
    /// timestep's embeddings when this rank scores the test set on them.
    fn observe(&self, run: &BlockRun<'a>, tally: &mut Tally, last_z: &mut Option<Dense>) {
        let round = self.layout.comm.is_none();
        for s in &run.scored {
            let (loss, logits) = (run.tape.value(s.loss).get(0, 0), run.tape.value(s.logits));
            let slice = self.layout.sample_slice(self.task.train[s.t].len());
            self.objective
                .observe(tally, self.task, s.t, loss, logits, slice, round);
        }
        let last = run.scored.last().filter(|s| s.t + 1 == self.task.t);
        if let Some(s) = last.filter(|_| self.layout.scores_test) {
            *last_z = Some(run.tape.value(s.z).clone());
        }
    }

    /// The checkpointed training loop (paper §3.1): forward over blocks
    /// storing carries, backward over blocks in reverse — the last block
    /// on the tape its forward run left, the others re-run first — with
    /// one `Tape::backward` call each, seeded with the weighted losses and
    /// the carry gradients of the block above; then gradient all-reduce,
    /// optimizer step, epoch statistics. Engages a per-rank buffer
    /// workspace for the duration so steady-state epochs reuse tape
    /// scratch instead of allocating. The `bank` decides where the `π_b`
    /// live between the passes (memory or the tiered store); placement is
    /// bit-neutral, spilled carries round-trip as raw bit patterns.
    pub fn run(
        &mut self,
        store: &mut ParamStore,
        opts: &TrainOptions,
        bank: &mut dyn CarryBank,
    ) -> Vec<(EpochStats, Tally)> {
        let blocks = checkpoint_blocks(opts, self.task.t);
        // Snapshot transfers (paper §3.2): this rank's snapshots of every
        // block move twice per epoch — for the forward pass and for the
        // backward rerun, which the paper re-sends even for the last block
        // — under both the naive and the graph-difference encodings.
        let mut transfer = (0, 0);
        for block in blocks.iter().filter(|_| self.layout.transfer) {
            let steps = self.layout.steps(block).into_iter();
            let snaps: Vec<&Csr> = steps.map(|t| self.task.graph.snapshot(t).adj()).collect();
            if !snaps.is_empty() {
                let acc = chunk_transfer(&snaps);
                transfer.0 += 2 * acc.naive_bytes;
                transfer.1 += 2 * acc.gd_bytes;
            }
        }
        let _ws = workspace::engage();
        let mut opt = Adam::new(opts.lr);
        let mut out = Vec::with_capacity(opts.epochs);
        for epoch in 0..opts.epochs {
            let epoch_span = trace::span_cat("epoch", "engine");
            let mut phase = PhaseBreakdown::default();
            let src = self.layout.source;
            let marks = EpochMarks {
                comm: self.layout.comm.as_deref().map(Comm::mark),
                miss_bytes: src.miss_bytes(),
                wait_us: src.wait_us(),
            };
            store.zero_grad();

            // ---- Forward pass: bank π_b for every block. ----
            bank.begin_epoch(self.model.initial_carry(self.layout.carry_rows));
            let mut tally = Tally::default();
            let mut last_z: Option<Dense> = None;
            // The last block's run is kept for the backward pass, which
            // starts with that block: re-running it would rebuild the tape
            // just retired. Every other tape retires here — only π_b
            // survives, as in the paper — so at most one block's tape is
            // alive at a time.
            let mut kept: Option<BlockRun<'a>> = None;
            for (b, block) in blocks.iter().enumerate() {
                let span = trace::span_cat("forward", "engine");
                let run = self.forward_block(store, block.clone(), bank.last());
                self.observe(&run, &mut tally, &mut last_z);
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
                    let run = self.forward_block(store, block.clone(), &carry_in);
                    phase.recompute_us += span.finish_us();
                    run
                });
                let span = trace::span_cat("backward", "engine");
                let mut seeds: Vec<(Var, Dense)> = run
                    .scored
                    .iter()
                    .map(|s| (s.loss, Dense::full(1, 1, s.weight)))
                    .collect();
                if let Some(cg) = &carry_grads {
                    seeds.extend(run.seg.carry_out_seeds(cg));
                }
                let comm = self.layout.comm.as_deref_mut();
                run.tape
                    .backward(seeds, comm.map(|c| c as &mut dyn Communicator));
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
            if let Some(comm) = self.layout.comm.as_deref_mut() {
                // The gradient all-reduce keeps the replicas identical.
                let mut flat = store.grads_flat();
                comm.all_reduce_sum(&mut flat);
                store.set_grads_from_flat(&flat);
            }
            opt.step(store);
            phase.optimizer_us += span.finish_us();
            let stats = self.finish_epoch(&tally, last_z.take(), store, transfer, marks, phase);
            drop(epoch_span);
            if trace::enabled() {
                eprintln!(
                    "[dgnn-trace] epoch {epoch}: forward {}us recompute {}us backward {}us optimizer {}us",
                    phase.forward_us, phase.recompute_us, phase.backward_us, phase.optimizer_us
                );
            }
            out.push((stats, tally));
        }
        out
    }

    /// Assembles the epoch record after the optimizer step, so held-out
    /// evaluation sees the updated parameters. One rank reports its f64
    /// loss sum; ranks all-reduce their sums and counts in f32, with the
    /// test counts of the rank that scored the test set.
    fn finish_epoch(
        &mut self,
        tally: &Tally,
        last_z: Option<Dense>,
        store: &ParamStore,
        (transfer_naive_bytes, transfer_gd_bytes): (u64, u64),
        marks: EpochMarks,
        phase: PhaseBreakdown,
    ) -> EpochStats {
        let task = self.task;
        let test = last_z.and_then(|z| self.objective.test(store, task, &z));
        let src = self.layout.source;
        let mut stats = EpochStats {
            transfer_naive_bytes,
            transfer_gd_bytes,
            store_miss_bytes: src.miss_bytes() - marks.miss_bytes,
            phase,
            ..EpochStats::default()
        };
        match (self.layout.comm.as_deref_mut(), marks.comm) {
            (Some(comm), Some(mark)) => {
                let (hits, n) = tally.counts();
                let (test_hits, test_n) =
                    test.map_or((0.0, 0.0), |(acc, n)| (acc * n as f64, n as f64));
                let mut agg = [tally.loss_sum, hits, n, test_hits, test_n].map(|v| v as f32);
                comm.all_reduce_sum(&mut agg);
                stats.loss = f64::from(agg[0]) / task.t as f64;
                stats.train_acc = f64::from(agg[1]) / f64::from(agg[2]).max(1.0);
                stats.test_acc = f64::from(agg[3]) / f64::from(agg[4]).max(1.0);
                stats.comm_bytes = comm.bytes_since(mark);
                stats.phase.comm_us = comm.busy_us_since(mark);
                stats.phase.comm_wait_us = comm.wait_us_since(mark);
            }
            _ => {
                stats.loss = tally.loss_sum / task.t as f64;
                stats.train_acc = tally.accuracy();
                stats.test_acc = test.map_or(0.0, |(acc, _)| acc);
            }
        }
        stats.phase.store_wait_us = src.wait_us() - marks.wait_us;
        stats
    }
}

/// Returns one retired carry's matrices to the workspace arena.
pub(crate) fn recycle_carry(carry: CarryState) {
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
    for layer in grads.layers {
        let frames = layer.dframes.into_iter().flatten();
        let all = layer.dh.into_iter().chain(layer.dc).chain(frames);
        all.for_each(workspace::recycle);
    }
}
