//! The single-rank strategy (paper §3, Fig. 2): one simulated GPU owns
//! every timestep of every block. The GCN and temporal phases are
//! communication-free; snapshot transfers are accounted per block run
//! under both the naive and graph-difference encodings (paper §3.2), and
//! — when the blocks come from a tiered store — tier misses are folded
//! into the same per-epoch accounting.

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{ParamStore, Tape};
use dgnn_models::{accuracy, CarryState, LinkPredHead, Model};
use dgnn_tensor::Dense;

use crate::engine::source::SnapshotSource;
use crate::engine::{dense_layer_walk, transfer_bytes, BlockRun, ParallelStrategy};
use crate::metrics::{EpochStats, PhaseBreakdown};
use crate::task::Task;

/// Runs one block forward on a fresh tape (single-rank layout). Shared
/// with the streaming front-end's forward-only evaluation.
pub(crate) fn run_block<'m>(
    model: &'m Model,
    head: &LinkPredHead,
    store: &ParamStore,
    task: &Task,
    src: &dyn SnapshotSource,
    block: Range<usize>,
    carry_in: &CarryState,
) -> BlockRun<'m, ()> {
    let mut tape = Tape::new();
    let mut seg = model.bind_segment(&mut tape, store, block.clone(), carry_in);
    let head_vars = head.bind(&mut tape, store);
    let feats = dense_layer_walk(&mut tape, &mut seg, model, src, &block);

    let mut loss_vars = Vec::with_capacity(block.len());
    let mut logit_vars = Vec::with_capacity(block.len());
    for t in block.clone() {
        let z = feats[t - block.start];
        let logits = head.logits(&mut tape, head_vars, z, &task.train[t]);
        let loss = tape.softmax_cross_entropy(logits, Rc::new(task.train[t].labels.clone()));
        logit_vars.push(logits);
        loss_vars.push(loss);
    }
    BlockRun {
        tape,
        seg,
        loss_vars,
        loss_weights: vec![1.0 / task.t as f32; block.len()],
        logit_vars,
        z_vars: feats,
        io: (),
    }
}

/// Per-epoch link-prediction accumulator of the single-rank strategy.
#[derive(Default)]
pub(crate) struct SingleStats {
    loss_sum: f64,
    correct: usize,
    total: usize,
}

/// The single-rank layout: the whole timeline on one rank, blocks drawn
/// from a [`SnapshotSource`] (in-memory task view or tiered store).
pub(crate) struct SingleRank<'m, 's> {
    model: &'m Model,
    head: &'m LinkPredHead,
    task: &'m Task,
    source: &'s dyn SnapshotSource,
    naive_bytes: u64,
    gd_bytes: u64,
    /// Tier-miss bytes already accounted before this epoch began.
    miss_mark: u64,
    /// Tier-wait microseconds already accounted before this epoch began.
    wait_mark: u64,
}

impl<'m, 's> SingleRank<'m, 's> {
    /// Builds the strategy and its transfer accounting over `blocks`
    /// (topology-only, identical across epochs).
    pub fn new(
        model: &'m Model,
        head: &'m LinkPredHead,
        task: &'m Task,
        source: &'s dyn SnapshotSource,
        blocks: &[Range<usize>],
    ) -> Self {
        let (naive_bytes, gd_bytes) = transfer_bytes(
            blocks
                .iter()
                .map(|b| b.clone().map(|t| task.graph.snapshot(t).adj()).collect()),
        );
        Self {
            model,
            head,
            task,
            source,
            naive_bytes,
            gd_bytes,
            miss_mark: 0,
            wait_mark: 0,
        }
    }
}

impl<'m> ParallelStrategy<'m> for SingleRank<'m, '_> {
    type Io = ();
    type Stats = SingleStats;
    type EpochOut = EpochStats;

    fn model(&self) -> &'m Model {
        self.model
    }

    fn carry_rows(&self) -> usize {
        self.task.n
    }

    fn begin_epoch(&mut self) {
        self.miss_mark = self.source.miss_bytes();
        self.wait_mark = self.source.wait_us();
    }

    fn forward_block(
        &mut self,
        store: &ParamStore,
        block: Range<usize>,
        carry_in: &CarryState,
    ) -> BlockRun<'m, ()> {
        run_block(
            self.model,
            self.head,
            store,
            self.task,
            self.source,
            block,
            carry_in,
        )
    }

    fn observe_block(
        &mut self,
        run: &BlockRun<'m, ()>,
        block: &Range<usize>,
        stats: &mut SingleStats,
        last_z: &mut Option<Dense>,
    ) {
        for (i, t) in block.clone().enumerate() {
            stats.loss_sum += f64::from(run.tape.value(run.loss_vars[i]).get(0, 0));
            let logits = run.tape.value(run.logit_vars[i]);
            let acc = accuracy(logits, &self.task.train[t].labels);
            stats.correct += (acc * self.task.train[t].labels.len() as f64).round() as usize;
            stats.total += self.task.train[t].labels.len();
        }
        if block.end == self.task.t {
            *last_z = Some(run.tape.value(*run.z_vars.last().unwrap()).clone());
        }
    }

    fn finish_epoch(
        &mut self,
        stats: SingleStats,
        last_z: Option<Dense>,
        store: &ParamStore,
    ) -> EpochStats {
        // Test accuracy from the last timestep's embeddings.
        let z = last_z.expect("last block must end at T");
        let test_logits = self.head.predict(store, &z, &self.task.test);
        let test_acc = accuracy(&test_logits, &self.task.test.labels);
        EpochStats {
            loss: stats.loss_sum / self.task.t as f64,
            train_acc: stats.correct as f64 / stats.total.max(1) as f64,
            test_acc,
            transfer_naive_bytes: self.naive_bytes,
            transfer_gd_bytes: self.gd_bytes,
            comm_bytes: 0,
            store_miss_bytes: self.source.miss_bytes() - self.miss_mark,
            phase: PhaseBreakdown::default(),
        }
    }

    fn attach_phase(&mut self, out: &mut EpochStats, phase: PhaseBreakdown) {
        out.phase = phase;
        out.phase.store_wait_us = self.source.wait_us() - self.wait_mark;
    }
}
