//! Vertex classification (paper §2.2) as an engine objective: the
//! single-rank layout's layer walk with a [`ClassificationHead`] and a
//! class-weighted loss, per-timestep labels `Q` of size `T×N`.

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{ParamStore, Tape, Var};
use dgnn_models::{CarryState, ClassificationHead, Model};
use dgnn_tensor::Dense;

use crate::classification::ClassEpochStats;
use crate::engine::source::TaskSource;
use crate::engine::{dense_layer_walk, BlockRun, ParallelStrategy};
use crate::task::Task;

/// Per-class recall counts.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Recalls {
    correct: [f64; 2],
    total: [f64; 2],
}

impl Recalls {
    fn add(&mut self, logits: &Dense, labels: &[u32]) {
        for (r, &label) in labels.iter().enumerate() {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap();
            let c = (label as usize).min(1);
            self.total[c] += 1.0;
            if pred == label {
                self.correct[c] += 1.0;
            }
        }
    }

    fn accuracy(&self) -> f64 {
        let total = self.total[0] + self.total[1];
        if total == 0.0 {
            return 0.0;
        }
        (self.correct[0] + self.correct[1]) / total
    }

    fn balanced(&self) -> f64 {
        let mut acc = 0.0;
        let mut classes = 0.0;
        for c in 0..2 {
            if self.total[c] > 0.0 {
                acc += self.correct[c] / self.total[c];
                classes += 1.0;
            }
        }
        if classes == 0.0 {
            0.0
        } else {
            acc / classes
        }
    }
}

/// Per-epoch classification accumulator.
#[derive(Default)]
pub(crate) struct ClsStats {
    loss_sum: f64,
    recalls: Recalls,
}

/// Single-rank vertex classification: the class-weighted loss is realised
/// by evaluating the two classes' vertices as separate sample groups and
/// combining the scalar losses (rare laundering accounts would otherwise
/// be drowned out).
pub(crate) struct SingleRankClassification<'m> {
    model: &'m Model,
    head: &'m ClassificationHead,
    task: &'m Task,
    labels: Vec<Rc<Vec<u32>>>,
    source: TaskSource<'m>,
    class_weights: [f32; 2],
}

impl<'m> SingleRankClassification<'m> {
    pub fn new(
        model: &'m Model,
        head: &'m ClassificationHead,
        task: &'m Task,
        labels: &[Vec<u32>],
    ) -> Self {
        Self {
            model,
            head,
            task,
            labels: labels.iter().map(|l| Rc::new(l.clone())).collect(),
            source: TaskSource::new(task),
            class_weights: [1.0, 1.0],
        }
    }
}

impl<'m> ParallelStrategy<'m> for SingleRankClassification<'m> {
    type Io = ();
    type Stats = ClsStats;
    type EpochOut = ClassEpochStats;

    fn model(&self) -> &'m Model {
        self.model
    }

    fn carry_rows(&self) -> usize {
        self.task.n
    }

    fn forward_block(
        &mut self,
        store: &ParamStore,
        block: Range<usize>,
        carry_in: &CarryState,
    ) -> BlockRun<'m, ()> {
        let mut tape = Tape::new();
        let mut seg = self
            .model
            .bind_segment(&mut tape, store, block.clone(), carry_in);
        let head_vars = self.head.bind(&mut tape, store);
        let feats = dense_layer_walk(&mut tape, &mut seg, self.model, &self.source, &block);

        let mut loss_vars = Vec::with_capacity(block.len());
        let mut logit_vars = Vec::with_capacity(block.len());
        for t in block.clone() {
            let z = feats[t - block.start];
            let lab = Rc::clone(&self.labels[t]);
            let pos_idx: Vec<u32> = (0..lab.len() as u32)
                .filter(|&v| lab[v as usize] == 1)
                .collect();
            let neg_idx: Vec<u32> = (0..lab.len() as u32)
                .filter(|&v| lab[v as usize] == 0)
                .collect();
            // Logits for every vertex (metrics + per-class loss groups).
            let logits = self.head.logits(&mut tape, head_vars, z);
            logit_vars.push(logits);
            let mut parts: Vec<(f32, Var)> = Vec::new();
            if !neg_idx.is_empty() {
                let zg = tape.gather_rows(logits, Rc::new(neg_idx.clone()));
                let l = tape.softmax_cross_entropy(zg, Rc::new(vec![0u32; neg_idx.len()]));
                parts.push((self.class_weights[0], l));
            }
            if !pos_idx.is_empty() {
                let zg = tape.gather_rows(logits, Rc::new(pos_idx.clone()));
                let l = tape.softmax_cross_entropy(zg, Rc::new(vec![1u32; pos_idx.len()]));
                parts.push((self.class_weights[1], l));
            }
            let total_w: f32 = parts.iter().map(|(w, _)| w).sum();
            let terms: Vec<(f32, Var)> = parts.into_iter().map(|(w, v)| (w / total_w, v)).collect();
            loss_vars.push(tape.lin_comb(&terms));
        }
        BlockRun {
            tape,
            seg,
            loss_weights: vec![1.0 / self.task.t as f32; loss_vars.len()],
            loss_vars,
            logit_vars,
            z_vars: feats,
            io: (),
        }
    }

    fn observe_block(
        &mut self,
        run: &BlockRun<'m, ()>,
        block: &Range<usize>,
        stats: &mut ClsStats,
        _last_z: &mut Option<Dense>,
    ) {
        for (i, t) in block.clone().enumerate() {
            stats.loss_sum += f64::from(run.tape.value(run.loss_vars[i]).get(0, 0));
            stats
                .recalls
                .add(run.tape.value(run.logit_vars[i]), &self.labels[t]);
        }
    }

    fn finish_epoch(
        &mut self,
        stats: ClsStats,
        _last_z: Option<Dense>,
        _store: &ParamStore,
    ) -> ClassEpochStats {
        ClassEpochStats {
            loss: stats.loss_sum / self.task.t as f64,
            accuracy: stats.recalls.accuracy(),
            balanced_accuracy: stats.recalls.balanced(),
        }
    }
}
