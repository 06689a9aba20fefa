//! What a block run trains for: link prediction (paper §6.4) or vertex
//! classification (§2.2). An [`Objective`] binds its head onto each block
//! tape, turns a timestep's final embeddings into a loss variable and its
//! weight in the epoch loss, and folds the forward values into the epoch's
//! [`Tally`].

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{ParamStore, Tape, Var};
use dgnn_models::head::{ClassificationVars, LinkPredVars};
use dgnn_models::{accuracy, ClassificationHead, LinkPredHead};
use dgnn_tensor::Dense;

use crate::task::Task;

/// The training objective of an engine run.
pub(crate) enum Objective<'a> {
    /// Link prediction on the task's per-timestep samples; the test set is
    /// scored on the last timestep's embeddings.
    Link(&'a LinkPredHead),
    /// Classification of every vertex against `labels[t][v]` (0 or 1). The
    /// classes present at a timestep are evaluated as separate sample
    /// groups whose mean losses weigh equally, so rare positives
    /// (laundering accounts) are not drowned out.
    Classify {
        head: &'a ClassificationHead,
        labels: Vec<Rc<Vec<u32>>>,
    },
}

/// An objective's head variables on one tape.
#[derive(Clone, Copy)]
pub(crate) enum HeadVars {
    Link(LinkPredVars),
    Classify(ClassificationVars),
}

/// A timestep this rank scored on a block tape: its loss variable and
/// weight in the epoch loss (the backward seed), its logits, and its
/// final-layer embeddings (all-gathered on the row split).
pub(crate) struct Scored {
    pub t: usize,
    pub loss: Var,
    pub weight: f32,
    pub logits: Var,
    pub z: Var,
}

/// Per-epoch loss sum and accuracy counters. Classification counts per
/// true class; link prediction counts into class 0.
#[derive(Default)]
pub(crate) struct Tally {
    pub loss_sum: f64,
    pub correct: [f64; 2],
    pub total: [f64; 2],
}

impl Tally {
    /// Correct predictions and samples, over every class.
    pub fn counts(&self) -> (f64, f64) {
        (
            self.correct[0] + self.correct[1],
            self.total[0] + self.total[1],
        )
    }

    /// Plain accuracy over every counted sample.
    pub fn accuracy(&self) -> f64 {
        let (hits, n) = self.counts();
        hits / n.max(1.0)
    }

    /// Balanced accuracy: the mean recall of the classes present.
    pub fn balanced(&self) -> f64 {
        let (mut recalls, mut classes) = (0.0, 0.0);
        for c in (0..2).filter(|&c| self.total[c] > 0.0) {
            recalls += self.correct[c] / self.total[c];
            classes += 1.0;
        }
        if classes == 0.0 {
            0.0
        } else {
            recalls / classes
        }
    }
}

impl Objective<'_> {
    /// Binds the head onto a block tape.
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> HeadVars {
        match self {
            Objective::Link(head) => HeadVars::Link(head.bind(tape, store)),
            Objective::Classify { head, .. } => HeadVars::Classify(head.bind(tape, store)),
        }
    }

    /// Scores timestep `t` from its final embeddings `z`. A rank scoring
    /// the sample `slice` weighs its slice mean by its share of the
    /// samples.
    pub fn loss(
        &self,
        tape: &mut Tape,
        vars: HeadVars,
        task: &Task,
        t: usize,
        z: Var,
        slice: Option<Range<usize>>,
    ) -> Scored {
        let per_step = 1.0 / task.t as f32;
        let (loss, logits, weight) = match (self, vars) {
            (Objective::Link(head), HeadVars::Link(vars)) => {
                let all = &task.train[t];
                let sliced = slice.map(|r| all.slice(r));
                let samples = sliced.as_ref().unwrap_or(all);
                let logits = head.logits(tape, vars, z, samples);
                let loss = tape.softmax_cross_entropy(logits, Rc::new(samples.labels.clone()));
                let weight = match &sliced {
                    Some(s) => s.len() as f32 / all.len().max(1) as f32 / task.t as f32,
                    None => per_step,
                };
                (loss, logits, weight)
            }
            (Objective::Classify { head, labels }, HeadVars::Classify(vars)) => {
                let logits = head.logits(tape, vars, z);
                let parts: Vec<Var> = [0u32, 1]
                    .into_iter()
                    .filter_map(|class| {
                        let idx: Vec<u32> = (0..labels[t].len() as u32)
                            .filter(|&v| labels[t][v as usize] == class)
                            .collect();
                        if idx.is_empty() {
                            return None;
                        }
                        let targets = Rc::new(vec![class; idx.len()]);
                        let group = tape.gather_rows(logits, Rc::new(idx));
                        Some(tape.softmax_cross_entropy(group, targets))
                    })
                    .collect();
                let w = 1.0 / parts.len() as f32;
                let terms: Vec<(f32, Var)> = parts.into_iter().map(|l| (w, l)).collect();
                (tape.lin_comb(&terms), logits, per_step)
            }
            _ => unreachable!("head variables of another objective"),
        };
        Scored {
            t,
            loss,
            weight,
            logits,
            z,
        }
    }

    /// Folds timestep `t`'s forward loss and logits into `tally`. `round`
    /// counts whole correct samples (one rank); ranks sum fractional counts
    /// in the stats all-reduce.
    #[allow(clippy::too_many_arguments)]
    pub fn observe(
        &self,
        tally: &mut Tally,
        task: &Task,
        t: usize,
        loss: f32,
        logits: &Dense,
        slice: Option<Range<usize>>,
        round: bool,
    ) {
        let loss = f64::from(loss);
        match self {
            Objective::Link(_) => {
                let all = &task.train[t];
                let labels = &all.labels[slice.clone().unwrap_or(0..all.len())];
                tally.loss_sum += match slice {
                    Some(_) => loss * (labels.len() as f64 / all.len().max(1) as f64),
                    None => loss,
                };
                let hits = accuracy(logits, labels) * labels.len() as f64;
                tally.correct[0] += if round { hits.round() } else { hits };
                tally.total[0] += labels.len() as f64;
            }
            Objective::Classify { labels, .. } => {
                tally.loss_sum += loss;
                for (r, &label) in labels[t].iter().enumerate() {
                    let row = logits.row(r);
                    let pred = (0..row.len())
                        .max_by(|&a, &b| row[a].partial_cmp(&row[b]).expect("finite logits"))
                        .expect("a logit per class");
                    let c = (label as usize).min(1);
                    tally.total[c] += 1.0;
                    if pred == label as usize {
                        tally.correct[c] += 1.0;
                    }
                }
            }
        }
    }

    /// Held-out accuracy and sample count on the last timestep's
    /// embeddings `z`; `None` for an objective without a test set.
    pub fn test(&self, store: &ParamStore, task: &Task, z: &Dense) -> Option<(f64, usize)> {
        let Objective::Link(head) = self else {
            return None;
        };
        let logits = head.predict(store, z, &task.test);
        Some((accuracy(&logits, &task.test.labels), task.test.labels.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_pools_classes_and_balances_the_present_ones() {
        assert_eq!(Tally::default().accuracy(), 0.0);
        assert_eq!(Tally::default().balanced(), 0.0);
        // Link prediction counts into class 0 only.
        let link = Tally {
            correct: [3.0, 0.0],
            total: [4.0, 0.0],
            ..Tally::default()
        };
        assert_eq!((link.accuracy(), link.balanced()), (0.75, 0.75));
        // Nine of ten negatives right, one of two positives right.
        let cls = Tally {
            correct: [9.0, 1.0],
            total: [10.0, 2.0],
            ..Tally::default()
        };
        assert_eq!(cls.accuracy(), 10.0 / 12.0);
        assert_eq!(cls.balanced(), (0.9 + 0.5) / 2.0);
    }
}
