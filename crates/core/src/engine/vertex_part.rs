//! The row-split strategy (paper §4.1, §6.4, §6.5).
//!
//! Each rank holds a contiguous row block of every snapshot's Laplacian
//! and feature matrix. The temporal component is communication-free (each
//! rank holds its vertices' full timeline); the SpMM requires the
//! irregular neighbor exchange: per timestep, each rank sends exactly the
//! feature rows other ranks' boundary columns reference, using index lists
//! pre-computed at setup (paper §6.4: "the indices are pre-computed").
//!
//! Two layouts bind it (`crate::vertex_dist`): the vertex-partitioning
//! baseline (§4.1) over a hypergraph partition renamed to contiguous
//! parts, and the hybrid's one-group row split (§6.5) over balanced
//! ranges of the original ids.
//!
//! Both sum exactly as the single-rank trainer does. A rank's local
//! columns are numbered by global id, and the exchanged rows are stacked
//! in that same order ([`stack_exchanged`]), so every SpMM row sums in
//! global column order. The reverse exchange adds each own row's gradient
//! contributions in rank order, as `Comm::all_reduce_sum` does.
//!
//! Losses are computed from all-gathered embeddings with each rank owning
//! a slice of the sample set; the gradient all-reduce keeps replicas
//! identical. The scheme faithfully simulates the sequential algorithm, so
//! its convergence matches snapshot partitioning (paper Fig. 6).

use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{ParamStore, Tape, Var};
use dgnn_graph::EdgeSamples;
use dgnn_models::{accuracy, CarryGrads, CarryState, LinkPredHead, Model, ModelKind};
use dgnn_partition::balanced_ranges;
use dgnn_sim::{Comm, CommMark, Payload};
use dgnn_tensor::{Csr, Dense};

use crate::engine::time_part::RankStats;
use crate::engine::{BlockRun, ParallelStrategy};
use crate::metrics::{EpochStats, PhaseBreakdown};
use crate::task::Task;

/// Pre-computed exchange plan for one rank: who needs which of my rows,
/// and which remote rows I need, per timestep.
pub(crate) struct ExchangePlan {
    /// `needed_out[t][q]` = local row indices (within my range) that rank
    /// `q` needs at timestep `t`.
    needed_out: Vec<Vec<Vec<u32>>>,
    /// `needed_in_len[t][q]` = how many rows arrive from rank `q` at `t`.
    needed_in_len: Vec<Vec<usize>>,
    /// Local sparse matrices: my Laplacian rows with columns numbered by
    /// global id over my rows and the remote rows they reference — the
    /// row order of [`stack_exchanged`].
    a_loc: Vec<Rc<Csr>>,
}

/// Builds per-rank ranges from a partition (contiguous after renaming).
pub(crate) fn part_ranges(partition: &[usize], p: usize) -> Vec<Range<usize>> {
    let mut sizes = vec![0usize; p];
    for &q in partition {
        sizes[q] += 1;
    }
    let mut ranges = Vec::with_capacity(p);
    let mut start = 0;
    for q in 0..p {
        ranges.push(start..start + sizes[q]);
        start += sizes[q];
    }
    ranges
}

/// Builds the exchange plan of `rank` from the Laplacians, whose rows
/// `ranges` split into ascending contiguous blocks.
pub(crate) fn build_plan(laps: &[Csr], ranges: &[Range<usize>], rank: usize) -> ExchangePlan {
    let p = ranges.len();
    let my = ranges[rank].clone();
    let owner_of = |v: usize| ranges.iter().position(|r| r.contains(&v)).unwrap();
    let mut needed_out = Vec::with_capacity(laps.len());
    let mut needed_in_len = Vec::with_capacity(laps.len());
    let mut a_loc = Vec::with_capacity(laps.len());
    for lap in laps {
        // Remote columns my rows reference, grouped by owner.
        let mut remote: Vec<Vec<u32>> = vec![Vec::new(); p];
        for r in my.clone() {
            for (c, _) in lap.row_iter(r) {
                let cu = c as usize;
                if !my.contains(&cu) {
                    remote[owner_of(cu)].push(c);
                }
            }
        }
        for q in 0..p {
            remote[q].sort_unstable();
            remote[q].dedup();
        }
        // Column remap in global-id order: lower ranks' remote rows, my
        // rows, then higher ranks' remote rows.
        let mut local: Vec<u32> = Vec::new();
        for q in 0..p {
            if q == rank {
                local.extend(my.clone().map(|v| v as u32));
            } else {
                local.extend(&remote[q]);
            }
        }
        debug_assert!(local.windows(2).all(|w| w[0] < w[1]), "ranges ascend");
        let col_map: HashMap<u32, u32> = local
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let triplets: Vec<(u32, u32, f32)> = my
            .clone()
            .flat_map(|r| {
                lap.row_iter(r)
                    .map(|(c, v)| ((r - my.start) as u32, col_map[&c], v))
                    .collect::<Vec<_>>()
            })
            .collect();
        a_loc.push(Rc::new(Csr::from_coo(my.len(), local.len(), &triplets)));

        // What each peer needs *from me* mirrors what I need from them:
        // computed symmetrically from the full Laplacian.
        let mut out_per_q: Vec<Vec<u32>> = vec![Vec::new(); p];
        for q in 0..p {
            if q == rank {
                continue;
            }
            let qr = ranges[q].clone();
            let mut needed: Vec<u32> = Vec::new();
            for r in qr {
                for (c, _) in lap.row_iter(r) {
                    let cu = c as usize;
                    if my.contains(&cu) {
                        needed.push(c - my.start as u32);
                    }
                }
            }
            needed.sort_unstable();
            needed.dedup();
            out_per_q[q] = needed;
        }
        needed_in_len.push((0..p).map(|q| remote[q].len()).collect());
        needed_out.push(out_per_q);
    }
    ExchangePlan {
        needed_out,
        needed_in_len,
        a_loc,
    }
}

/// Stacks my rows with the rows received from every peer in rank order —
/// `parts[q]` from rank `q`, `own` in my slot — which is the column order
/// of [`ExchangePlan`]'s local Laplacians.
fn stack_exchanged(own: &Dense, parts: &[Dense], rank: usize) -> Dense {
    let rows: Vec<&Dense> = parts
        .iter()
        .enumerate()
        .map(|(q, part)| if q == rank { own } else { part })
        .collect();
    Dense::vstack(&rows)
}

/// Per-layer bookkeeping for the staged backward.
pub(crate) struct VLayerIo {
    /// Stacked SpMM input per timestep: a constant at layer 0, a leaf
    /// whose gradient the reverse exchange returns to its owners above.
    x_in: Vec<Var>,
    /// Temporal outputs per timestep (own rows).
    z_out: Vec<Var>,
}

/// Per-block artifacts beyond the common [`BlockRun`] fields. The common
/// `z_vars` hold the all-gathered full embeddings per block timestep.
pub(crate) struct VertexIo {
    layers_io: Vec<VLayerIo>,
    /// Sample slices this rank computed losses for.
    sample_slices: Vec<EdgeSamples>,
}

/// The row-split layout over `p` rank threads.
pub(crate) struct VertexPartitioned<'m, 'c> {
    comm: &'c mut Comm,
    model: &'m Model,
    head: &'m LinkPredHead,
    /// The task in the layout's vertex space.
    task: &'m Task,
    ranges: &'m [Range<usize>],
    plan: &'m ExchangePlan,
    epoch_mark: Option<CommMark>,
}

impl<'m, 'c> VertexPartitioned<'m, 'c> {
    pub fn new(
        comm: &'c mut Comm,
        model: &'m Model,
        head: &'m LinkPredHead,
        task: &'m Task,
        ranges: &'m [Range<usize>],
        plan: &'m ExchangePlan,
    ) -> Self {
        Self {
            comm,
            model,
            head,
            task,
            ranges,
            plan,
            epoch_mark: None,
        }
    }
}

impl<'m> ParallelStrategy<'m> for VertexPartitioned<'m, '_> {
    type Io = VertexIo;
    type Stats = RankStats;
    type EpochOut = EpochStats;

    fn model(&self) -> &'m Model {
        self.model
    }

    fn carry_rows(&self) -> usize {
        match self.model.kind() {
            ModelKind::EvolveGcn => self.task.n,
            _ => self.ranges[self.comm.rank()].len(),
        }
    }

    fn begin_epoch(&mut self) {
        self.epoch_mark = Some(self.comm.mark());
    }

    fn forward_block(
        &mut self,
        store: &ParamStore,
        block: Range<usize>,
        carry_in: &CarryState,
    ) -> BlockRun<'m, VertexIo> {
        let comm = &mut *self.comm;
        let (task, plan) = (self.task, self.plan);
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let my = self.ranges[rank].clone();

        let mut tape = Tape::new();
        let mut seg = self
            .model
            .bind_segment(&mut tape, store, block.clone(), carry_in);
        let head_vars = self.head.bind(&mut tape, store);

        // Layer-0 inputs: my feature rows, per block timestep.
        let mut x_vals: Vec<Dense> = block
            .clone()
            .map(|t| task.features[t].row_block(my.start, my.len()))
            .collect();
        let mut prev_z: Vec<Var> = Vec::new();

        let mut layers_io: Vec<VLayerIo> = Vec::with_capacity(cfg.layers());
        for layer in 0..cfg.layers() {
            let mut x_in = Vec::with_capacity(block.len());
            let mut spatial: Vec<Var> = Vec::with_capacity(block.len());
            for (i, t) in block.clone().enumerate() {
                // Send each peer the rows it references; stack what arrives.
                let sends = (0..p)
                    .map(|q| x_vals[i].gather_rows(&plan.needed_out[t][q]))
                    .collect();
                let parts = comm.all_to_all_dense(sends);
                let stacked = stack_exchanged(&x_vals[i], &parts, rank);
                let x = if layer == 0 {
                    tape.constant(stacked)
                } else {
                    tape.input(stacked)
                };
                x_in.push(x);
                let a = Rc::clone(&plan.a_loc[t]);
                debug_assert_eq!(a.cols(), tape.value(x).rows());
                spatial.push(seg.spatial_rows(&mut tape, layer, t, a, x));
            }
            let z_out = seg.temporal(&mut tape, layer, 0, &spatial);
            x_vals = z_out.iter().map(|&v| tape.value(v).clone()).collect();
            prev_z = z_out.clone();
            layers_io.push(VLayerIo { x_in, z_out });
        }

        // Losses: all-gather full embeddings, each rank scores its slice.
        let mut z_full = Vec::with_capacity(block.len());
        let mut loss_vars = Vec::with_capacity(block.len());
        let mut logit_vars = Vec::with_capacity(block.len());
        let mut sample_slices = Vec::with_capacity(block.len());
        for (i, t) in block.clone().enumerate() {
            let gathered = comm.all_gather(Payload::Dense(tape.value(prev_z[i]).clone()));
            let parts: Vec<Dense> = gathered
                .into_iter()
                .map(|pl| match pl {
                    Payload::Dense(d) => d,
                    other => panic!("expected dense, got {other:?}"),
                })
                .collect();
            let full = Dense::vstack(&parts.iter().collect::<Vec<_>>());
            let zf = tape.input(full);
            z_full.push(zf);
            let slice_range = balanced_ranges(task.train[t].len(), p)[rank].clone();
            let slice = task.train[t].slice(slice_range);
            let logits = self.head.logits(&mut tape, head_vars, zf, &slice);
            let loss = tape.softmax_cross_entropy(logits, Rc::new(slice.labels.clone()));
            logit_vars.push(logits);
            loss_vars.push(loss);
            sample_slices.push(slice);
        }
        BlockRun {
            tape,
            seg,
            loss_vars,
            logit_vars,
            z_vars: z_full,
            io: VertexIo {
                layers_io,
                sample_slices,
            },
        }
    }

    fn backward_block(
        &mut self,
        run: &mut BlockRun<'m, VertexIo>,
        block: &Range<usize>,
        carry_grads: Option<&CarryGrads>,
    ) {
        let comm = &mut *self.comm;
        let (task, plan) = (self.task, self.plan);
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let my = self.ranges[rank].clone();

        // Stage 0: loss seeds. The global per-timestep loss is the mean
        // over all samples; this rank computed the mean over its slice, so
        // its seed is weighted by slice/total.
        let seeds: Vec<(Var, Dense)> = run
            .loss_vars
            .iter()
            .enumerate()
            .map(|(i, &lv)| {
                let t = block.start + i;
                let w = run.io.sample_slices[i].len() as f32
                    / task.train[t].len().max(1) as f32
                    / task.t as f32;
                (lv, Dense::full(1, 1, w))
            })
            .collect();
        run.tape.backward(&seeds);

        // Sum the full-embedding gradients across ranks, then per-layer
        // sweeps.
        let mut dz_rows: Vec<Dense> = Vec::with_capacity(block.len());
        for zf in &run.z_vars {
            let mut dz = match run.tape.grad(*zf) {
                Some(g) => g.clone(),
                None => {
                    let (r, c) = run.tape.value(*zf).shape();
                    Dense::zeros(r, c)
                }
            };
            let mut flat = dz.data().to_vec();
            comm.all_reduce_sum(&mut flat);
            dz.data_mut().copy_from_slice(&flat);
            dz_rows.push(dz.row_block(my.start, my.len()));
        }

        for layer in (0..cfg.layers()).rev() {
            // Temporal+spatial sweep of this layer.
            let mut seeds: Vec<(Var, Dense)> = Vec::new();
            for (i, _t) in block.clone().enumerate() {
                seeds.push((run.io.layers_io[layer].z_out[i], dz_rows[i].clone()));
            }
            if let Some(cg) = carry_grads {
                seeds.extend(run.seg.carry_out_seeds_layer(cg, layer));
            }
            run.tape.backward(&seeds);

            // Reverse neighbor exchange (layer 0's inputs are constants):
            // each peer gets back the gradient of the rows it sent, and my
            // rows' contributions are summed in rank order into the layer
            // below's seeds.
            if layer == 0 {
                continue;
            }
            for (i, t) in block.clone().enumerate() {
                let g = run
                    .tape
                    .grad(run.io.layers_io[layer].x_in[i])
                    .expect("stacked rows feed the SpMM");
                let mut offset = 0;
                let mut sections: Vec<Dense> = (0..p)
                    .map(|q| {
                        let len = if q == rank {
                            my.len()
                        } else {
                            plan.needed_in_len[t][q]
                        };
                        offset += len;
                        g.row_block(offset - len, len)
                    })
                    .collect();
                let own = std::mem::replace(&mut sections[rank], Dense::zeros(0, g.cols()));
                let recv = comm.all_to_all_dense(sections);
                let mut dx = Dense::zeros(my.len(), own.cols());
                for (q, d) in recv.iter().enumerate() {
                    if q == rank {
                        dx.add_assign(&own);
                    } else {
                        dx.scatter_add_rows(&plan.needed_out[t][q], d);
                    }
                }
                dz_rows[i] = dx;
            }
        }
    }

    fn observe_block(
        &mut self,
        run: &BlockRun<'m, VertexIo>,
        block: &Range<usize>,
        stats: &mut RankStats,
        last_z: &mut Option<Dense>,
    ) {
        for (i, t) in block.clone().enumerate() {
            let w = run.io.sample_slices[i].len() as f64 / self.task.train[t].len().max(1) as f64;
            stats.loss_sum += f64::from(run.tape.value(run.loss_vars[i]).get(0, 0)) * w;
            let logits = run.tape.value(run.logit_vars[i]);
            let acc = accuracy(logits, &run.io.sample_slices[i].labels);
            stats.correct += acc * run.io.sample_slices[i].len() as f64;
            stats.total += run.io.sample_slices[i].len() as f64;
        }
        if block.end == self.task.t {
            *last_z = Some(run.tape.value(*run.z_vars.last().unwrap()).clone());
        }
    }

    fn reduce_grads(&mut self, store: &mut ParamStore) {
        let mut flat = store.grads_flat();
        self.comm.all_reduce_sum(&mut flat);
        store.set_grads_from_flat(&flat);
    }

    fn finish_epoch(
        &mut self,
        stats: RankStats,
        last_z: Option<Dense>,
        store: &ParamStore,
    ) -> EpochStats {
        let mut agg = [
            stats.loss_sum as f32,
            stats.correct as f32,
            stats.total as f32,
            0.0,
            0.0,
        ];
        if self.comm.rank() == 0 {
            let z = last_z.as_ref().expect("rank 0 sees the last block");
            let logits = self.head.predict(store, z, &self.task.test);
            let acc = accuracy(&logits, &self.task.test.labels);
            agg[3] = (acc * self.task.test.labels.len() as f64) as f32;
            agg[4] = self.task.test.labels.len() as f32;
        }
        self.comm.all_reduce_sum(&mut agg);
        let mark = self.epoch_mark.expect("begin_epoch sets the mark");
        EpochStats {
            loss: f64::from(agg[0]) / self.task.t as f64,
            train_acc: f64::from(agg[1]) / f64::from(agg[2]).max(1.0),
            test_acc: f64::from(agg[3]) / f64::from(agg[4]).max(1.0),
            transfer_naive_bytes: 0,
            transfer_gd_bytes: 0,
            comm_bytes: self.comm.bytes_since(mark),
            store_miss_bytes: 0,
            phase: PhaseBreakdown::default(),
        }
    }

    fn attach_phase(&mut self, out: &mut EpochStats, phase: PhaseBreakdown) {
        out.phase = phase;
        let mark = self.epoch_mark.expect("begin_epoch sets the mark");
        out.phase.comm_us = self.comm.busy_us_since(mark);
        out.phase.comm_wait_us = self.comm.wait_us_since(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{prepare_task, TaskOptions};
    use dgnn_graph::gen::churn;
    use dgnn_models::ModelConfig;
    use dgnn_partition::{contiguous_renaming, partition, Hypergraph, PartitionerConfig};

    /// Each rank's SpMM over its stacked rows bit-equals its rows of the
    /// single-rank SpMM on the same graph.
    fn assert_rank_spmm_is_single_rank(laps: &[Csr], ranges: &[Range<usize>], what: &str) {
        let p = ranges.len();
        let n = laps[0].rows();
        let plans: Vec<ExchangePlan> = (0..p).map(|r| build_plan(laps, ranges, r)).collect();
        let x_full = Dense::from_fn(n, 3, |r, c| ((r * 7 + c * 5) % 11) as f32 * 0.37 - 1.3);
        let blocks: Vec<Dense> = ranges
            .iter()
            .map(|r| x_full.row_block(r.start, r.len()))
            .collect();
        for (t, lap) in laps.iter().enumerate() {
            for (rank, my) in ranges.iter().enumerate() {
                // What every peer sends this rank.
                let parts: Vec<Dense> = (0..p)
                    .map(|q| blocks[q].gather_rows(&plans[q].needed_out[t][rank]))
                    .collect();
                let stacked = stack_exchanged(&blocks[rank], &parts, rank);
                let got = plans[rank].a_loc[t].spmm(&stacked);
                let want = lap.row_block(my.start, my.len()).spmm(&x_full);
                let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{what}: p = {p}, rank {rank}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn rank_spmm_bit_equals_single_rank_spmm() {
        let g = churn(24, 6, 100, 0.3, 5);
        let raw = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let cfg = ModelConfig {
            kind: ModelKind::TmGcn,
            input_f: 2,
            hidden: 4,
            mprod_window: 3,
            smoothing_window: 3,
        };
        let opts = TaskOptions {
            precompute_first_layer: false,
            ..Default::default()
        };
        let task = prepare_task(&raw, &next, &cfg, &opts);
        for p in [2, 3] {
            assert_rank_spmm_is_single_rank(&task.laps, &balanced_ranges(task.n, p), "balanced");

            let part = partition(
                &Hypergraph::column_net_model(&task.graph),
                &PartitionerConfig::new(p),
            );
            let (perm, _) = contiguous_renaming(&part, p);
            let renamed = prepare_task(&raw.relabel(&perm), &next.relabel(&perm), &cfg, &opts);
            assert_rank_spmm_is_single_rank(&renamed.laps, &part_ranges(&part, p), "hypergraph");
        }
    }
}
