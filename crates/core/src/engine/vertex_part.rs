//! The vertex-partitioned (hypergraph) strategy (paper §4.1, §6.4).
//!
//! Vertices are partitioned by the hypergraph partitioner, renamed so
//! every part is contiguous, and each rank stores its rows of every
//! snapshot's Laplacian and feature matrix. The temporal component is
//! communication-free (each rank holds its vertices' full timeline); the
//! SpMM requires the irregular neighbor exchange: per timestep, each rank
//! sends exactly the feature rows other ranks' boundary columns reference,
//! using index lists pre-computed at setup (paper §6.4: "the indices are
//! pre-computed").
//!
//! Losses are computed from all-gathered embeddings with each rank owning
//! a slice of the sample set; the gradient all-reduce keeps replicas
//! identical. The scheme faithfully simulates the sequential algorithm, so
//! its convergence matches snapshot partitioning (paper Fig. 6).

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
    /// `needed_in[t][q]` = how many rows arrive from rank `q` at `t`.
    needed_in_len: Vec<Vec<usize>>,
    /// Local sparse matrices: my Laplacian rows with columns remapped to
    /// `[own rows | remote rows in (q, position) order]`.
    a_loc: Vec<Csr>,
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

/// Builds the exchange plan of `rank` from the renamed Laplacians.
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
        // Column remap: own rows first, then remote in (q, position) order.
        let mut col_map = std::collections::HashMap::new();
        for (i, v) in my.clone().enumerate() {
            col_map.insert(v as u32, i as u32);
        }
        let mut next = my.len() as u32;
        for q in 0..p {
            for &v in &remote[q] {
                col_map.insert(v, next);
                next += 1;
            }
        }
        let triplets: Vec<(u32, u32, f32)> = my
            .clone()
            .flat_map(|r| {
                lap.row_iter(r)
                    .map(|(c, v)| ((r - my.start) as u32, col_map[&c], v))
                    .collect::<Vec<_>>()
            })
            .collect();
        a_loc.push(Csr::from_coo(my.len(), next as usize, &triplets));

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

/// One rank's renamed-space context: ranges, exchange plan, features and
/// (relabelled) samples.
pub(crate) struct VertexRankCtx {
    pub ranges: Vec<Range<usize>>,
    pub plan: ExchangePlan,
    /// Renamed feature rows are sliced per rank from the full matrices.
    pub features: Vec<Dense>,
    pub train: Vec<EdgeSamples>,
    pub test: EdgeSamples,
}

/// Per-layer bookkeeping for the staged backward.
pub(crate) struct VLayerIo {
    /// Gather-send variables per timestep per destination rank.
    gather_send: Vec<Vec<Option<Var>>>,
    /// Remote-rows input leaf per timestep.
    x_remote: Vec<Option<Var>>,
    /// Own-rows input leaf per timestep (`None` at layer 0: constants).
    x_own: Vec<Option<Var>>,
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

/// The hypergraph vertex-partitioned layout over `p` rank threads.
pub(crate) struct VertexPartitioned<'m, 'c> {
    comm: &'c mut Comm,
    model: &'m Model,
    head: &'m LinkPredHead,
    ctx: &'m VertexRankCtx,
    /// The renamed-space task (Laplacians/features; samples come from ctx).
    task: &'m Task,
    epoch_mark: Option<CommMark>,
}

impl<'m, 'c> VertexPartitioned<'m, 'c> {
    pub fn new(
        comm: &'c mut Comm,
        model: &'m Model,
        head: &'m LinkPredHead,
        ctx: &'m VertexRankCtx,
        task: &'m Task,
    ) -> Self {
        Self {
            comm,
            model,
            head,
            ctx,
            task,
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
            _ => self.ctx.ranges[self.comm.rank()].len(),
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
        let ctx = self.ctx;
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let my = ctx.ranges[rank].clone();

        let mut tape = Tape::new();
        let mut seg = self
            .model
            .bind_segment(&mut tape, store, block.clone(), carry_in);
        let head_vars = self.head.bind(&mut tape, store);

        // Layer-0 inputs: my feature rows, per block timestep.
        let mut x_vals: Vec<Dense> = block
            .clone()
            .map(|t| ctx.features[t].row_block(my.start, my.len()))
            .collect();
        let mut prev_z: Vec<Var> = Vec::new();

        let mut layers_io: Vec<VLayerIo> = Vec::with_capacity(cfg.layers());
        for layer in 0..cfg.layers() {
            let mut io = VLayerIo {
                gather_send: Vec::new(),
                x_remote: Vec::new(),
                x_own: Vec::new(),
                z_out: Vec::new(),
            };
            let mut spatial: Vec<Var> = Vec::with_capacity(block.len());
            for (i, t) in block.clone().enumerate() {
                // Own rows enter as a leaf (layer > 0) or a constant (layer 0).
                let x_own = if layer == 0 {
                    let v = tape.constant(x_vals[i].clone());
                    io.x_own.push(None);
                    v
                } else {
                    let v = tape.input(x_vals[i].clone());
                    io.x_own.push(Some(v));
                    v
                };
                // Send the rows peers need; gather through the tape so
                // reverse grads flow into this layer's input.
                let mut sends: Vec<Option<Var>> = vec![None; p];
                let mut payloads: Vec<Payload> = Vec::with_capacity(p);
                for q in 0..p {
                    if q == rank || ctx.plan.needed_out[t][q].is_empty() {
                        payloads.push(Payload::Dense(Dense::zeros(0, tape.value(x_own).cols())));
                        continue;
                    }
                    let idx = Rc::new(ctx.plan.needed_out[t][q].clone());
                    let g = tape.gather_rows(x_own, idx);
                    sends[q] = Some(g);
                    payloads.push(Payload::Dense(tape.value(g).clone()));
                }
                let recv = comm.all_to_all(payloads);
                // Assemble remote rows in (q, position) order.
                let mut remote_parts: Vec<Dense> = Vec::new();
                for (q, payload) in recv.into_iter().enumerate() {
                    if q == rank {
                        continue;
                    }
                    let Payload::Dense(d) = payload else {
                        panic!("expected dense")
                    };
                    debug_assert_eq!(d.rows(), ctx.plan.needed_in_len[t][q]);
                    if d.rows() > 0 {
                        remote_parts.push(d);
                    }
                }
                let x_remote = if remote_parts.is_empty() {
                    io.x_remote.push(None);
                    None
                } else {
                    let stacked = Dense::vstack(&remote_parts.iter().collect::<Vec<_>>());
                    let v = tape.input(stacked);
                    io.x_remote.push(Some(v));
                    Some(v)
                };
                io.gather_send.push(sends);

                let x_stacked = match x_remote {
                    Some(r) => tape.concat_rows(&[x_own, r]),
                    None => x_own,
                };
                // Pad columns: a_loc expects own+remote columns even if none
                // arrived this timestep (then a_loc has no remote columns).
                let a = Rc::new(ctx.plan.a_loc[t].clone());
                debug_assert_eq!(a.cols(), tape.value(x_stacked).rows());
                spatial.push(seg.spatial_rows(&mut tape, layer, t, a, x_stacked));
            }
            let z_out = seg.temporal(&mut tape, layer, 0, &spatial);
            x_vals = z_out.iter().map(|&v| tape.value(v).clone()).collect();
            io.z_out = z_out.clone();
            prev_z = z_out;
            layers_io.push(io);
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
            let slice_range = balanced_ranges(ctx.train[t].len(), p)[rank].clone();
            let slice = ctx.train[t].slice(slice_range);
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
        let ctx = self.ctx;
        let t_total = self.task.t;
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let my = ctx.ranges[rank].clone();

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
                    / ctx.train[t].len().max(1) as f32
                    / t_total as f32;
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
            // Stage A: temporal+spatial sweep of this layer.
            let mut seeds: Vec<(Var, Dense)> = Vec::new();
            for (i, _t) in block.clone().enumerate() {
                seeds.push((run.io.layers_io[layer].z_out[i], dz_rows[i].clone()));
            }
            if let Some(cg) = carry_grads {
                seeds.extend(run.seg.carry_out_seeds_layer(cg, layer));
            }
            run.tape.backward(&seeds);

            // Stage B: reverse neighbor exchange — remote-row grads back to
            // their owners, seeding the gather-send variables.
            let mut gather_seeds: Vec<(Var, Dense)> = Vec::new();
            for (i, t) in block.clone().enumerate() {
                let io = &run.io.layers_io[layer];
                // Split my x_remote grad back into per-source sections.
                let width = dz_rows[i].cols().max(cfg.gcn_in(layer));
                let mut sections: Vec<Dense> = vec![Dense::zeros(0, width); p];
                if let Some(xr) = io.x_remote[i] {
                    let g = run
                        .tape
                        .grad(xr)
                        .expect("remote rows must receive a gradient")
                        .clone();
                    let mut offset = 0;
                    for (q, section) in sections.iter_mut().enumerate() {
                        let len = ctx.plan.needed_in_len[t][q];
                        if len > 0 {
                            *section = g.row_block(offset, len);
                            offset += len;
                        }
                    }
                }
                let payloads: Vec<Payload> = sections.into_iter().map(Payload::Dense).collect();
                let recv = comm.all_to_all(payloads);
                for (q, payload) in recv.into_iter().enumerate() {
                    if q == rank {
                        continue;
                    }
                    let Payload::Dense(d) = payload else {
                        panic!("expected dense")
                    };
                    if d.rows() > 0 {
                        let g_var = run.io.layers_io[layer].gather_send[i][q]
                            .expect("sent rows must have a gather var");
                        gather_seeds.push((g_var, d));
                    }
                }
            }
            if !gather_seeds.is_empty() {
                run.tape.backward(&gather_seeds);
            }

            // Propagate to the layer below: own-leaf grads become its dz.
            if layer > 0 {
                for (i, _) in block.clone().enumerate() {
                    let x_own = run.io.layers_io[layer].x_own[i].expect("layer > 0 has a leaf");
                    dz_rows[i] = match run.tape.grad(x_own) {
                        Some(g) => g.clone(),
                        None => {
                            let (r, c) = run.tape.value(x_own).shape();
                            Dense::zeros(r, c)
                        }
                    };
                }
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
            let w = run.io.sample_slices[i].len() as f64 / self.ctx.train[t].len().max(1) as f64;
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
            let logits = self.head.predict(store, z, &self.ctx.test);
            let acc = accuracy(&logits, &self.ctx.test.labels);
            agg[3] = (acc * self.ctx.test.labels.len() as f64) as f32;
            agg[4] = self.ctx.test.labels.len() as f32;
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
