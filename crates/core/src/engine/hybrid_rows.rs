//! The hybrid strategy (paper §6.5): individual snapshots too large for
//! one GPU are split row-wise among the members of a processor group. This
//! implements the paper's exploratory experiment — one group whose members
//! share *every* snapshot — which trained AMLSim-Large-1/2 on two GPUs.
//!
//! Each member holds a row block of every Laplacian and feature matrix.
//! The SpMM needs the full feature matrix, obtained by an all-gather of
//! row blocks; the temporal component runs locally on the member's rows.
//! As with the other schemes, the execution faithfully simulates the
//! sequential algorithm.

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{ParamStore, Tape, Var};
use dgnn_graph::EdgeSamples;
use dgnn_models::{accuracy, CarryGrads, CarryState, LinkPredHead, Model, ModelKind};
use dgnn_partition::balanced_ranges;
use dgnn_sim::{Comm, CommMark, Payload};
use dgnn_tensor::{Csr, Dense};

use crate::engine::{BlockRun, ParallelStrategy};
use crate::metrics::{EpochStats, PhaseBreakdown};
use crate::task::Task;

pub(crate) struct HLayerIo {
    /// Per timestep: the P row-block leaves composing the stacked input
    /// (`None` entries at layer 0, where inputs are constants).
    x_slots: Vec<Vec<Option<Var>>>,
    /// Temporal outputs per timestep (my rows).
    z_out: Vec<Var>,
}

/// Per-block artifacts beyond the common [`BlockRun`] fields. The common
/// `z_vars` hold the all-gathered full embeddings per block timestep.
pub(crate) struct HybridIo {
    layers_io: Vec<HLayerIo>,
    sample_slices: Vec<EdgeSamples>,
}

fn gather_dense(comm: &mut Comm, mine: Dense) -> Vec<Dense> {
    comm.all_gather(Payload::Dense(mine))
        .into_iter()
        .map(|p| match p {
            Payload::Dense(d) => d,
            other => panic!("expected dense, got {other:?}"),
        })
        .collect()
}

/// The hybrid row-splitting layout over one group of `p` ranks.
pub(crate) struct HybridRows<'m, 'c> {
    comm: &'c mut Comm,
    model: &'m Model,
    head: &'m LinkPredHead,
    task: &'m Task,
    /// My row blocks of every Laplacian.
    a_rows: &'m [Csr],
    epoch_mark: Option<CommMark>,
}

/// Per-epoch accumulator: slice-weighted losses and counts.
pub(crate) use crate::engine::time_part::RankStats;

impl<'m, 'c> HybridRows<'m, 'c> {
    pub fn new(
        comm: &'c mut Comm,
        model: &'m Model,
        head: &'m LinkPredHead,
        task: &'m Task,
        a_rows: &'m [Csr],
    ) -> Self {
        Self {
            comm,
            model,
            head,
            task,
            a_rows,
            epoch_mark: None,
        }
    }
}

impl<'m> ParallelStrategy<'m> for HybridRows<'m, '_> {
    type Io = HybridIo;
    type Stats = RankStats;
    type EpochOut = EpochStats;

    fn model(&self) -> &'m Model {
        self.model
    }

    fn carry_rows(&self) -> usize {
        match self.model.kind() {
            ModelKind::EvolveGcn => self.task.n,
            _ => balanced_ranges(self.task.n, self.comm.world())[self.comm.rank()].len(),
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
    ) -> BlockRun<'m, HybridIo> {
        let comm = &mut *self.comm;
        let task = self.task;
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let rows = balanced_ranges(task.n, p);
        let my = rows[rank].clone();

        let mut tape = Tape::new();
        let mut seg = self
            .model
            .bind_segment(&mut tape, store, block.clone(), carry_in);
        let head_vars = self.head.bind(&mut tape, store);

        // My feature rows per block timestep.
        let mut x_vals: Vec<Dense> = block
            .clone()
            .map(|t| task.features[t].row_block(my.start, my.len()))
            .collect();

        let mut layers_io: Vec<HLayerIo> = Vec::with_capacity(cfg.layers());
        let mut prev_z: Vec<Var> = Vec::new();
        for layer in 0..cfg.layers() {
            let mut io = HLayerIo {
                x_slots: Vec::new(),
                z_out: Vec::new(),
            };
            let mut spatial = Vec::with_capacity(block.len());
            for (i, t) in block.clone().enumerate() {
                // All-gather the row blocks of this layer's input.
                let parts = gather_dense(comm, x_vals[i].clone());
                let mut slots: Vec<Option<Var>> = Vec::with_capacity(p);
                let mut slot_vars: Vec<Var> = Vec::with_capacity(p);
                for part in parts {
                    let v = if layer == 0 {
                        slots.push(None);
                        tape.constant(part)
                    } else {
                        let v = tape.input(part);
                        slots.push(Some(v));
                        v
                    };
                    slot_vars.push(v);
                }
                io.x_slots.push(slots);
                let x_full = tape.concat_rows(&slot_vars);
                spatial.push(seg.spatial_rows(
                    &mut tape,
                    layer,
                    t,
                    Rc::new(self.a_rows[t].clone()),
                    x_full,
                ));
            }
            let z_out = seg.temporal(&mut tape, layer, 0, &spatial);
            x_vals = z_out.iter().map(|&v| tape.value(v).clone()).collect();
            io.z_out = z_out.clone();
            prev_z = z_out;
            layers_io.push(io);
        }

        // Losses from all-gathered embeddings; my slice of each sample set.
        let mut z_full = Vec::with_capacity(block.len());
        let mut loss_vars = Vec::with_capacity(block.len());
        let mut logit_vars = Vec::with_capacity(block.len());
        let mut sample_slices = Vec::with_capacity(block.len());
        for (i, t) in block.clone().enumerate() {
            let parts = gather_dense(comm, tape.value(prev_z[i]).clone());
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
            io: HybridIo {
                layers_io,
                sample_slices,
            },
        }
    }

    fn backward_block(
        &mut self,
        run: &mut BlockRun<'m, HybridIo>,
        block: &Range<usize>,
        carry_grads: Option<&CarryGrads>,
    ) {
        let comm = &mut *self.comm;
        let task = self.task;
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let rows = balanced_ranges(task.n, p);
        let my = rows[rank].clone();

        // Stage 0: loss seeds weighted by the sample-slice fraction.
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

        // Sum embedding grads across ranks; keep my rows.
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
            let mut seeds: Vec<(Var, Dense)> = Vec::new();
            for (i, _) in block.clone().enumerate() {
                seeds.push((run.io.layers_io[layer].z_out[i], dz_rows[i].clone()));
            }
            if let Some(cg) = carry_grads {
                seeds.extend(run.seg.carry_out_seeds_layer(cg, layer));
            }
            run.tape.backward(&seeds);

            if layer > 0 {
                // Reverse all-gather: sum each slot's grads over ranks; my
                // rows of the result seed the layer below.
                let w = cfg.gcn_in(layer);
                for (i, _) in block.clone().enumerate() {
                    let mut dx = Dense::zeros(task.n, w);
                    for (q, slot) in run.io.layers_io[layer].x_slots[i].iter().enumerate() {
                        if let Some(v) = slot {
                            if let Some(g) = run.tape.grad(*v) {
                                let qr = rows[q].clone();
                                let mut block_g = dx.row_block(qr.start, qr.len());
                                block_g.add_assign(g);
                                // Write back.
                                for (r_local, r_global) in qr.clone().enumerate() {
                                    for c in 0..w {
                                        dx.set(r_global, c, block_g.get(r_local, c));
                                    }
                                }
                            }
                        }
                    }
                    let mut flat = dx.data().to_vec();
                    comm.all_reduce_sum(&mut flat);
                    dx.data_mut().copy_from_slice(&flat);
                    dz_rows[i] = dx.row_block(my.start, my.len());
                }
            }
        }
    }

    fn observe_block(
        &mut self,
        run: &BlockRun<'m, HybridIo>,
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
