//! The snapshot-partitioned strategy (paper §4.2, Fig. 3).
//!
//! Timesteps are split contiguously among ranks within every checkpoint
//! block. The GCN phase is communication-free; the temporal phase runs on
//! contiguous vertex chunks after an all-to-all redistribution, and a
//! second all-to-all restores snapshot ownership for the next layer. The
//! backward pass mirrors the forward with reversed all-to-alls; parameters
//! are replicated and their gradients all-reduced once per epoch.
//!
//! EvolveGCN takes the communication-free path of paper §5.5: every rank
//! evolves the (replicated) weight chain locally and only the epoch-end
//! gradient all-reduce touches the network.
//!
//! The staged backward interleaves `Tape::backward` sweeps with the
//! reverse all-to-alls; each stage's seeds land on nodes that no earlier
//! stage has propagated (the tape enforces this).

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{ParamStore, Tape, Var};
use dgnn_models::{accuracy, CarryGrads, CarryState, LinkPredHead, Model, ModelKind};
use dgnn_partition::{balanced_ranges, VertexChunks};
use dgnn_sim::{Comm, CommMark};
use dgnn_tensor::{Csr, Dense};

use crate::engine::{transfer_bytes, BlockRun, ParallelStrategy};
use crate::metrics::{EpochStats, PhaseBreakdown};
use crate::task::Task;

/// Per-layer communication bookkeeping of one block run.
pub(crate) struct LayerIo {
    /// Spatial outputs for owned timesteps.
    spatial: Vec<Var>,
    /// Temporal inputs for every block timestep (this rank's vertex chunk).
    b_in: Vec<Var>,
    /// Temporal outputs for every block timestep.
    b_out: Vec<Var>,
    /// Reassembled temporal outputs for owned timesteps (next layer input).
    c_in: Vec<Var>,
}

/// Vertical stack of row blocks `range` taken from `mats`, or an empty
/// matrix of the given width.
fn pack_rows(mats: &[&Dense], range: &Range<usize>, width: usize) -> Dense {
    if mats.is_empty() || range.is_empty() {
        return Dense::zeros(0, width);
    }
    let blocks: Vec<Dense> = mats
        .iter()
        .map(|m| m.row_block(range.start, range.len()))
        .collect();
    Dense::vstack(&blocks.iter().collect::<Vec<_>>())
}

/// The timesteps of `block` owned by each rank (contiguous split).
pub(crate) fn owned_per_rank(block: &Range<usize>, p: usize) -> Vec<Vec<usize>> {
    balanced_ranges(block.len(), p)
        .into_iter()
        .map(|r| r.map(|i| block.start + i).collect())
        .collect()
}

/// Per-epoch link-prediction accumulator (fractional counts: ranks own
/// sample subsets and the totals are all-reduced at epoch end).
#[derive(Default)]
pub(crate) struct RankStats {
    pub loss_sum: f64,
    pub correct: f64,
    pub total: f64,
}

/// The snapshot-partitioned layout over `p` rank threads.
pub(crate) struct TimePartitioned<'m, 'c> {
    comm: &'c mut Comm,
    model: &'m Model,
    head: &'m LinkPredHead,
    task: &'m Task,
    laps: Vec<Rc<Csr>>,
    chunks: VertexChunks,
    naive_bytes: u64,
    gd_bytes: u64,
    epoch_mark: Option<CommMark>,
}

impl<'m, 'c> TimePartitioned<'m, 'c> {
    /// Builds the strategy: vertex chunking for the temporal phase and this
    /// rank's transfer accounting over `blocks` (first snapshot naive, rest
    /// as differences — paper §6.2).
    pub fn new(
        comm: &'c mut Comm,
        model: &'m Model,
        head: &'m LinkPredHead,
        task: &'m Task,
        blocks: &[Range<usize>],
    ) -> Self {
        let laps: Vec<Rc<Csr>> = task.laps.iter().cloned().map(Rc::new).collect();
        let chunks = VertexChunks::new(task.n, comm.world());
        let rank = comm.rank();
        let p = comm.world();
        let (naive_bytes, gd_bytes) = transfer_bytes(blocks.iter().map(|block| {
            owned_per_rank(block, p)[rank]
                .iter()
                .map(|&t| task.graph.snapshot(t).adj())
                .collect()
        }));
        Self {
            comm,
            model,
            head,
            task,
            laps,
            chunks,
            naive_bytes,
            gd_bytes,
            epoch_mark: None,
        }
    }
}

impl<'m> ParallelStrategy<'m> for TimePartitioned<'m, '_> {
    type Io = Vec<LayerIo>;
    type Stats = RankStats;
    type EpochOut = EpochStats;

    fn model(&self) -> &'m Model {
        self.model
    }

    fn carry_rows(&self) -> usize {
        // Temporal carries live on this rank's vertex chunk; EvolveGCN's
        // weight chain is replicated so its carry shape is chunk-independent.
        match self.model.kind() {
            ModelKind::EvolveGcn => self.task.n,
            _ => self.chunks.range(self.comm.rank()).len(),
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
    ) -> BlockRun<'m, Vec<LayerIo>> {
        let comm = &mut *self.comm;
        let task = self.task;
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let owned_all = owned_per_rank(&block, p);
        let owned = owned_all[rank].clone();
        let my_range = self.chunks.range(rank);

        let mut tape = Tape::new();
        let mut seg = self
            .model
            .bind_segment(&mut tape, store, block.clone(), carry_in);
        let head_vars = self.head.bind(&mut tape, store);

        // Layer-0 inputs for owned timesteps.
        let mut feats: Vec<Var> = owned
            .iter()
            .map(|&t| match &task.preagg {
                Some(pre) => tape.constant(pre[t].clone()),
                None => tape.constant(task.features[t].clone()),
            })
            .collect();

        let mut layers_io = Vec::with_capacity(cfg.layers());
        for layer in 0..cfg.layers() {
            let spatial: Vec<Var> = owned
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let x = feats[i];
                    if layer == 0 && task.preagg.is_some() {
                        seg.spatial_preagg(&mut tape, t, x)
                    } else {
                        seg.spatial(&mut tape, layer, t, Rc::clone(&self.laps[t]), x)
                    }
                })
                .collect();

            if !self.model.kind().uses_redistribution() {
                // EvolveGCN: identity temporal, no redistribution.
                feats = spatial.clone();
                layers_io.push(LayerIo {
                    spatial,
                    b_in: Vec::new(),
                    b_out: Vec::new(),
                    c_in: Vec::new(),
                });
                continue;
            }

            let gcn_w = cfg.gcn_out(layer);
            // --- Redistribution 1: GCN outputs → vertex chunks. ---
            let spatial_vals: Vec<&Dense> = spatial.iter().map(|&v| tape.value(v)).collect();
            let send: Vec<Dense> = (0..p)
                .map(|q| pack_rows(&spatial_vals, &self.chunks.range(q), gcn_w))
                .collect();
            let recv = comm.all_to_all_dense(send);
            // Unpack: one chunk matrix per block timestep.
            let mut b_in = Vec::with_capacity(block.len());
            for t in block.clone() {
                let owner = owned_all
                    .iter()
                    .position(|ts| ts.contains(&t))
                    .expect("every timestep has an owner");
                let pos = owned_all[owner].iter().position(|&x| x == t).unwrap();
                let chunk = recv[owner].row_block(pos * my_range.len(), my_range.len());
                b_in.push(tape.input(chunk));
            }

            // --- Temporal phase on the vertex chunk, whole block. ---
            let b_out = seg.temporal(&mut tape, layer, 0, &b_in);

            // --- Redistribution 2: temporal outputs → snapshot owners. ---
            let tmp_w = cfg.temporal_out(layer);
            let send2: Vec<Dense> = (0..p)
                .map(|r| {
                    let mats: Vec<&Dense> = owned_all[r]
                        .iter()
                        .map(|&t| tape.value(b_out[t - block.start]))
                        .collect();
                    if mats.is_empty() {
                        Dense::zeros(0, tmp_w)
                    } else {
                        Dense::vstack(&mats)
                    }
                })
                .collect();
            let recv2 = comm.all_to_all_dense(send2);
            let c_in: Vec<Var> = owned
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    let parts: Vec<Dense> = (0..p)
                        .map(|q| {
                            let qlen = self.chunks.len_of(q);
                            recv2[q].row_block(i * qlen, qlen)
                        })
                        .collect();
                    tape.input(Dense::vstack(&parts.iter().collect::<Vec<_>>()))
                })
                .collect();
            feats = c_in.clone();
            layers_io.push(LayerIo {
                spatial,
                b_in,
                b_out,
                c_in,
            });
        }

        // Losses on owned timesteps.
        let mut loss_vars = Vec::with_capacity(owned.len());
        let mut logit_vars = Vec::with_capacity(owned.len());
        for (i, &t) in owned.iter().enumerate() {
            let z = feats[i];
            let logits = self.head.logits(&mut tape, head_vars, z, &task.train[t]);
            let loss = tape.softmax_cross_entropy(logits, Rc::new(task.train[t].labels.clone()));
            logit_vars.push(logits);
            loss_vars.push(loss);
        }
        BlockRun {
            tape,
            seg,
            loss_vars,
            logit_vars,
            z_vars: feats,
            io: layers_io,
        }
    }

    fn backward_block(
        &mut self,
        run: &mut BlockRun<'m, Vec<LayerIo>>,
        block: &Range<usize>,
        carry_grads: Option<&CarryGrads>,
    ) {
        let comm = &mut *self.comm;
        let rank = comm.rank();
        let p = comm.world();
        let cfg = *self.model.config();
        let owned_all = owned_per_rank(block, p);
        let owned = owned_all[rank].clone();
        let my_range = self.chunks.range(rank);

        // Stage 1: loss seeds (every timestep contributes 1/T to the epoch
        // loss). EvolveGCN also takes its carry seeds here — its whole block
        // is one connected sweep.
        let mut seeds: Vec<(Var, Dense)> = run
            .loss_vars
            .iter()
            .map(|&lv| (lv, Dense::full(1, 1, 1.0 / self.task.t as f32)))
            .collect();
        if !self.model.kind().uses_redistribution() {
            if let Some(cg) = carry_grads {
                seeds.extend(run.seg.carry_out_seeds(cg));
            }
            run.tape.backward(&seeds);
            return;
        }
        run.tape.backward(&seeds);

        for layer in (0..cfg.layers()).rev() {
            let io = &run.io[layer];
            let tmp_w = cfg.temporal_out(layer);
            let gcn_w = cfg.gcn_out(layer);

            // --- Reverse redistribution 2: dC (owned ts) → chunk owners. ---
            let dc: Vec<Dense> = io
                .c_in
                .iter()
                .map(|&v| {
                    run.tape
                        .grad(v)
                        .expect("c_in must receive a gradient")
                        .clone()
                })
                .collect();
            let dc_refs: Vec<&Dense> = dc.iter().collect();
            let send: Vec<Dense> = (0..p)
                .map(|q| pack_rows(&dc_refs, &self.chunks.range(q), tmp_w))
                .collect();
            let recv = comm.all_to_all_dense(send);
            let mut seeds2: Vec<(Var, Dense)> = Vec::with_capacity(block.len());
            for t in block.clone() {
                let owner = owned_all.iter().position(|ts| ts.contains(&t)).unwrap();
                let pos = owned_all[owner].iter().position(|&x| x == t).unwrap();
                let g = recv[owner].row_block(pos * my_range.len(), my_range.len());
                seeds2.push((io.b_out[t - block.start], g));
            }
            if let Some(cg) = carry_grads {
                seeds2.extend(run.seg.carry_out_seeds_layer(cg, layer));
            }
            run.tape.backward(&seeds2);

            // --- Reverse redistribution 1: dB (block ts, my chunk) → owners. ---
            let io = &run.io[layer];
            let send2: Vec<Dense> = (0..p)
                .map(|r| {
                    let mats: Vec<&Dense> = owned_all[r]
                        .iter()
                        .map(|&t| {
                            run.tape
                                .grad(io.b_in[t - block.start])
                                .expect("b_in must receive a gradient")
                        })
                        .collect();
                    if mats.is_empty() {
                        Dense::zeros(0, gcn_w)
                    } else {
                        Dense::vstack(&mats)
                    }
                })
                .collect();
            let recv2 = comm.all_to_all_dense(send2);
            let seeds3: Vec<(Var, Dense)> = owned
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    let parts: Vec<Dense> = (0..p)
                        .map(|q| {
                            let qlen = self.chunks.len_of(q);
                            recv2[q].row_block(i * qlen, qlen)
                        })
                        .collect();
                    let g = Dense::vstack(&parts.iter().collect::<Vec<_>>());
                    (io.spatial[i], g)
                })
                .collect();
            run.tape.backward(&seeds3);
        }
    }

    fn observe_block(
        &mut self,
        run: &BlockRun<'m, Vec<LayerIo>>,
        block: &Range<usize>,
        stats: &mut RankStats,
        last_z: &mut Option<Dense>,
    ) {
        let owned = owned_per_rank(block, self.comm.world())[self.comm.rank()].clone();
        for (i, &t) in owned.iter().enumerate() {
            stats.loss_sum += f64::from(run.tape.value(run.loss_vars[i]).get(0, 0));
            let logits = run.tape.value(run.logit_vars[i]);
            let acc = accuracy(logits, &self.task.train[t].labels);
            stats.correct += acc * self.task.train[t].labels.len() as f64;
            stats.total += self.task.train[t].labels.len() as f64;
        }
        if owned.last() == Some(&(self.task.t - 1)) {
            *last_z = Some(run.tape.value(*run.z_vars.last().unwrap()).clone());
        }
    }

    fn reduce_grads(&mut self, store: &mut ParamStore) {
        // Gradient all-reduce keeps the replicas identical.
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
        if let Some(z) = &last_z {
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
            transfer_naive_bytes: self.naive_bytes,
            transfer_gd_bytes: self.gd_bytes,
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
