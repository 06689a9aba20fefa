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
//! Both redistributions are `Tape::all_to_all` ops, so the engine's one
//! backward call runs them reversed.

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{Communicator, ParamStore, RowRoute, Tape, Var};
use dgnn_models::{accuracy, CarryState, LinkPredHead, Model, ModelKind};
use dgnn_partition::{balanced_ranges, VertexChunks};
use dgnn_sim::{Comm, CommMark};
use dgnn_tensor::{Csr, Dense};

use crate::engine::{transfer_bytes, BlockRun, ParallelStrategy};
use crate::metrics::{EpochStats, PhaseBreakdown};
use crate::task::Task;

/// The timesteps of `block` owned by each rank (contiguous split).
pub(crate) fn owned_per_rank(block: &Range<usize>, p: usize) -> Vec<Vec<usize>> {
    balanced_ranges(block.len(), p)
        .into_iter()
        .map(|r| r.map(|i| block.start + i).collect())
        .collect()
}

/// The row routes of the two redistributions of `block` on `rank`, whose
/// timesteps `owned_all` splits among the ranks: GCN outputs of the owned
/// timesteps to vertex chunks of every block timestep, and temporal
/// outputs (block order) back to the snapshot owners.
pub(crate) fn redistribution_routes(
    chunks: &VertexChunks,
    owned_all: &[Vec<usize>],
    rank: usize,
    block: &Range<usize>,
) -> [Rc<RowRoute>; 2] {
    let chunks: Vec<Range<usize>> = (0..owned_all.len()).map(|q| chunks.range(q)).collect();
    let (owned, my) = (owned_all[rank].len(), chunks[rank].len());
    let to_chunks = RowRoute {
        send: chunks
            .iter()
            .map(|c| (0..owned).map(|i| (i, c.clone())).collect())
            .collect(),
        gather: owned_all
            .iter()
            .enumerate()
            .flat_map(|(q, ts)| (0..ts.len()).map(move |i| vec![(q, i * my..(i + 1) * my)]))
            .collect(),
    };
    let to_owners = RowRoute {
        send: owned_all
            .iter()
            .map(|ts| ts.iter().map(|&t| (t - block.start, 0..my)).collect())
            .collect(),
        gather: (0..owned)
            .map(|i| {
                let blocks = chunks.iter().enumerate();
                blocks
                    .map(|(q, c)| (q, i * c.len()..(i + 1) * c.len()))
                    .collect()
            })
            .collect(),
    };
    [Rc::new(to_chunks), Rc::new(to_owners)]
}

/// Per-epoch link-prediction accumulator (fractional counts: ranks own
/// sample subsets and the totals are all-reduced at epoch end).
#[derive(Default)]
pub(crate) struct RankStats {
    pub loss_sum: f64,
    pub correct: f64,
    pub total: f64,
}

impl RankStats {
    /// The epoch record of a distributed layout: the ranks' summed loss and
    /// accuracy counts, held-out accuracy from the ranks that pass the last
    /// embeddings `last_z`, and this rank's traffic since `mark`.
    pub(crate) fn finish(
        self,
        comm: &mut Comm,
        mark: CommMark,
        (head, store, task): (&LinkPredHead, &ParamStore, &Task),
        last_z: Option<Dense>,
    ) -> EpochStats {
        let mut agg = [
            self.loss_sum as f32,
            self.correct as f32,
            self.total as f32,
            0.0,
            0.0,
        ];
        if let Some(z) = &last_z {
            let logits = head.predict(store, z, &task.test);
            let acc = accuracy(&logits, &task.test.labels);
            agg[3] = (acc * task.test.labels.len() as f64) as f32;
            agg[4] = task.test.labels.len() as f32;
        }
        comm.all_reduce_sum(&mut agg);
        EpochStats {
            loss: f64::from(agg[0]) / task.t as f64,
            train_acc: f64::from(agg[1]) / f64::from(agg[2]).max(1.0),
            test_acc: f64::from(agg[3]) / f64::from(agg[4]).max(1.0),
            comm_bytes: comm.bytes_since(mark),
            ..EpochStats::default()
        }
    }
}

/// `phase` with this rank's collective time since `mark`.
pub(crate) fn comm_phase(phase: PhaseBreakdown, comm: &Comm, mark: CommMark) -> PhaseBreakdown {
    PhaseBreakdown {
        comm_us: comm.busy_us_since(mark),
        comm_wait_us: comm.wait_us_since(mark),
        ..phase
    }
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
    type Io = ();
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

    fn comm(&mut self) -> Option<&mut dyn Communicator> {
        Some(&mut *self.comm)
    }

    fn forward_block(
        &mut self,
        store: &ParamStore,
        block: Range<usize>,
        carry_in: &CarryState,
    ) -> BlockRun<'m, ()> {
        let task = self.task;
        let cfg = *self.model.config();
        let (rank, p) = (self.comm.rank(), self.comm.world());
        let owned_all = owned_per_rank(&block, p);
        let owned = owned_all[rank].clone();
        let [to_chunks, to_owners] = redistribution_routes(&self.chunks, &owned_all, rank, &block);

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
                feats = spatial;
                continue;
            }
            // GCN outputs → vertex chunks, the temporal phase on the chunk
            // over the whole block, temporal outputs → snapshot owners.
            let comm = &mut *self.comm;
            let b_in = tape.all_to_all(comm, &spatial, cfg.gcn_out(layer), Rc::clone(&to_chunks));
            let b_out = seg.temporal(&mut tape, layer, 0, &b_in);
            let width = cfg.temporal_out(layer);
            feats = tape.all_to_all(comm, &b_out, width, Rc::clone(&to_owners));
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
            loss_weights: vec![1.0 / task.t as f32; loss_vars.len()],
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

    fn finish_epoch(
        &mut self,
        stats: RankStats,
        last_z: Option<Dense>,
        store: &ParamStore,
    ) -> EpochStats {
        let mark = self.epoch_mark.expect("begin_epoch sets the mark");
        EpochStats {
            transfer_naive_bytes: self.naive_bytes,
            transfer_gd_bytes: self.gd_bytes,
            ..stats.finish(self.comm, mark, (self.head, store, self.task), last_z)
        }
    }

    fn attach_phase(&mut self, out: &mut EpochStats, phase: PhaseBreakdown) {
        out.phase = comm_phase(
            phase,
            self.comm,
            self.epoch_mark.expect("begin_epoch sets the mark"),
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dgnn_sim::run_ranks;

    pub(crate) fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `rows × cols` values unique to `salt`, with a `-0.0` first.
    pub(crate) fn values(rows: usize, cols: usize, salt: usize) -> Dense {
        Dense::from_fn(rows, cols, |r, c| match r * cols + c {
            0 => -0.0,
            k => (k * 7 + salt * 13) as f32 * 0.125 - 3.0,
        })
    }

    fn vstack(mats: &[Dense], width: usize) -> Dense {
        match mats.is_empty() {
            true => Dense::zeros(0, width),
            false => Dense::vstack(&mats.iter().collect::<Vec<_>>()),
        }
    }

    /// The hand-staged code's redistribution of per-owned-timestep
    /// matrices to vertex chunks of every block timestep: forward of the
    /// GCN outputs, backward of the next layer's inputs.
    fn staged_to_chunks(
        comm: &mut Comm,
        mats: &[Dense],
        block: &Range<usize>,
        n: usize,
        width: usize,
    ) -> Vec<Dense> {
        let p = comm.world();
        let chunks = VertexChunks::new(n, p);
        let my = chunks.len_of(comm.rank());
        let send = (0..p).map(|q| {
            let r = chunks.range(q);
            let blocks: Vec<Dense> = mats.iter().map(|m| m.row_block(r.start, r.len())).collect();
            vstack(&blocks, width)
        });
        let recv = comm.all_to_all_dense(send.collect());
        let owned_all = owned_per_rank(block, p);
        let owner_pos = |t| {
            let q = owned_all.iter().position(|ts| ts.contains(&t)).unwrap();
            (q, owned_all[q].iter().position(|&s| s == t).unwrap())
        };
        block
            .clone()
            .map(|t| {
                let (q, pos) = owner_pos(t);
                recv[q].row_block(pos * my, my)
            })
            .collect()
    }

    /// The inverse redistribution, vertex chunks of every block timestep
    /// back to the owners: forward of the temporal outputs, backward of
    /// the GCN outputs.
    fn staged_to_owners(
        comm: &mut Comm,
        mats: &[Dense],
        block: &Range<usize>,
        n: usize,
        width: usize,
    ) -> Vec<Dense> {
        let (p, rank) = (comm.world(), comm.rank());
        let chunks = VertexChunks::new(n, p);
        let owned_all = owned_per_rank(block, p);
        let send = owned_all.iter().map(|ts| {
            let own: Vec<Dense> = ts.iter().map(|&t| mats[t - block.start].clone()).collect();
            vstack(&own, width)
        });
        let recv = comm.all_to_all_dense(send.collect());
        (0..owned_all[rank].len())
            .map(|i| {
                let parts: Vec<Dense> = (0..p)
                    .map(|q| recv[q].row_block(i * chunks.len_of(q), chunks.len_of(q)))
                    .collect();
                vstack(&parts, width)
            })
            .collect()
    }

    /// Asserts `got` equals `want` bit for bit; returns the `-0.0`s.
    fn same_bits(got: Vec<&Dense>, want: &[Dense], what: &str) -> usize {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.into_iter().zip(want) {
            assert_eq!(bits(g), bits(w), "{what}");
        }
        want.iter()
            .flat_map(bits)
            .filter(|&b| b == (-0.0f32).to_bits())
            .count()
    }

    #[test]
    fn all_to_all_is_bitwise_the_hand_staged_redistributions() {
        // Two timesteps on three or four ranks leave ranks without
        // timesteps; three vertices on four ranks leave one without rows.
        for p in [2usize, 3, 4] {
            for (len, n) in [(2usize, 7usize), (5, 3)] {
                let neg_zeros = run_ranks(p, |comm| {
                    let (rank, block) = (comm.rank(), 3..3 + len);
                    let owned_all = owned_per_rank(&block, p);
                    let chunks = VertexChunks::new(n, p);
                    let my = chunks.len_of(rank);
                    let [to_chunks, to_owners] =
                        redistribution_routes(&chunks, &owned_all, rank, &block);
                    let owned = &owned_all[rank];
                    let gcn: Vec<Dense> = owned.iter().map(|&t| values(n, 3, t)).collect();
                    let tmp: Vec<Dense> =
                        block.clone().map(|t| values(my, 2, 9 * t + rank)).collect();
                    let mut tape = Tape::new();
                    let spatial: Vec<Var> = gcn.iter().map(|v| tape.input(v.clone())).collect();
                    let b_out: Vec<Var> = tmp.iter().map(|v| tape.input(v.clone())).collect();
                    let b_in = tape.all_to_all(comm, &spatial, 3, to_chunks);
                    let c_in = tape.all_to_all(comm, &b_out, 2, to_owners);
                    let values_of = |vars: &[Var]| vars.iter().map(|&v| tape.value(v)).collect();
                    let want = staged_to_chunks(comm, &gcn, &block, n, 3);
                    same_bits(values_of(&b_in), &want, "b_in");
                    let want = staged_to_owners(comm, &tmp, &block, n, 2);
                    same_bits(values_of(&c_in), &want, "c_in");

                    // One backward, then the hand-staged reverse
                    // redistributions in the same order.
                    let dc: Vec<Dense> = owned.iter().map(|&t| values(n, 2, 50 + t)).collect();
                    let db: Vec<Dense> = block.clone().map(|t| values(my, 3, 70 + t)).collect();
                    let mut seeds: Vec<(Var, Dense)> = c_in.into_iter().zip(dc.clone()).collect();
                    seeds.extend(b_in.into_iter().zip(db.clone()));
                    tape.backward(seeds, Some(comm));
                    let grads_of =
                        |vars: &[Var]| vars.iter().map(|&v| tape.grad(v).unwrap()).collect();
                    let want = staged_to_chunks(comm, &dc, &block, n, 2);
                    let neg_zeros = same_bits(grads_of(&b_out), &want, "d b_out");
                    let want = staged_to_owners(comm, &db, &block, n, 3);
                    neg_zeros + same_bits(grads_of(&spatial), &want, "d spatial")
                });
                assert!(
                    neg_zeros.iter().sum::<usize>() > 0,
                    "a -0.0 gradient crosses"
                );
            }
        }
    }
}
