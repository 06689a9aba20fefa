//! Parallel layouts as data (paper §3, §4.1, §4.2, §6.5).
//!
//! A [`Layout`] is one rank's ownership map over the `T × N` grid of a
//! checkpoint block: which timesteps it runs the spatial phase for, which
//! rows and operator each of them uses, and which collectives move the
//! activations between the phases. The engine's one block forward reads
//! these fields; an absent collective emits no tape op, so the single-rank
//! layout's tape is the collective-free one.
//!
//! | layout | spatial steps | rows, operator | collectives |
//! |---|---|---|---|
//! | [`Layout::single`] (§3) | every block step | all, `Ã_t` | none |
//! | [`Layout::time_split`] (§4.2) | this rank's share | all, `Ã_t` | all-to-all around `temporal` |
//! | [`Layout::row_split`] (§4.1, §6.5) | every block step | a row block, `a_loc` | row exchange before each SpMM, loss-side all-gather |
//!
//! The time split's routes live in `time_part`, the row split's exchange
//! plan in `vertex_part`.

use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::RowRoute;
use dgnn_models::Model;
use dgnn_partition::{balanced_ranges, VertexChunks};
use dgnn_sim::Comm;

use crate::engine::source::SnapshotSource;
use crate::engine::time_part::{owned_per_rank, redistribution_routes};
use crate::engine::vertex_part::{ExchangePlan, RowSplit};

/// One rank's share of a training layout.
pub(crate) struct Layout<'a> {
    /// Layer-0 inputs and spatial operators, per timestep.
    pub source: &'a dyn SnapshotSource,
    /// The communicator of the block collectives and the gradient
    /// all-reduce; `None` on one rank.
    pub comm: Option<&'a mut Comm>,
    pub rank: usize,
    pub world: usize,
    /// Whether a block's timesteps are split among the ranks; otherwise
    /// every rank runs every block timestep.
    pub split_time: bool,
    /// The vertex chunks of the temporal phase, when the spatial outputs
    /// are redistributed to them and back around it.
    pub chunks: Option<VertexChunks>,
    /// The row exchange before each spatial phase. A layout with one also
    /// all-gathers the final embeddings and scores its slice of the samples.
    pub exchange: Option<&'a ExchangePlan>,
    /// Rows of this rank's temporal carry.
    pub carry_rows: usize,
    /// Whether this rank scores the test set (when it holds the embeddings
    /// of the last timestep).
    pub scores_test: bool,
    /// Whether epochs report snapshot-transfer bytes (paper §3.2).
    pub transfer: bool,
}

impl<'a> Layout<'a> {
    /// The whole timeline on one rank (paper §3), with `n` vertices.
    pub fn single(source: &'a dyn SnapshotSource, n: usize) -> Self {
        Self {
            source,
            comm: None,
            rank: 0,
            world: 1,
            split_time: false,
            chunks: None,
            exchange: None,
            carry_rows: n,
            scores_test: true,
            transfer: true,
        }
    }

    /// Snapshot partitioning (paper §4.2, Fig. 3): each block's timesteps
    /// split contiguously among the ranks, the temporal phase on vertex
    /// chunks between two all-to-alls. EvolveGCN evolves its replicated
    /// weight chain locally (§5.5), so it takes no redistribution and keeps
    /// whole-graph carries.
    pub fn time_split(
        comm: &'a mut Comm,
        source: &'a dyn SnapshotSource,
        model: &Model,
        n: usize,
    ) -> Self {
        let (rank, world) = (comm.rank(), comm.world());
        let routed = model.kind().uses_redistribution();
        let chunks = VertexChunks::new(n, world);
        Self {
            carry_rows: if routed { chunks.range(rank).len() } else { n },
            chunks: routed.then_some(chunks),
            split_time: true,
            ..Self::ranks(comm, source)
        }
    }

    /// The row split (paper §4.1, §6.5): this rank holds `rows`' block of
    /// every snapshot, exchanges the rows its neighbours reference before
    /// each SpMM, and scores a slice of the samples on all-gathered
    /// embeddings. Every rank holds those; rank 0 scores the test set. The
    /// paper's transfer accounting does not apply.
    pub fn row_split(comm: &'a mut Comm, rows: &'a RowSplit, model: &Model, n: usize) -> Self {
        let routed = model.kind().uses_redistribution();
        Self {
            carry_rows: if routed { rows.rows.len() } else { n },
            exchange: Some(&rows.plan),
            scores_test: comm.rank() == 0,
            transfer: false,
            ..Self::ranks(comm, rows)
        }
    }

    fn ranks(comm: &'a mut Comm, source: &'a dyn SnapshotSource) -> Self {
        Self {
            rank: comm.rank(),
            world: comm.world(),
            comm: Some(comm),
            ..Self::single(source, 0)
        }
    }

    /// The timesteps of `block` this rank runs the spatial phase for.
    pub fn steps(&self, block: &Range<usize>) -> Vec<usize> {
        match self.split_time {
            true => owned_per_rank(block, self.world).swap_remove(self.rank),
            false => block.clone().collect(),
        }
    }

    /// The routes of `block`'s redistributions to the vertex chunks and
    /// back, when the layout has them.
    pub fn routes(&self, block: &Range<usize>) -> Option<[Rc<RowRoute>; 2]> {
        let chunks = self.chunks.as_ref()?;
        let owned_all = owned_per_rank(block, self.world);
        Some(redistribution_routes(chunks, &owned_all, self.rank, block))
    }

    /// This rank's slice of a timestep's `len` samples, when it scores one.
    pub fn sample_slice(&self, len: usize) -> Option<Range<usize>> {
        self.exchange
            .map(|_| balanced_ranges(len, self.world)[self.rank].clone())
    }

    /// The communicator of a layout with collectives.
    pub fn comm(&mut self) -> &mut Comm {
        self.comm.as_deref_mut().expect("a collective needs ranks")
    }
}
