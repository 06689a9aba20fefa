//! # dgnn-partition
//!
//! Data-distribution schemes for distributed dynamic-GNN training
//! (paper §4): snapshot partitioning with contiguous and checkpoint-
//! block-wise assignment, contiguous vertex chunks for the RNN
//! redistribution, the hypergraph column-net model with a PaToH-substitute
//! partitioner for the vertex-partitioning baseline, and exact
//! communication-volume accounting for both schemes. The §6.5 hybrid's
//! one-group row split is [`balanced_ranges`] over the vertices.

#![forbid(unsafe_code)]

pub mod hypergraph;
pub mod snapshot_part;
pub mod volume;

pub use hypergraph::{contiguous_renaming, partition, Hypergraph, PartitionerConfig};
pub use snapshot_part::{balanced_ranges, SnapshotPartition, VertexChunks};
pub use volume::{
    evolvegcn_allreduce_floats, snapshot_epoch_units, snapshot_layer_units, units_to_floats,
    vertex_epoch_units, vertex_spmm_units,
};
