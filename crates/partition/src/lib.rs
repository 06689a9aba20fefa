//! # dgnn-partition
//!
//! Data-distribution schemes for distributed dynamic-GNN training
//! (paper §4): snapshot partitioning with contiguous and checkpoint-
//! block-wise assignment, contiguous vertex chunks for the RNN
//! redistribution, the hypergraph column-net model with a PaToH-substitute
//! partitioner for the vertex-partitioning baseline, exact communication-
//! volume accounting for both schemes, and the hybrid (intra-snapshot)
//! layout of §6.5.

#![forbid(unsafe_code)]

pub mod hybrid;
pub mod hypergraph;
pub mod snapshot_part;
pub mod volume;

pub use hybrid::HybridPartition;
pub use hypergraph::{contiguous_renaming, partition, Hypergraph, PartitionerConfig};
pub use snapshot_part::{balanced_ranges, SnapshotPartition, VertexChunks};
pub use volume::{
    evolvegcn_allreduce_floats, snapshot_epoch_units, snapshot_layer_units, units_to_floats,
    vertex_epoch_units, vertex_spmm_units,
};
