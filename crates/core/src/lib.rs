//! # dgnn-core
//!
//! The paper's primary contribution: efficient training of dynamic GNNs at
//! scale. One checkpointed execution engine ([`engine`]) owns the training
//! loop — snapshot schedule, one block forward, recompute and backward,
//! optimizer stepping, epoch statistics, workspace reuse — over a parallel
//! layout given as data and a training objective. The public entry points
//! bind a layout and an objective to the engine:
//!
//! * [`single::train_single`] — the single-rank layout (paper §3) with
//!   graph-difference transfer accounting.
//! * [`single::train_single_out_of_core`] — the same layout with the
//!   snapshot blocks and checkpoint carries spilled to a `dgnn-store`
//!   tiered store ([`engine::source::StoreSource`]): training works when
//!   the snapshot working set exceeds the memory budget, bit-identically
//!   to the in-memory run.
//! * [`distributed::train_distributed_digest`] — snapshot (time)
//!   partitioning with all-to-all redistribution over real rank threads
//!   (paper §4.2).
//! * [`vertex_dist::train_vertex_partitioned_digest`] — the
//!   hypergraph-based vertex-partitioning baseline (paper §4.1, §6.4).
//! * [`hybrid::train_hybrid_digest`] — intra-snapshot row splitting for
//!   snapshots too large for one GPU (paper §6.5). It is the same
//!   row-split layout as the vertex baseline, over balanced ranges of
//!   the original vertex ids instead of a renamed hypergraph partition.
//! * [`classification::train_single_classification`] — the single-rank
//!   layout with the class-balanced vertex-classification objective
//!   (§2.2).
//! * [`streaming::train_streaming`] — online/continual training over a
//!   `dgnn-stream` event log: windows close, snapshots materialize
//!   incrementally, and the model warm-starts from the previous window.
//!
//! The three distributed entry points share one `run_ranks` body and
//! return the per-epoch statistics together with each rank's
//! final-parameter digest; callers that only want the statistics take
//! `.0`.
//!
//! All layouts faithfully simulate the sequential algorithm: identical
//! seeds produce matching loss/accuracy trajectories (paper Fig. 6), at
//! one rank every distributed entry point ends on `train_single`'s
//! parameters, and `tests/engine_equivalence.rs` pins every entry point's
//! loss stream and final parameters to pre-engine golden bit patterns.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod classification;
pub mod distributed;
pub mod engine;
pub mod hybrid;
pub mod metrics;
pub mod single;
pub mod streaming;
pub mod task;
pub mod vertex_dist;

pub use classification::{train_single_classification, ClassEpochStats};
pub use distributed::train_distributed_digest;
pub use engine::source::{SnapshotSource, StoreSource, TaskSource};
pub use engine::EngineConfig;
pub use hybrid::train_hybrid_digest;
pub use metrics::{auc, EpochStats, TrainOptions};
pub use single::{train_single, train_single_out_of_core};
pub use streaming::{train_streaming, StreamTrainOptions, WindowStats};
pub use task::{prepare_task, prepare_task_holdout, prepare_task_journaled, Task, TaskOptions};
pub use vertex_dist::train_vertex_partitioned_digest;

/// Convenience re-exports of the whole stack.
pub mod prelude {
    pub use crate::metrics::{EpochStats, TrainOptions};
    pub use crate::streaming::{train_streaming, StreamTrainOptions, WindowStats};
    pub use crate::task::{
        prepare_task, prepare_task_holdout, prepare_task_journaled, Task, TaskOptions,
    };
    pub use crate::{
        train_distributed_digest, train_hybrid_digest, train_single,
        train_vertex_partitioned_digest,
    };
    pub use dgnn_autograd::{Adam, Optimizer, ParamStore, Sgd, Tape, Var};
    pub use dgnn_graph::{
        DatasetSpec, DynamicGraph, EdgeSamples, ReuseStats, Smoothing, Snapshot, TemporalStats,
    };
    pub use dgnn_models::{accuracy, LinkPredHead, Model, ModelConfig, ModelKind};
    pub use dgnn_partition::{Hypergraph, PartitionerConfig, SnapshotPartition, VertexChunks};
    pub use dgnn_sim::{estimate_epoch, MachineSpec, PerfConfig, PerfReport};
    pub use dgnn_stream::{
        DeltaBatcher, EdgeEvent, EventKind, EventLog, StreamingGraph, WindowPolicy,
    };
    pub use dgnn_tensor::{Csr, Dense, SparseTensor3, Tensor3};
}
