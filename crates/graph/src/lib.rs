//! # dgnn-graph
//!
//! Discrete-time dynamic graphs (DTDG) for the SC'21 reproduction:
//! snapshot sequences, temporal generators (including churn-model stand-ins
//! for the paper's datasets), the edge-life and M-transform smoothing of
//! §5.4, the graph-difference transfer encoding of §3.2, the dirty
//! frontier of incremental recomputes ([`frontier`]) and the
//! cross-snapshot pre-aggregation reuse built on it ([`preagg`]), degree
//! features, link-prediction sampling, exact/closed-form temporal
//! statistics, the [`ModelKind`] of the study, and the snapshot byte codec
//! ([`snapshot_io`]) the out-of-core store frames.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod diff;
pub mod features;
pub mod frontier;
pub mod gen;
pub mod linkpred;
pub mod model_kind;
pub mod preagg;
pub mod smoothing;
pub mod snapshot;
pub mod snapshot_io;
pub mod stats;

pub use datasets::DatasetSpec;
pub use diff::{chunk_transfer, diff, naive_transfer_bytes, reconstruct, GraphDiff};
pub use features::degree_features;
pub use linkpred::{build_linkpred, EdgeSamples, LinkPredData};
pub use model_kind::ModelKind;
pub use preagg::{incremental_preagg, ReuseStats};
pub use smoothing::{edge_life, m_transform_adj, m_transform_features};
pub use snapshot::{DynamicGraph, Snapshot};
pub use snapshot_io::{snapshot_from_bytes, snapshot_to_bytes, CodecError};
pub use stats::{Smoothing, TemporalStats};
