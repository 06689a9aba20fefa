//! # dgnn-serve
//!
//! The inference side of the reproduction: once `dgnn-core` has trained a
//! model, this crate checkpoints it, loads it back, and serves embedding /
//! link-score queries **while the graph keeps evolving** — the ROADMAP's
//! "serve heavy traffic" direction, informed by InstantGNN's incremental
//! embedding maintenance and ReInc's reuse of intermediates across
//! snapshots (PAPERS.md).
//!
//! Three pieces:
//!
//! * [`Checkpoint`] — a versioned binary parameter format (magic, format
//!   revision, shape table, CRC-32) whose failure modes are all typed
//!   [`CheckpointError`]s; values round-trip bit-exactly.
//! * [`InferenceSession`] — holds the trained `dgnn_models::Model` and
//!   link head restored from a checkpoint, the live directed graph, the
//!   Eq. (1) operator training builds from it, and cached per-layer GCN
//!   activations, and on each window advance recomputes only the
//!   per-layer frontier reachable from the touched vertices. Every layer
//!   it computes is training's own `GcnLayer` forward, and every link
//!   score the head's own logits, so what is served is what was trained
//!   (CD-GCN, whose layers need its temporal component, is refused). The
//!   cached state is contractually **bit-identical** to a from-scratch forward
//!   over the materialized graph ([`InferenceSession::full_forward`]);
//!   `tests/inference_equivalence.rs` pins this under random event
//!   streams at multiple thread counts.
//! * [`InferenceServer`] — snapshot-isolated concurrent serving: a writer
//!   advances windows, readers answer batched queries from immutable
//!   published [`ServingSnapshot`]s (no torn reads), with the batched
//!   kernels running on the PR-2 thread pool.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod server;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use engine::{AdvanceReport, InferenceSession};
pub use server::{snapshot_digest, InferenceServer, ServingSnapshot};
