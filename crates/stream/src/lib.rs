//! # dgnn-stream
//!
//! Event-driven graph ingestion: turns a live stream of timestamped edge
//! events into training-ready snapshots *incrementally*, without full
//! rebuilds. This is the subsystem that takes the repository beyond the
//! paper's precomputed snapshot sequences toward continuously-arriving
//! traffic (ROADMAP north star).
//!
//! ## Concepts → paper sections
//!
//! | This crate | Paper concept |
//! |---|---|
//! | [`EdgeEvent`], [`EventLog`] | the *input* the paper assumes away: §2.1's DTDG snapshots arise here as views over an event stream |
//! | [`EventLog::replay`] | §3.2 graph differences, recast as the *source* encoding: the minimal edit stream between consecutive snapshots |
//! | [`StreamingGraph::materialize`] | §2.1 snapshot `G_t` — bit-identical to batch CSR construction, so every downstream consumer (Laplacians, partitioners, trainers) is unchanged |
//! | [`DeltaBatcher`] | §3.2's `A_i^ext`/`A_{i+1}^ext` edit lists, emitted directly from accumulated events in `O(Δ log Δ)` instead of an `O(nnz)` snapshot-pair merge |
//! | [`WindowPolicy::Tumbling`] | the DTDG snapshot cadence (§2.1) |
//! | [`WindowPolicy::Sliding`] | §5.4 edge-life smoothing as a streaming aggregate: interactions age out of the trailing window |
//! | `dgnn_core::train_streaming` | §3's checkpointed trainer driven online: each closed window warm-starts from the previous window's parameters |
//!
//! ## Data flow
//!
//! ```text
//! events ──► EventLog ──► windows(log, policy) ──► StreamWindow { snapshot, diff }
//!                │                                        │
//!                │ (adapters: replay / occurrences        │ snapshots feed prepare_task /
//!                │  of any DynamicGraph or generator)     │ train_streaming; diffs feed the
//!                └────────────────────────────────────────┴ §3.2 transfer accounting
//! ```
//!
//! The pipeline invariant, asserted by the property tests: for any event
//! sequence, applying events then [`StreamingGraph::materialize`] equals
//! building the CSR from the final edge set in one batch, and every
//! [`StreamWindow::diff`] round-trips through `dgnn_graph::reconstruct`
//! onto the previous window's snapshot.

#![forbid(unsafe_code)]

pub mod batcher;
pub mod event;
pub mod streaming;
pub mod window;

pub use batcher::DeltaBatcher;
pub use event::{EdgeEvent, EventKind, EventLog};
pub use streaming::StreamingGraph;
pub use window::{collect_dynamic_graph, windows, StreamWindow, WindowIter, WindowPolicy};
