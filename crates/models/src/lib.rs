//! # dgnn-models
//!
//! The three dynamic-GNN architectures of the SC'21 study (paper §5) built
//! on `dgnn-autograd`:
//!
//! * **CD-GCN** — GCN with skip concatenation + per-layer feature LSTM.
//! * **EvolveGCN (EGCN-O)** — per-timestep GCN weights evolved by an LSTM
//!   over the weight matrices; temporal component on features is identity.
//! * **TM-GCN** — parameter-less M-product temporal averaging.
//!
//! All three share the two-layer GCN/temporal framework of §2.2 and are
//! executed through [`model::Segment`]s — one autograd tape per contiguous
//! run of timesteps — so the trainers in `dgnn-core` can insert gradient
//! checkpointing and all-to-all redistribution between segments.

#![forbid(unsafe_code)]

pub mod carry;
pub mod config;
pub mod gcn;
pub mod head;
pub mod lstm;
pub mod model;

pub use carry::{CarryGrads, CarryState, LayerCarry, LayerCarryGrad};
pub use config::{ModelConfig, ModelKind};
pub use gcn::GcnLayer;
pub use head::{accuracy, link_logits, ClassificationHead, LinkPredHead};
pub use lstm::LstmCell;
pub use model::{Model, Segment};
