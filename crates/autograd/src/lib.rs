//! # dgnn-autograd
//!
//! Tape-based reverse-mode automatic differentiation over `dgnn-tensor`
//! matrices — the stand-in for PyTorch autograd in this reproduction.
//!
//! The engine is deliberately scoped to what dynamic-GNN training needs:
//! dense matmul, sparse-constant SpMM, element-wise ops, activations, column
//! concat/slice (LSTM gates, CD-GCN skip connections), row gather
//! (link-prediction lookups), linear combinations (M-product), and fused
//! softmax cross-entropy, and the three collectives of the distributed
//! layouts ([`tape::collective`]), whose backward runs the mirror
//! collective over a [`Communicator`]. Gradient checkpointing is realised
//! *between* tapes by the trainers in `dgnn-core`: block carries leave one
//! tape as plain matrices and re-enter the next as [`Tape::input`] leaves,
//! and their gradients come back as [`Tape::backward`] seeds.

#![forbid(unsafe_code)]

pub mod gradcheck;
pub mod optim;
pub mod params;
pub mod tape;

pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use tape::{Communicator, RowRoute, Tape, Var};
