//! # dgnn-tensor
//!
//! Dense and sparse linear-algebra kernels for the SC'21 dynamic-GNN
//! reproduction. This crate stands in for the PyTorch/CUDA kernel layer of
//! the original system: row-major `f32` dense matrices, CSR sparse matrices
//! with the SpMM aggregation kernel, third-order tensors stored as frame
//! sequences, and the banded M-product matrix of TM-GCN.
//!
//! Everything downstream (`dgnn-autograd`, the models, the trainers) builds
//! on these types, so their semantics are pinned by extensive unit and
//! property tests.

#![warn(missing_docs)]
// `unsafe` is confined to two audited modules: the SIMD shim (AVX2
// dispatch, prefetch) and the pool (the workers' job lifetime erasure).
#![deny(unsafe_code)]

pub mod dense;
pub mod digest;
pub mod init;
pub mod lanes;
pub mod lstm;
#[allow(unsafe_code)]
pub mod pool;
#[allow(unsafe_code)]
pub mod simd;
pub mod sparse;
mod spmm_kernels;
pub mod tensor3;
pub mod workspace;

pub use dense::Dense;
pub use sparse::{laplacian_degree, normalized_laplacian, push_laplacian_row, Csr};
pub use tensor3::{m_banded, SparseTensor3, Tensor3};
