//! # dgnn-store
//!
//! Tiered out-of-core storage for snapshot Laplacians, feature blocks and
//! engine carries — the paper's central constraint made real. The SC'21
//! system assumes snapshot working sets larger than device memory and
//! `dgnn-sim::memory` reproduces the resulting OOM blanks analytically;
//! this crate lets the repo actually *train* such workloads: blocks spill
//! to framed, CRC-sealed files (the `DGNC` checkpoint idiom of
//! `dgnn-serve`, under a `DGNS` magic), an LRU-bounded memory tier keeps
//! the hot blocks resident within a `DGNN_STORE_BUDGET` byte budget, and
//! a background prefetch thread walks the §3.1 snapshot schedule one
//! block ahead so the execution engine never blocks on a cold read.
//!
//! Everything round-trips as raw bit patterns: training from the store is
//! **bit-identical** to training in memory (pinned by
//! `tests/out_of_core_equivalence.rs` at multiple thread counts), and
//! every decode failure — truncation, foreign magic, future revision,
//! flipped bits — is a typed [`StoreError`], never a panic.
//!
//! The memory tier's admission check reuses
//! [`dgnn_sim::memory::MemoryTracker::would_fit`], and decoded buffers
//! are drawn from (and evicted buffers returned to) the per-thread
//! `dgnn_tensor::workspace` arena, so steady-state block reads allocate
//! nothing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod tier;

pub use frame::{decode, encode_csr, encode_dense, encode_record, Record, StoreError};
pub use tier::{RecordPayload, StoreConfig, StoreStats, TieredStore, ENV_STORE_BUDGET};
