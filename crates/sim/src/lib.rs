//! # dgnn-sim
//!
//! The simulated multi-node multi-GPU cluster substrate. The paper's
//! experiments ran on 16 nodes × 8 V100 GPUs; this crate replaces that
//! hardware with two complementary layers:
//!
//! * **Functional**: [`comm::run_ranks`] spawns real rank threads that
//!   exchange real matrices over channels — the NCCL stand-in used by the
//!   distributed trainers for convergence experiments and equivalence
//!   tests. Each rank's [`comm::Comm`] endpoint runs the collectives over
//!   a dedicated channel per ordered rank pair, with fixed rank-order
//!   reductions so every replica computes the same bits.
//! * **Analytic**: [`perf::estimate_epoch`] walks the same execution
//!   schedule over per-snapshot statistics, accumulating simulated time
//!   (bandwidth/latency/throughput model in [`machine::MachineSpec`]) and
//!   memory ([`memory::MemoryTracker`]), which evaluates paper-scale
//!   configurations exactly.

#![forbid(unsafe_code)]

pub mod collective;
pub mod comm;
pub mod machine;
pub mod memory;
pub mod perf;

pub use comm::{run_ranks, try_run_ranks, Comm, CommMark, Payload, RankAbort, RankPanic};
pub use machine::MachineSpec;
pub use memory::{coo_bytes, dense_bytes, MemoryTracker, OutOfMemory};
pub use perf::{estimate_epoch, tune_nb, ModelKind, PerfConfig, PerfReport, Scheme};
