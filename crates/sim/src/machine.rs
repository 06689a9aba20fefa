//! The machine model: a multi-node, multi-GPU cluster described by
//! bandwidth, latency, throughput and capacity constants.
//!
//! Defaults approximate the paper's testbed (AiMOS): 16 nodes × 8 NVIDIA
//! V100 (32 GiB HBM), dual 100 Gb EDR InfiniBand between nodes, PCIe
//! host-to-device transfers with pinned memory. The absolute numbers are
//! effective (achieved) rates, not peaks — they are the calibration knobs
//! that make the analytic engine reproduce the *shape* of the paper's
//! results; the `calib` binary of `dgnn-bench` prints the breakdown they
//! were tuned against.

/// Cluster and device constants used by every cost model.
#[derive(Clone, Copy, Debug)]
pub struct MachineSpec {
    /// GPUs per node (the paper's nodes have 8).
    pub gpus_per_node: usize,
    /// GPU memory capacity in bytes (V100: 32 GiB HBM).
    pub gpu_mem_bytes: u64,
    /// Effective pinned host→device bandwidth, GB/s.
    pub pcie_gbps: f64,
    /// Pageable transfers achieve this fraction of the pinned bandwidth.
    pub pageable_factor: f64,
    /// Fixed latency per host→device transfer call, microseconds.
    pub transfer_latency_us: f64,
    /// Effective dense f32 throughput, GFLOP/s.
    pub dense_gflops: f64,
    /// Effective sparse (SpMM) throughput, GFLOP/s.
    pub sparse_gflops: f64,
    /// Fixed cost per kernel launch, microseconds. This term is what makes
    /// small blocks slow (paper §3.1: "GPU utilization is better and the
    /// latency lower under larger block sizes") and what produces the
    /// superlinear weak scaling of EvolveGCN (paper Fig. 7).
    pub kernel_launch_us: f64,
    /// Effective per-GPU bandwidth for intra-node exchanges, GB/s.
    pub intra_node_gbps: f64,
    /// Effective per-node NIC bandwidth for inter-node exchanges, GB/s
    /// (dual EDR InfiniBand ≈ 25 GB/s shared by the node's 8 GPUs).
    pub inter_node_gbps: f64,
    /// Per-peer message latency in collectives, microseconds.
    pub msg_latency_us: f64,
    /// Bandwidth derating of the irregular vertex-partitioning exchange
    /// (send/recv buffer construction, index maintenance; paper §6.4).
    pub irregular_overhead_factor: f64,
    /// Per-float gather/scatter cost of irregular indexing on the GPU,
    /// nanoseconds (vertex partitioning only).
    pub gather_ns_per_float: f64,
    /// Send/recv buffer construction overhead per (rank pair, timestep) of
    /// the irregular exchange, microseconds (paper §6.4: "irregular
    /// indexing and buffering operations induce significant overheads").
    pub irregular_pair_overhead_us: f64,
}

impl MachineSpec {
    /// AiMOS-like defaults (the paper's testbed).
    pub fn aimos_like() -> Self {
        Self {
            gpus_per_node: 8,
            gpu_mem_bytes: 32 * (1 << 30),
            pcie_gbps: 4.5,
            pageable_factor: 0.4,
            transfer_latency_us: 20.0,
            dense_gflops: 3500.0,
            sparse_gflops: 18.0,
            kernel_launch_us: 9.0,
            intra_node_gbps: 40.0,
            inter_node_gbps: 25.0,
            msg_latency_us: 20.0,
            irregular_overhead_factor: 3.0,
            gather_ns_per_float: 0.9,
            irregular_pair_overhead_us: 40.0,
        }
    }

    /// Number of nodes needed for `p` ranks.
    pub fn nodes_for(&self, p: usize) -> usize {
        p.div_ceil(self.gpus_per_node)
    }

    /// Time to move `bytes` over the host→device link, microseconds.
    pub fn h2d_us(&self, bytes: u64, pinned: bool) -> f64 {
        let bw = if pinned {
            self.pcie_gbps
        } else {
            self.pcie_gbps * self.pageable_factor
        };
        self.transfer_latency_us + bytes as f64 / (bw * 1e3)
    }

    /// Time for `flops` of dense work including one kernel launch,
    /// microseconds.
    pub fn dense_us(&self, flops: f64) -> f64 {
        self.kernel_launch_us + flops / (self.dense_gflops * 1e3)
    }

    /// Time for `flops` of sparse (SpMM) work including one launch,
    /// microseconds.
    pub fn sparse_us(&self, flops: f64) -> f64 {
        self.kernel_launch_us + flops / (self.sparse_gflops * 1e3)
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        Self::aimos_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counting() {
        let spec = MachineSpec::aimos_like();
        assert_eq!(spec.nodes_for(1), 1);
        assert_eq!(spec.nodes_for(8), 1);
        assert_eq!(spec.nodes_for(9), 2);
        assert_eq!(spec.nodes_for(128), 16);
    }

    #[test]
    fn pinned_beats_pageable() {
        let spec = MachineSpec::aimos_like();
        let bytes = 100 << 20;
        assert!(spec.h2d_us(bytes, true) < spec.h2d_us(bytes, false));
    }

    #[test]
    fn transfer_time_linear_in_bytes() {
        let spec = MachineSpec::aimos_like();
        let t1 = spec.h2d_us(1 << 20, true) - spec.transfer_latency_us;
        let t2 = spec.h2d_us(2 << 20, true) - spec.transfer_latency_us;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn launch_latency_dominates_tiny_kernels() {
        let spec = MachineSpec::aimos_like();
        // A 1-kFLOP kernel is pure launch latency.
        let t = spec.dense_us(1e3);
        assert!((t - spec.kernel_launch_us) / t < 0.01);
    }
}
