//! Training options and per-epoch statistics.

/// Options shared by the trainers.
#[derive(Clone, Copy, Debug)]
pub struct TrainOptions {
    /// Number of training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient-checkpoint blocks (`nb` of paper §3.1). 1 = single block.
    pub nb: usize,
    /// Parameter-initialisation seed (all ranks must agree).
    pub seed: u64,
    /// Intra-rank kernel threads (per rank thread for the distributed
    /// trainers). `None` defers to the `DGNN_THREADS` environment variable,
    /// then to `available_parallelism` divided among live rank threads.
    /// Results are bit-identical at every setting — the parallel kernels
    /// are deterministic by construction.
    pub threads: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 10,
            lr: 0.01,
            nb: 1,
            seed: 42,
            threads: None,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// Mean cross-entropy over all timesteps.
    pub loss: f64,
    /// Training accuracy over all sampled pairs.
    pub train_acc: f64,
    /// Test accuracy on the held-out snapshot.
    pub test_acc: f64,
    /// Bytes a naive CPU→GPU snapshot transfer would move this epoch.
    pub transfer_naive_bytes: u64,
    /// Bytes the graph-difference transfer moves this epoch.
    pub transfer_gd_bytes: u64,
    /// Inter-rank payload bytes this rank sent during the epoch (0 for the
    /// single-rank trainer).
    pub comm_bytes: u64,
    /// Bytes faulted from the out-of-core storage tier this epoch — the
    /// tier-miss extension of the transfer accounting. 0 when the blocks
    /// (and carries) all live in memory.
    pub store_miss_bytes: u64,
    /// Where the epoch's wall time went, populated from the `DGNN_TRACE`
    /// recorder. All zeros when tracing is off — the engine never pays
    /// for clock reads it was not asked for.
    pub phase: PhaseBreakdown,
}

/// Per-phase wall-time breakdown of one training epoch, in microseconds.
///
/// Populated by the engine's tracing probes (`DGNN_TRACE=1`); every field
/// is 0 when tracing is off. The four engine phases partition the epoch
/// loop; `comm_us` and `store_wait_us` are *attributions* nested inside
/// them (collective busy time inside forward/recompute/backward, file-tier
/// blocking inside the store-backed sources), not additional time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Forward pass over the checkpoint blocks.
    pub forward_us: u64,
    /// Forward re-runs of blocks during the backward pass (paper Fig. 2).
    pub recompute_us: u64,
    /// Backward sweeps, parameter-gradient accumulation, carry seeding.
    pub backward_us: u64,
    /// Gradient reduction plus the optimizer step.
    pub optimizer_us: u64,
    /// Time inside `dgnn-sim` collectives (nested in the phases above).
    pub comm_us: u64,
    /// Share of `comm_us` spent blocked on peer data (receive-side wait).
    pub comm_wait_us: u64,
    /// Time blocked on the storage tier (nested in the phases above).
    pub store_wait_us: u64,
}

impl PhaseBreakdown {
    /// Sum of the four top-level engine phases (excludes the nested
    /// `comm_us`/`store_wait_us` attributions to avoid double counting).
    pub fn busy_us(&self) -> u64 {
        self.forward_us + self.recompute_us + self.backward_us + self.optimizer_us
    }
}

impl EpochStats {
    /// Transfer speedup of graph-difference over naive for this epoch.
    pub fn gd_speedup(&self) -> f64 {
        if self.transfer_gd_bytes == 0 {
            1.0
        } else {
            self.transfer_naive_bytes as f64 / self.transfer_gd_bytes as f64
        }
    }
}

/// Area under the ROC curve of binary `scores` against `labels` (1 =
/// positive), computed by the rank statistic (Mann–Whitney U) with the
/// midrank convention for ties. Returns 0.5 when either class is empty.
pub fn auc(scores: &[f32], labels: &[u32]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "one score per label");
    let pos = labels.iter().filter(|&&l| l == 1).count();
    let neg = labels.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // total_cmp: NaN scores (a diverged window) rank last instead of
    // panicking — the metric degrades, the stream keeps training.
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    // Midranks over tie groups, then U = Σ ranks(pos) − pos(pos+1)/2.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            if labels[k] == 1 {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - pos as f64 * (pos as f64 + 1.0) / 2.0;
    u / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_and_inverted() {
        let labels = [0, 0, 1, 1];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), 1.0);
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), 0.0);
    }

    #[test]
    fn auc_chance_for_constant_scores() {
        let labels = [0, 1, 0, 1, 1];
        assert_eq!(auc(&[0.5; 5], &labels), 0.5);
    }

    #[test]
    fn auc_handles_single_class() {
        assert_eq!(auc(&[0.3, 0.7], &[1, 1]), 0.5);
    }

    #[test]
    fn auc_midrank_ties() {
        // scores: pos at 0.5 (tied with one neg), one neg below.
        let labels = [0, 0, 1];
        let got = auc(&[0.1, 0.5, 0.5], &labels);
        assert!((got - 0.75).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn auc_all_tied_is_exactly_chance() {
        // Every score in one tie group: the midrank convention must land
        // on exactly 0.5 regardless of class balance or sample count.
        for (pos, neg) in [(1usize, 1usize), (3, 7), (10, 2)] {
            let n = pos + neg;
            let scores = vec![1.25f32; n];
            let labels: Vec<u32> = (0..n).map(|i| u32::from(i < pos)).collect();
            assert_eq!(auc(&scores, &labels), 0.5, "pos={pos} neg={neg}");
        }
    }

    #[test]
    fn auc_tie_group_spanning_both_classes() {
        // neg at 0.1; tie group {pos, pos, neg} at 0.5; pos at 0.9.
        // Midrank of the tie group = (2+3+4)/3 = 3; rank-sum(pos) =
        // 3 + 3 + 5 = 11; U = 11 - 3·4/2 = 5; AUC = 5/(3·2) = 5/6.
        let scores = [0.1f32, 0.5, 0.5, 0.5, 0.9];
        let labels = [0u32, 1, 1, 0, 1];
        let got = auc(&scores, &labels);
        assert!((got - 5.0 / 6.0).abs() < 1e-12, "got {got}");
        // Shuffling the tied entries must not change the midrank result.
        let scores2 = [0.5f32, 0.1, 0.9, 0.5, 0.5];
        let labels2 = [0u32, 0, 1, 1, 1];
        assert_eq!(auc(&scores2, &labels2), got);
    }

    #[test]
    fn auc_multiple_tie_groups() {
        // Two tie groups: {neg, pos} at 0.2 and {neg, pos} at 0.8.
        // Midranks 1.5 and 3.5: rank-sum(pos) = 5; U = 5 - 3 = 2;
        // AUC = 2/4 = 0.5 — symmetric groups balance out exactly.
        let scores = [0.2f32, 0.2, 0.8, 0.8];
        let labels = [0u32, 1, 0, 1];
        assert_eq!(auc(&scores, &labels), 0.5);
    }

    #[test]
    fn auc_nan_scores_rank_last_not_panic() {
        // total_cmp orders NaN above every real score, so a diverged
        // positive ranks top (AUC 1) and a diverged negative ranks top
        // (AUC 0) — degraded but defined, never a panic.
        assert_eq!(auc(&[f32::NAN, 0.5], &[1, 0]), 1.0);
        assert_eq!(auc(&[f32::NAN, 0.5], &[0, 1]), 0.0);
        // NaN == NaN is false, so multiple NaNs do NOT merge into a tie
        // group: the stable sort keeps their input order and each takes
        // its own rank (the tie-group `==` deliberately stays value
        // equality so +0.0/-0.0 still tie).
        assert_eq!(auc(&[f32::NAN, f32::NAN], &[1, 0]), 0.0);
        assert_eq!(auc(&[f32::NAN, f32::NAN], &[0, 1]), 1.0);
        // ±0.0 are one tie group even though total_cmp orders them.
        assert_eq!(auc(&[0.0f32, -0.0], &[1, 0]), 0.5);
    }

    #[test]
    fn auc_empty_inputs_are_chance() {
        assert_eq!(auc(&[], &[]), 0.5);
    }

    #[test]
    fn gd_speedup_handles_zero() {
        let s = EpochStats::default();
        assert_eq!(s.gd_speedup(), 1.0);
        let s = EpochStats {
            transfer_naive_bytes: 100,
            transfer_gd_bytes: 40,
            ..s
        };
        assert!((s.gd_speedup() - 2.5).abs() < 1e-12);
    }
}
