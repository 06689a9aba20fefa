//! Training-task preparation: smoothing, Laplacians, degree features,
//! optional first-layer pre-aggregation (paper §5.5), and link-prediction
//! samples — everything a trainer consumes.

use std::sync::atomic::{AtomicU64, Ordering};

use dgnn_graph::features::degree_features;
use dgnn_graph::linkpred::build_linkpred;
use dgnn_graph::preagg::{incremental_preagg, ReuseStats};
use dgnn_graph::smoothing::m_transform_features;
use dgnn_graph::{DynamicGraph, EdgeSamples, Smoothing, Snapshot};
use dgnn_models::ModelConfig;
use dgnn_tensor::{Csr, Dense};

/// A fully prepared training task.
pub struct Task {
    /// Number of vertices.
    pub n: usize,
    /// Number of training timesteps.
    pub t: usize,
    /// The smoothed dynamic graph the model trains on.
    pub graph: DynamicGraph,
    /// Normalized Laplacians `Ã_t` of the smoothed snapshots.
    pub laps: Vec<Csr>,
    /// Input features per timestep (`N x F`), M-transformed for TM-GCN.
    pub features: Vec<Dense>,
    /// Pre-computed `Ã_t · X_t` for the first layer (paper §5.5), when the
    /// optimization is enabled.
    pub preagg: Option<Vec<Dense>>,
    /// Link-prediction training samples per timestep (drawn from the raw,
    /// unsmoothed snapshots — the task predicts real edges).
    pub train: Vec<EdgeSamples>,
    /// Test samples from the held-out snapshot at `T+1`.
    pub test: EdgeSamples,
    /// How the pre-aggregation was built (all zeros when `preagg` is
    /// `None`): full rebuilds vs incremental carries and the row counts
    /// behind them.
    pub preagg_reuse: ReuseStats,
    /// Process-unique revision of this task's operator/input blocks.
    /// The out-of-core spill keys are scoped by it, so two tasks spilled
    /// into one shared tier can never serve each other stale blocks.
    pub input_revision: u64,
}

/// Options controlling task preparation.
#[derive(Clone, Copy, Debug)]
pub struct TaskOptions {
    /// Fraction of each snapshot's edges sampled as positives (paper: 0.1).
    pub theta: f64,
    /// Enable the first-layer `Ã·X` pre-computation.
    pub precompute_first_layer: bool,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for TaskOptions {
    fn default() -> Self {
        Self {
            theta: 0.1,
            precompute_first_layer: true,
            seed: 17,
        }
    }
}

/// Source of [`Task::input_revision`] values.
static NEXT_INPUT_REVISION: AtomicU64 = AtomicU64::new(0);

/// Prepares a task from a raw dynamic graph: applies the model's smoothing,
/// builds Laplacians and degree features (M-transformed alongside the
/// adjacency for TM-GCN), pre-aggregates the first layer if requested, and
/// samples the link-prediction sets. `next` is the held-out snapshot at
/// `T+1` that the test set is drawn from.
pub fn prepare_task(
    raw: &DynamicGraph,
    next: &Snapshot,
    cfg: &ModelConfig,
    opts: &TaskOptions,
) -> Task {
    prepare_task_journaled(raw, next, cfg, opts, None)
}

/// [`prepare_task`] with an optional touched-vertex journal:
/// `journal[t-1]` lists every vertex whose incident edges (structure or
/// weight) changed between raw snapshots `t-1` and `t` — what
/// `DeltaBatcher::touched_vertices` emits per window. When the model
/// applies no smoothing the journal bounds the dirty pre-aggregation
/// rows (the Eq. (1) Laplacian is structurally symmetric and degree
/// features are per-vertex), so each block is carried forward from its
/// predecessor with only those rows recomputed. Smoothed configs mix raw
/// frames across time, so the journal is ignored there and, as without a
/// journal, every block is built from scratch. The bits are the same
/// either way.
pub fn prepare_task_journaled(
    raw: &DynamicGraph,
    next: &Snapshot,
    cfg: &ModelConfig,
    opts: &TaskOptions,
    journal: Option<&[Vec<u32>]>,
) -> Task {
    let smoothing = cfg.smoothing();
    let graph = smoothing.apply(raw);
    let laps: Vec<Csr> = graph.snapshots().iter().map(Snapshot::laplacian).collect();

    let mut features = degree_features(raw);
    if let Smoothing::MProduct(w) = smoothing {
        // TM-GCN smooths the feature tensor with the same M (paper §5.4).
        features = m_transform_features(&features, w);
    }
    let features: Vec<Dense> = features.into_frames();

    let mut preagg_reuse = ReuseStats::default();
    let preagg = opts.precompute_first_layer.then(|| {
        let journal = journal.filter(|_| matches!(smoothing, Smoothing::None));
        let (blocks, stats) = incremental_preagg(&laps, &features, journal);
        preagg_reuse = stats;
        blocks
    });

    let data = build_linkpred(raw, next, opts.theta, opts.seed);
    Task {
        n: raw.n(),
        t: raw.t(),
        graph,
        laps,
        features,
        preagg,
        train: data.train,
        test: data.test,
        preagg_reuse,
        input_revision: NEXT_INPUT_REVISION.fetch_add(1, Ordering::Relaxed),
    }
}

/// Convenience: split off the final snapshot of `g` as the held-out test
/// snapshot and prepare a task on the rest.
pub fn prepare_task_holdout(g: &DynamicGraph, cfg: &ModelConfig, opts: &TaskOptions) -> Task {
    assert!(g.t() >= 2, "need at least two snapshots");
    let train_graph = g.time_slice(0, g.t() - 1);
    let next = g.snapshot(g.t() - 1).clone();
    prepare_task(&train_graph, &next, cfg, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_graph::gen::churn;
    use dgnn_graph::preagg::journal_from_diff;
    use dgnn_models::ModelKind;

    #[test]
    fn tmgcn_task_smooths_graph_and_features() {
        let g = churn(50, 6, 150, 0.4, 1);
        let cfg = ModelConfig::paper_defaults(ModelKind::TmGcn);
        let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        assert_eq!(task.t, 5);
        // Smoothing grows snapshots.
        assert!(task.graph.total_nnz() > g.time_slice(0, 5).total_nnz());
        assert_eq!(task.laps.len(), 5);
        assert_eq!(task.features.len(), 5);
        assert!(task.preagg.is_some());
    }

    #[test]
    fn cdgcn_task_keeps_raw_graph() {
        let g = churn(50, 4, 150, 0.4, 2);
        let cfg = ModelConfig::paper_defaults(ModelKind::CdGcn);
        let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        assert_eq!(task.graph.total_nnz(), g.time_slice(0, 3).total_nnz());
    }

    #[test]
    fn preagg_matches_explicit_spmm() {
        let g = churn(40, 3, 100, 0.3, 3);
        let cfg = ModelConfig::paper_defaults(ModelKind::EvolveGcn);
        let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        let preagg = task.preagg.as_ref().unwrap();
        for t in 0..task.t {
            let expected = task.laps[t].spmm(&task.features[t]);
            assert!(preagg[t].approx_eq(&expected, 1e-6));
        }
    }

    fn preagg_bits(task: &Task) -> Vec<Vec<u32>> {
        task.preagg
            .as_ref()
            .unwrap()
            .iter()
            .map(|d| d.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The structural-diff journal of `g`'s first `t` snapshots (churn
    /// snapshots are unweighted, so it covers every raw change).
    fn diff_journal(g: &DynamicGraph, t: usize) -> Vec<Vec<u32>> {
        (1..t)
            .map(|t| {
                journal_from_diff(&dgnn_graph::diff(
                    g.snapshot(t - 1).adj(),
                    g.snapshot(t).adj(),
                ))
            })
            .collect()
    }

    #[test]
    fn journal_less_preparation_builds_every_timestep_from_scratch() {
        let g = churn(120, 5, 300, 0.1, 6);
        for kind in ModelKind::all() {
            let cfg = ModelConfig::paper_defaults(kind);
            let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
            let scratch: Vec<Vec<u32>> = (0..task.t)
                .map(|t| {
                    let block = task.laps[t].spmm(&task.features[t]);
                    block.data().iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            assert_eq!(preagg_bits(&task), scratch, "kind = {kind:?}");
            let r = task.preagg_reuse;
            assert_eq!(
                (r.timesteps, r.full_builds, r.incremental_builds),
                (task.t, task.t, 0),
                "kind = {kind:?}"
            );
        }
    }

    /// Supplying a journal is what switches preaggregate reuse on; for every
    /// model kind the result must match the journal-less (reuse-off) build.
    #[test]
    fn reuse_knob_is_bit_identical_for_every_model() {
        let g = churn(120, 5, 300, 0.1, 6);
        let train = g.time_slice(0, 4);
        let next = g.snapshot(4).clone();
        let journal = diff_journal(&g, 4);
        let opts = TaskOptions::default();
        for kind in ModelKind::all() {
            let cfg = ModelConfig::paper_defaults(kind);
            let on = prepare_task_journaled(&train, &next, &cfg, &opts, Some(&journal));
            let off = prepare_task(&train, &next, &cfg, &opts);
            assert_eq!(preagg_bits(&on), preagg_bits(&off), "kind = {kind:?}");
            assert_eq!(on.preagg_reuse.timesteps, on.t);
            assert_eq!(off.preagg_reuse.incremental_builds, 0, "kind = {kind:?}");
            // Only the unsmoothed config can use the raw journal: a
            // smoothed one mixes raw frames across time, so it must ignore
            // the journal and build from scratch.
            if kind != ModelKind::CdGcn {
                assert_eq!(on.preagg_reuse.incremental_builds, 0, "kind = {kind:?}");
            }
        }
    }

    #[test]
    fn journaled_preparation_is_bit_identical() {
        let g = churn(300, 6, 450, 0.03, 8);
        let train = g.time_slice(0, 5);
        let next = g.snapshot(5).clone();
        let journal = diff_journal(&g, 5);
        let cfg = ModelConfig::paper_defaults(ModelKind::CdGcn);
        let opts = TaskOptions::default();
        let journaled = prepare_task_journaled(&train, &next, &cfg, &opts, Some(&journal));
        let journal_less = prepare_task(&train, &next, &cfg, &opts);
        assert_eq!(preagg_bits(&journaled), preagg_bits(&journal_less));
        assert_eq!(journaled.preagg_reuse.timesteps, journaled.t);
        assert!(journaled.preagg_reuse.incremental_builds > 0);
    }

    #[test]
    fn input_revisions_are_unique() {
        let g = churn(40, 3, 100, 0.3, 5);
        let cfg = ModelConfig::paper_defaults(ModelKind::CdGcn);
        let a = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        let b = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        assert_ne!(a.input_revision, b.input_revision);
    }

    #[test]
    fn samples_cover_all_timesteps() {
        let g = churn(40, 5, 120, 0.2, 4);
        let cfg = ModelConfig::paper_defaults(ModelKind::CdGcn);
        let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
        assert_eq!(task.train.len(), task.t);
        assert!(!task.test.is_empty());
    }
}
