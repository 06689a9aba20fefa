//! Bit-identity of the cross-snapshot pre-aggregation reuse cache
//! (`dgnn_graph::preagg`, `TaskOptions::reuse_preagg`).
//!
//! The incremental build — each timestep's `Ã_t·X_t` block carried
//! forward from its predecessor with only the dirty rows recomputed —
//! must be invisible to everything downstream: same preagg bits as the
//! from-scratch build at every churn rate, thread count, and workspace
//! setting; same engine loss stream and final parameters with the knob
//! on or off; and the same bits again when the blocks round-trip the
//! out-of-core tiered store at half the working-set budget. At low churn
//! it must also actually save work: most rows carried, few recomputed.

use dgnn_core::prelude::*;
use dgnn_core::train_single_out_of_core;
use dgnn_graph::preagg::{incremental_preagg, journal_from_diff};
use dgnn_store::StoreConfig;
use dgnn_tensor::digest::digest_f32;
use dgnn_tensor::{pool, workspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const KINDS: [ModelKind; 3] = [ModelKind::CdGcn, ModelKind::EvolveGcn, ModelKind::TmGcn];

fn small_cfg(kind: ModelKind) -> ModelConfig {
    ModelConfig {
        kind,
        input_f: 2,
        hidden: 6,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

fn preagg_bits(task: &Task) -> Vec<Vec<u32>> {
    task.preagg
        .as_ref()
        .expect("preagg is on by default")
        .iter()
        .map(|d| d.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn scratch_opts() -> TaskOptions {
    TaskOptions {
        reuse_preagg: false,
        ..TaskOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Incremental == from-scratch, bitwise, across churn rates ×
    /// `DGNN_THREADS={1,4}` × `DGNN_WORKSPACE={0,1}` × all model kinds
    /// (each kind exercises a different smoothing, i.e. a different
    /// dirty-row path: raw journal-eligible, edge-life, M-product).
    #[test]
    fn incremental_preagg_is_bitwise_across_configs(
        rho in 0.01f64..0.5,
        seed in 0u64..1_000,
        kind_idx in 0usize..3,
    ) {
        let kind = KINDS[kind_idx];
        let g = dgnn_graph::gen::churn(90, 6, 270, rho, seed);
        let cfg = small_cfg(kind);
        // Every (threads, workspace) combination must produce the same
        // bits, and match the from-scratch build under the same setting.
        let mut golden: Option<Vec<Vec<u32>>> = None;
        for threads in [1usize, 4] {
            let _t = pool::scoped_threads(Some(threads));
            for ws_on in [false, true] {
                let (inc, scratch) = if ws_on {
                    let _w = workspace::engage();
                    (
                        preagg_bits(&prepare_task_holdout(&g, &cfg, &TaskOptions::default())),
                        preagg_bits(&prepare_task_holdout(&g, &cfg, &scratch_opts())),
                    )
                } else {
                    let _w = workspace::disable();
                    (
                        preagg_bits(&prepare_task_holdout(&g, &cfg, &TaskOptions::default())),
                        preagg_bits(&prepare_task_holdout(&g, &cfg, &scratch_opts())),
                    )
                };
                prop_assert_eq!(
                    &inc, &scratch,
                    "kind {:?}, threads {}, workspace {}", kind, threads, ws_on
                );
                match &golden {
                    Some(g0) => prop_assert_eq!(
                        g0, &inc,
                        "kind {:?}, threads {}, workspace {}", kind, threads, ws_on
                    ),
                    None => golden = Some(inc),
                }
            }
        }
    }
}

/// Engine-level knob gate: a full training run must not see the knob at
/// all — identical per-epoch loss bits and final parameter digest with
/// reuse on and off, for every model kind.
#[test]
fn engine_runs_are_bit_identical_with_knob_on_and_off() {
    let g = dgnn_graph::gen::churn_skewed(60, 8, 240, 0.3, 0.9, 11);
    let run = |task_opts: &TaskOptions, kind: ModelKind| -> (Vec<u64>, u64) {
        let cfg = small_cfg(kind);
        let task = prepare_task_holdout(&g, &cfg, task_opts);
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        let opts = TrainOptions {
            epochs: 3,
            lr: 0.05,
            nb: 3,
            seed: 7,
            threads: Some(1),
        };
        let stats = train_single(&model, &head, &mut store, &task, &opts);
        (
            stats.iter().map(|s| s.loss.to_bits()).collect(),
            digest_f32(&store.values_flat()),
        )
    };
    for kind in KINDS {
        let on = run(&TaskOptions::default(), kind);
        let off = run(&scratch_opts(), kind);
        assert_eq!(on.0, off.0, "loss stream moved for {kind:?}");
        assert_eq!(on.1, off.1, "parameters moved for {kind:?}");
    }
}

/// Streaming end-to-end: `train_streaming` now feeds each window's
/// touched-vertex journal into task preparation; the whole warm-started
/// trajectory must match a run with the reuse cache disabled.
#[test]
fn streaming_journal_path_matches_scratch_builds() {
    let g = dgnn_graph::gen::churn_skewed(50, 7, 180, 0.25, 0.9, 4);
    let log = EventLog::replay(&g);
    let run = |task: TaskOptions| -> Vec<Vec<u64>> {
        let opts = StreamTrainOptions {
            history: 3,
            min_history: 2,
            epochs_per_window: 2,
            task,
            ..Default::default()
        };
        // CD-GCN applies no smoothing, so this exercises the journal
        // (not the scan) dirty-row path.
        train_streaming(&log, small_cfg(ModelKind::CdGcn), &opts)
            .iter()
            .map(|w| w.epochs.iter().map(|e| e.loss.to_bits()).collect())
            .collect()
    };
    let with_journal = run(TaskOptions::default());
    let scratch = run(scratch_opts());
    assert!(!with_journal.is_empty());
    assert_eq!(with_journal, scratch, "journaled reuse changed the stream");
}

/// Out-of-core at half the working-set budget with reuse on: the
/// incrementally built blocks spill to the tiered store (revision-keyed)
/// and fault back in, and the run must still reproduce the in-memory
/// scratch-built run bit for bit.
#[test]
fn out_of_core_half_budget_run_with_reuse_is_bit_identical() {
    let g = dgnn_graph::gen::churn_skewed(60, 8, 240, 0.3, 0.9, 11);
    let cfg = small_cfg(ModelKind::CdGcn);
    let reuse_task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
    assert!(
        reuse_task.preagg_reuse.incremental_builds > 0
            || reuse_task.preagg_reuse.full_builds == reuse_task.t,
        "reuse stats must account for every timestep"
    );
    let scratch_task = prepare_task_holdout(&g, &cfg, &scratch_opts());
    let working_set: u64 = reuse_task
        .laps
        .iter()
        .map(|l| dgnn_store::encode_csr(l).len() as u64)
        .chain(
            reuse_task
                .preagg
                .as_ref()
                .unwrap()
                .iter()
                .map(|d| dgnn_store::encode_dense(d).len() as u64),
        )
        .sum();
    let opts = TrainOptions {
        epochs: 3,
        lr: 0.05,
        nb: 4,
        seed: 7,
        threads: Some(1),
    };
    let run_mem = |task: &Task| -> (Vec<u64>, u64) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        let stats = train_single(&model, &head, &mut store, task, &opts);
        (
            stats.iter().map(|s| s.loss.to_bits()).collect(),
            digest_f32(&store.values_flat()),
        )
    };
    let golden = run_mem(&scratch_task);

    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let scfg = StoreConfig::with_budget(working_set / 2);
    let (stats, report) =
        train_single_out_of_core(&model, &head, &mut store, &reuse_task, &opts, &scfg)
            .expect("out-of-core run");
    let ooc: Vec<u64> = stats.iter().map(|s| s.loss.to_bits()).collect();
    assert_eq!(golden.0, ooc, "loss stream moved out of core");
    assert_eq!(
        golden.1,
        digest_f32(&store.values_flat()),
        "parameters moved out of core"
    );
    assert!(
        report.miss_bytes > 0,
        "half the working set must fault the file tier"
    );
}

/// The work the journal path saves, pinned on a seeded timeline: at churn
/// rates up to 5% it recomputes at most a quarter of the pre-aggregation
/// rows and carries the rest over (~17% recomputed at 5% on this
/// timeline). Rows recomputed vs carried is a pure function of the seed,
/// so unlike a build-time ratio it holds on any host at any load.
#[test]
fn low_churn_journal_path_recomputes_at_most_a_quarter_of_rows() {
    // A sparse timeline (m/n = 1/2, the regime of per-window interaction
    // graphs) long enough that the carried steady state dominates the one
    // from-scratch build at t = 0.
    let (n, t, m) = (16384, 16, 8192);
    for rate in [0.01, 0.02, 0.05] {
        let g = dgnn_graph::gen::churn(n, t, m, rate, 23);
        let laps: Vec<Csr> = g.snapshots().iter().map(Snapshot::laplacian).collect();
        let xs: Vec<Dense> = dgnn_graph::degree_features(&g).into_frames();
        // churn snapshots are unweighted, so the structural diff endpoints
        // are a complete touched-vertex journal.
        let journal: Vec<Vec<u32>> = (1..t)
            .map(|ti| {
                journal_from_diff(&dgnn_graph::diff(
                    g.snapshot(ti - 1).adj(),
                    g.snapshot(ti).adj(),
                ))
            })
            .collect();
        let (_, stats) = incremental_preagg(&laps, &xs, Some(&journal));
        let recomputed = stats.recomputed_fraction();
        assert!(
            recomputed <= 0.25,
            "churn {:.0}%: journal path recomputed {:.1}% of rows",
            rate * 100.0,
            recomputed * 100.0
        );
    }
}
