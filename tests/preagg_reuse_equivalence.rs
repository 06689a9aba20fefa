//! Bit-identity of the cross-snapshot pre-aggregation reuse cache
//! (`dgnn_graph::preagg`).
//!
//! The journaled build — each timestep's `Ã_t·X_t` block carried forward
//! from its predecessor with only the frontier rows recomputed — must be
//! invisible to everything downstream. The journal-less preparation, which
//! builds every block from scratch, is the reference: same preagg bits at
//! every churn rate, thread count, and workspace setting; same engine loss
//! stream and final parameters with and without a journal; and the same
//! bits again when the blocks round-trip the out-of-core tiered store at
//! half the working-set budget. At low churn it must also actually save
//! work: most rows carried, few recomputed.

use dgnn_core::prelude::*;
use dgnn_core::train_single_out_of_core;
use dgnn_graph::preagg::{incremental_preagg, journal_from_diff};
use dgnn_store::StoreConfig;
use dgnn_stream::windows;
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

/// The touched-vertex journal of `g`'s first `t` snapshots: the
/// structural-diff endpoints of each transition, complete because churn
/// snapshots are unweighted.
fn diff_journal(g: &DynamicGraph, t: usize) -> Vec<Vec<u32>> {
    (1..t)
        .map(|ti| {
            journal_from_diff(&dgnn_graph::diff(
                g.snapshot(ti - 1).adj(),
                g.snapshot(ti).adj(),
            ))
        })
        .collect()
}

/// A sparse timeline at 2% churn: the frontier of every transition stays
/// under half of the rows often enough that the journaled CD-GCN build
/// carries blocks, so the engine-level tests below compare a real carry
/// with the scratch build (hub-heavy or high-churn timelines rebuild
/// every block and would compare scratch with scratch).
fn low_churn_timeline() -> DynamicGraph {
    dgnn_graph::gen::churn(100, 8, 150, 0.02, 11)
}

/// `g` prepared with its last snapshot held out, with the diff journal
/// (`journaled`) or without one (every block from scratch).
fn prepare(g: &DynamicGraph, cfg: &ModelConfig, journaled: bool) -> Task {
    let t = g.t() - 1;
    let train = g.time_slice(0, t);
    let next = g.snapshot(t);
    let journal = journaled.then(|| diff_journal(g, t));
    prepare_task_journaled(
        &train,
        next,
        cfg,
        &TaskOptions::default(),
        journal.as_deref(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Journaled == journal-less, bitwise, across churn rates ×
    /// `DGNN_THREADS={1,4}` × workspace engaged / disabled × all model kinds
    /// (each kind applies a different smoothing: only the raw CD-GCN
    /// timeline can carry blocks; edge-life and M-product ignore the
    /// journal and build from scratch).
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
                        preagg_bits(&prepare(&g, &cfg, true)),
                        preagg_bits(&prepare(&g, &cfg, false)),
                    )
                } else {
                    let _w = workspace::disable();
                    (
                        preagg_bits(&prepare(&g, &cfg, true)),
                        preagg_bits(&prepare(&g, &cfg, false)),
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

/// Engine-level gate: a full training run must not see how its blocks
/// were built — identical per-epoch loss bits and final parameter digest
/// with and without a journal, for every model kind.
#[test]
fn engine_runs_are_bit_identical_with_and_without_journal() {
    let g = low_churn_timeline();
    let run = |journaled: bool, kind: ModelKind| -> (Vec<u64>, u64) {
        let cfg = small_cfg(kind);
        let task = prepare(&g, &cfg, journaled);
        if journaled && kind == ModelKind::CdGcn {
            assert!(task.preagg_reuse.incremental_builds > 0, "nothing carried");
        }
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
        let journaled = run(true, kind);
        let scratch = run(false, kind);
        assert_eq!(journaled.0, scratch.0, "loss stream moved for {kind:?}");
        assert_eq!(journaled.1, scratch.1, "parameters moved for {kind:?}");
    }
}

/// Streaming end-to-end: `train_streaming` feeds each window's
/// touched-vertex journal into task preparation; the whole warm-started
/// trajectory must match a replay of the same windows whose tasks are
/// prepared without a journal.
#[test]
fn streaming_journal_path_matches_scratch_builds() {
    let g = low_churn_timeline();
    let log = EventLog::replay(&g);
    // CD-GCN applies no smoothing, so the streamed run takes the journal
    // path.
    let cfg = small_cfg(ModelKind::CdGcn);
    let opts = StreamTrainOptions {
        history: 3,
        min_history: 2,
        epochs_per_window: 2,
        ..Default::default()
    };
    let loss_bits =
        |epochs: &[EpochStats]| -> Vec<u64> { epochs.iter().map(|e| e.loss.to_bits()).collect() };
    let with_journal: Vec<Vec<u64>> = train_streaming(&log, cfg, &opts)
        .iter()
        .map(|w| loss_bits(&w.epochs))
        .collect();

    // The same warm-started windows, replayed by hand: train on up to
    // `history` snapshots, hold out the newest, one parameter store.
    let snapshots: Vec<Snapshot> = windows(&log, opts.policy).map(|w| w.snapshot).collect();
    let mut rng = StdRng::seed_from_u64(opts.train.seed);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let inner = TrainOptions {
        epochs: opts.epochs_per_window,
        ..opts.train
    };
    let scratch: Vec<Vec<u64>> = (opts.min_history..snapshots.len())
        .map(|end| {
            let start = end.saturating_sub(opts.history);
            let train = DynamicGraph::new(log.n(), snapshots[start..end].to_vec());
            let task = prepare_task(&train, &snapshots[end], &cfg, &opts.task);
            assert_eq!(task.preagg_reuse.incremental_builds, 0);
            loss_bits(&train_single(&model, &head, &mut store, &task, &inner))
        })
        .collect();
    assert!(!with_journal.is_empty());
    assert_eq!(with_journal, scratch, "journaled reuse changed the stream");
}

/// Out-of-core at half the working-set budget with reuse on: the
/// incrementally built blocks spill to the tiered store (revision-keyed)
/// and fault back in, and the run must still reproduce the in-memory
/// scratch-built run bit for bit.
#[test]
fn out_of_core_half_budget_run_with_reuse_is_bit_identical() {
    let g = low_churn_timeline();
    let cfg = small_cfg(ModelKind::CdGcn);
    let reuse_task = prepare(&g, &cfg, true);
    let r = reuse_task.preagg_reuse;
    assert!(r.incremental_builds > 0, "nothing carried");
    assert_eq!(
        r.full_builds + r.incremental_builds,
        reuse_task.t,
        "reuse stats must account for every timestep"
    );
    let scratch_task = prepare(&g, &cfg, false);
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
        let (_, stats) = incremental_preagg(&laps, &xs, Some(&diff_journal(&g, t)));
        let recomputed = stats.recomputed_fraction();
        assert!(
            recomputed <= 0.25,
            "churn {:.0}%: journal path recomputed {:.1}% of rows",
            rate * 100.0,
            recomputed * 100.0
        );
    }
}
