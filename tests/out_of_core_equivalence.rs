//! Out-of-core bit-identity: `train_single_out_of_core` must reproduce
//! `train_single` exactly — same per-epoch loss bit patterns, same final
//! parameter bits — at every store budget (zero: everything faults; half
//! the working set: the Fig. 4/5 regime; unbounded: nothing faults) and
//! at multiple thread counts. The spill frames round-trip raw `f32` bit
//! patterns, so out-of-core placement must be invisible to the
//! arithmetic, exactly like the workspace arena and the thread count.

use dgnn_core::prelude::*;
use dgnn_core::train_single_out_of_core;
use dgnn_store::StoreConfig;
use dgnn_tensor::digest::digest_f32;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(kind: ModelKind) -> (Model, LinkPredHead, ParamStore, Task) {
    let g = dgnn_graph::gen::churn_skewed(60, 8, 240, 0.3, 0.9, 11);
    let cfg = ModelConfig {
        kind,
        input_f: 2,
        hidden: 6,
        mprod_window: 3,
        smoothing_window: 3,
    };
    let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    (model, head, store, task)
}

fn opts(threads: usize) -> TrainOptions {
    TrainOptions {
        epochs: 3,
        lr: 0.05,
        nb: 3,
        seed: 7,
        threads: Some(threads),
    }
}

/// Reference run: all in memory.
fn golden(kind: ModelKind, threads: usize) -> (Vec<u64>, u64) {
    let (model, head, mut store, task) = setup(kind);
    let stats = train_single(&model, &head, &mut store, &task, &opts(threads));
    (
        stats.iter().map(|s| s.loss.to_bits()).collect(),
        digest_f32(&store.values_flat()),
    )
}

/// Half the spilled working set: forces eviction traffic every epoch.
fn half_budget(task: &Task) -> u64 {
    let lap_bytes: u64 = task
        .laps
        .iter()
        .map(|l| dgnn_store::encode_csr(l).len() as u64)
        .sum();
    let input_bytes: u64 = task
        .preagg
        .as_ref()
        .unwrap_or(&task.features)
        .iter()
        .map(|d| dgnn_store::encode_dense(d).len() as u64)
        .sum();
    (lap_bytes + input_bytes) / 2
}

#[test]
fn out_of_core_is_bit_identical_at_every_budget() {
    for kind in ModelKind::all() {
        for threads in [1usize, 4] {
            let (want_losses, want_params) = golden(kind, threads);
            let budgets = {
                let (_, _, _, task) = setup(kind);
                [0, half_budget(&task), u64::MAX]
            };
            for budget in budgets {
                let (model, head, mut store, task) = setup(kind);
                let (stats, report) = train_single_out_of_core(
                    &model,
                    &head,
                    &mut store,
                    &task,
                    &opts(threads),
                    &StoreConfig::with_budget(budget),
                )
                .expect("out-of-core training must succeed");
                let got_losses: Vec<u64> = stats.iter().map(|s| s.loss.to_bits()).collect();
                assert_eq!(
                    got_losses, want_losses,
                    "{kind:?} threads={threads} budget={budget}: loss stream diverged"
                );
                assert_eq!(
                    digest_f32(&store.values_flat()),
                    want_params,
                    "{kind:?} threads={threads} budget={budget}: parameters diverged"
                );
                // Tier-miss accounting: zero budget must fault, unbounded
                // must not (after the write-through puts), and the epochs
                // must agree with the store totals.
                let epoch_misses: u64 = stats.iter().map(|s| s.store_miss_bytes).sum();
                assert_eq!(
                    epoch_misses, report.miss_bytes,
                    "{kind:?} budget={budget}: per-epoch misses must sum to the store total"
                );
                if budget == 0 {
                    assert!(
                        report.miss_bytes > 0,
                        "{kind:?}: a zero budget must fault the file tier"
                    );
                    assert_eq!(report.resident_bytes, 0);
                } else if budget == u64::MAX {
                    assert_eq!(
                        report.miss_bytes, 0,
                        "{kind:?}: an unbounded budget must never fault"
                    );
                    assert_eq!(report.evictions, 0);
                } else {
                    assert!(
                        report.peak_resident_bytes <= budget,
                        "{kind:?}: memory tier exceeded its budget"
                    );
                    assert!(
                        report.evictions > 0,
                        "{kind:?}: half the working set must evict"
                    );
                }
            }
        }
    }
}

#[test]
fn out_of_core_reports_miss_bytes_per_epoch() {
    let (model, head, mut store, task) = setup(ModelKind::CdGcn);
    let (stats, _) = train_single_out_of_core(
        &model,
        &head,
        &mut store,
        &task,
        &opts(1),
        &StoreConfig::with_budget(0),
    )
    .unwrap();
    // Every epoch reads every block (forward, then the backward rerun of
    // all but the last) plus the carries, so each epoch's miss accounting
    // must be non-zero — and the
    // in-memory trainer reports exactly zero.
    for (i, s) in stats.iter().enumerate() {
        assert!(s.store_miss_bytes > 0, "epoch {i} reported no tier misses");
    }
    let (model, head, mut store, task) = setup(ModelKind::CdGcn);
    let in_mem = train_single(&model, &head, &mut store, &task, &opts(1));
    assert!(in_mem.iter().all(|s| s.store_miss_bytes == 0));
}

#[test]
fn out_of_core_is_bit_identical_at_the_ends_of_the_block_range() {
    // The engine keeps the last block's tape for the backward pass. At
    // nb = 1 that is the whole timeline (nothing is re-run, the block
    // schedule has one entry, the one spilled carry is read back unused);
    // at nb = T every kept block is a single snapshot.
    for nb in [1usize, 8] {
        let opts = TrainOptions { nb, ..opts(1) };
        let (model, head, mut store, task) = setup(ModelKind::CdGcn);
        let want = train_single(&model, &head, &mut store, &task, &opts);
        let want_params = digest_f32(&store.values_flat());
        let (model, head, mut store, task) = setup(ModelKind::CdGcn);
        let (got, _) = train_single_out_of_core(
            &model,
            &head,
            &mut store,
            &task,
            &opts,
            &StoreConfig::with_budget(0),
        )
        .expect("out-of-core training must succeed");
        let loss_bits = |s: &[EpochStats]| s.iter().map(|e| e.loss.to_bits()).collect::<Vec<_>>();
        assert_eq!(loss_bits(&got), loss_bits(&want), "nb={nb}: losses");
        assert_eq!(
            digest_f32(&store.values_flat()),
            want_params,
            "nb={nb}: parameters"
        );
    }
}
