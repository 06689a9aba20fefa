//! Churn-rate sweep for the cross-snapshot pre-aggregation reuse cache
//! (`dgnn_graph::preagg`, the ReInc-style incremental `Ã_t·X_t` build).
//!
//! For each churn rate the sweep builds the same unsmoothed (CD-GCN
//! layout) pre-aggregation timeline two ways — from scratch, and carried
//! forward with the diff-derived touched-vertex journal — checks both are
//! bit-identical, and prints their build times, the share of rows the
//! journal path recomputed, and one training epoch per rate for context
//! (the build runs once per prepared task; the epochs are what it
//! amortizes against). Print-only: no timing is asserted. The
//! rows-recomputed bound at low churn is a deterministic property of the
//! seeded timeline and is pinned in `tests/preagg_reuse_equivalence.rs`.

use std::time::Instant;

use dgnn_autograd::ParamStore;
use dgnn_core::prelude::*;
use dgnn_graph::preagg::{incremental_preagg, journal_from_diff};
use dgnn_graph::Snapshot;
use dgnn_tensor::{Csr, Dense};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ms;

/// The swept per-snapshot edge-churn fractions (1% – 50%).
pub const RATES: [f64; 6] = [0.01, 0.02, 0.05, 0.10, 0.20, 0.50];

struct RateResult {
    scratch_ms: f64,
    journal_ms: f64,
    epoch_ms: f64,
    recomputed_fraction: f64,
}

impl RateResult {
    fn journal_speedup(&self) -> f64 {
        self.scratch_ms / self.journal_ms
    }
}

fn bits(blocks: &[Dense]) -> Vec<u32> {
    blocks
        .iter()
        .flat_map(|d| d.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.expect("at least one rep"))
}

fn sweep_rate(n: usize, t: usize, m: usize, rate: f64, reps: usize) -> RateResult {
    // Recycle block allocations across reps/timesteps, as the engine does.
    let _ws = dgnn_tensor::workspace::engage();
    let g = dgnn_graph::gen::churn(n, t + 1, m, rate, 23);
    let train = g.time_slice(0, t);
    // The CD-GCN (unsmoothed) layout: Laplacians and degree features
    // straight off the raw snapshots — the configuration whose journal
    // path `train_streaming` drives per window.
    let laps: Vec<Csr> = train.snapshots().iter().map(Snapshot::laplacian).collect();
    let xs: Vec<Dense> = dgnn_graph::degree_features(&train).into_frames();
    // churn snapshots are unweighted, so the structural diff endpoints
    // are a complete touched-vertex journal.
    let journal: Vec<Vec<u32>> = (1..t)
        .map(|ti| {
            journal_from_diff(&dgnn_graph::diff(
                train.snapshot(ti - 1).adj(),
                train.snapshot(ti).adj(),
            ))
        })
        .collect();

    // The two builds are timed single-threaded: the speedup under test
    // is the algorithmic work saved per timestep (rows carried vs rows
    // re-gathered), which thread count does not change — the outputs are
    // bit-identical at any width — but parallel scheduling noise would
    // blur the ratio from host to host.
    let serial = dgnn_tensor::pool::scoped_threads(Some(1));
    let (scratch_ms, (scratch, _)) = best_of(reps, || incremental_preagg(&laps, &xs, None));
    let (journal_ms, (journaled, stats)) =
        best_of(reps, || incremental_preagg(&laps, &xs, Some(&journal)));
    drop(serial);

    assert_eq!(
        bits(&scratch),
        bits(&journaled),
        "journal path changed bits"
    );

    let epoch_ms = {
        let cfg = ModelConfig {
            kind: ModelKind::CdGcn,
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
        let opts = TrainOptions {
            epochs: 1,
            lr: 0.05,
            nb: 4,
            seed: 7,
            threads: None,
        };
        let start = Instant::now();
        let _ = train_single(&model, &head, &mut store, &task, &opts);
        start.elapsed().as_secs_f64() * 1e3
    };

    RateResult {
        scratch_ms,
        journal_ms,
        epoch_ms,
        recomputed_fraction: stats.recomputed_fraction(),
    }
}

/// Runs the pre-aggregation reuse sweep and prints one row per churn
/// rate. `fast` shrinks the workload.
pub fn run(fast: bool) {
    // The dirty fraction scales like `4·rate·(m/n)·(lap row nnz)` — the
    // churned edges times the one-hop expansion — so the sweep uses a
    // sparse timeline (m/n = 1/2, the regime of per-window interaction
    // graphs) where low churn leaves most rows untouched. Denser graphs
    // saturate `T ∪ N(T)` and the builder correctly degrades to scratch.
    // Timelines are long enough that the carried steady state dominates
    // the one unavoidable from-scratch build at t = 0.
    let (n, t, m, reps) = if fast {
        (16384, 16, 8192, 5)
    } else {
        (32768, 24, 16384, 7)
    };
    println!("== Pre-aggregation reuse: n={n}, T={t}, m={m}, churn sweep {RATES:?} ==");
    for rate in RATES {
        let r = sweep_rate(n, t, m, rate, reps);
        println!(
            "churn {:>4.0}% : scratch {:>8} | journal {:>8} ({:>4.1}x, {:>4.1}% rows recomputed) \
             | epoch {}",
            rate * 100.0,
            ms(r.scratch_ms),
            ms(r.journal_ms),
            r.journal_speedup(),
            r.recomputed_fraction * 100.0,
            ms(r.epoch_ms),
        );
    }
}
