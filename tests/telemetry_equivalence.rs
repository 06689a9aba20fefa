//! The observability contract: tracing can never perturb results.
//!
//! Probes only read the clock and append to thread-local buffers, so a
//! run with `DGNN_TRACE` on must be **bit-identical** to the same run
//! with it off — same loss bits, same final parameters, same served
//! embedding bits. These tests pin that for the training engine and the
//! incremental serving path, and pin the flip side of the satellite
//! contract: the per-epoch phase breakdown is all zeros when tracing is
//! off (the engine pays for no clock reads it was not asked for) and
//! populated when it is on. A traced run must also explain itself: phase
//! spans cover its epochs, comm and store spans appear where ranks talk
//! and the store faults, the Chrome export is valid JSON, and the serve
//! exposition carries its quantiles.
//!
//! The trace switch is process-global, so the tests serialize on a mutex
//! and restore the off state before releasing it.

use std::sync::Mutex;

use dgnn_autograd::ParamStore;
use dgnn_core::metrics::PhaseBreakdown;
use dgnn_core::prelude::*;
use dgnn_core::train_single_out_of_core;
use dgnn_serve::{Checkpoint, InferenceServer, InferenceSession};
use dgnn_store::StoreConfig;
use dgnn_stream::EdgeEvent;
use dgnn_telemetry::{jsonlint, trace};
use dgnn_tensor::digest::digest_f32;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes the tests that flip the process-global trace switch.
static TRACE_TOGGLE: Mutex<()> = Mutex::new(());

fn lock_toggle() -> std::sync::MutexGuard<'static, ()> {
    TRACE_TOGGLE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_cfg(kind: ModelKind) -> ModelConfig {
    ModelConfig {
        kind,
        input_f: 2,
        hidden: 6,
        mprod_window: 3,
        smoothing_window: 3,
    }
}

/// One deterministic training run: loss-stream bits, final-parameter
/// digest, and the raw per-epoch stats.
fn train_run() -> (Vec<u64>, u64, Vec<EpochStats>) {
    let cfg = small_cfg(ModelKind::CdGcn);
    let g = dgnn_graph::gen::churn_skewed(96, 7, 420, 0.25, 0.9, 23);
    let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
    let mut rng = StdRng::seed_from_u64(9);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let opts = TrainOptions {
        epochs: 3,
        lr: 0.05,
        nb: 2,
        seed: 9,
        threads: None,
    };
    let stats = train_single(&model, &head, &mut store, &task, &opts);
    let losses = stats.iter().map(|s| s.loss.to_bits()).collect();
    (losses, digest_f32(&store.values_flat()), stats)
}

/// One deterministic incremental-serving run: per-window versions and the
/// final embedding-bit digest.
fn serve_run() -> (Vec<u64>, u64) {
    let cfg = small_cfg(ModelKind::EvolveGcn);
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let cp = Checkpoint::from_store(&model, &head, &store);
    let features = Dense::from_fn(48, 2, |r, c| ((r * 17 + c * 3) % 13) as f32 / 13.0);
    let mut session = InferenceSession::from_checkpoint(&cp, features).expect("servable");
    let mut versions = Vec::new();
    for w in 0..4u64 {
        let evs: Vec<EdgeEvent> = (0..6u32)
            .map(|i| EdgeEvent::add(w, (w as u32 * 6 + i) % 48, (i * 11 + 2) % 48, 1.0))
            .collect();
        session.ingest(&evs);
        versions.push(session.advance().version);
    }
    (versions, digest_f32(session.embeddings().data()))
}

#[test]
fn training_is_bit_identical_with_tracing_on() {
    let _guard = lock_toggle();
    trace::set_enabled(false);
    let (losses_off, params_off, stats_off) = train_run();
    trace::set_enabled(true);
    let (losses_on, params_on, stats_on) = train_run();
    trace::set_enabled(false);
    trace::clear();

    assert_eq!(losses_off, losses_on, "tracing changed the loss stream");
    assert_eq!(params_off, params_on, "tracing changed the parameters");

    // Off: no clock reads, so the breakdown is exactly zero.
    for s in &stats_off {
        assert_eq!(
            s.phase,
            PhaseBreakdown::default(),
            "phase breakdown must be all zeros when tracing is off"
        );
    }
    // On: the same run reports where its time went.
    for s in &stats_on {
        assert!(
            s.phase.busy_us() > 0,
            "phase breakdown must be populated when tracing is on, got {:?}",
            s.phase
        );
    }
}

#[test]
fn serve_incremental_is_bit_identical_with_tracing_on() {
    let _guard = lock_toggle();
    trace::set_enabled(false);
    let off = serve_run();
    trace::set_enabled(true);
    let on = serve_run();
    trace::set_enabled(false);
    trace::clear();
    assert_eq!(off, on, "tracing changed the served embeddings");
}

/// Phase-span coverage of the worst `epoch` span in `events`: the share of
/// its wall time the four engine phase spans on the same thread account
/// for.
fn worst_epoch_coverage(events: &[trace::Event]) -> f64 {
    const PHASES: [&str; 4] = ["forward", "recompute", "backward", "optimizer"];
    events
        .iter()
        .filter(|e| e.name == "epoch" && e.dur_ns > 0)
        .map(|epoch| {
            let (lo, hi) = (epoch.ts_ns, epoch.ts_ns + epoch.dur_ns);
            let phase: u64 = events
                .iter()
                .filter(|e| {
                    PHASES.contains(&e.name)
                        && (e.rank, e.tid) == (epoch.rank, epoch.tid)
                        && (lo..hi).contains(&e.ts_ns)
                })
                .map(|e| e.dur_ns)
                .sum();
            phase as f64 / epoch.dur_ns as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn fresh_params(cfg: ModelConfig) -> (Model, LinkPredHead, ParamStore) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    (model, head, store)
}

/// A traced run explains itself: single-rank training, two-rank training,
/// out-of-core training at half the working set and a serving session each
/// leave the spans that say where their time went, the exported Chrome
/// trace is valid JSON naming all of them, and the serve exposition
/// carries its latency quantiles and counters. No speed is asserted: the
/// coverage bound fails only when epoch work runs outside every phase
/// span (it measures ~99.5%), the other checks only which spans exist.
#[test]
fn traced_runs_emit_phase_comm_store_and_serve_spans() {
    let _guard = lock_toggle();
    trace::set_enabled(true);
    trace::clear();

    let cfg = small_cfg(ModelKind::CdGcn);
    let (n, t, m) = (2048, 8, 12_000);
    let g = dgnn_graph::gen::churn_skewed(n, t + 1, m, 0.3, 0.9, 17);
    let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
    let opts = TrainOptions {
        epochs: 2,
        lr: 0.05,
        nb: 4,
        seed: 7,
        threads: None,
    };

    // Single rank: the engine's phase spans cover every epoch span.
    let (model, head, mut store) = fresh_params(cfg);
    train_single(&model, &head, &mut store, &task, &opts);
    let mut all = trace::take_events();
    let coverage = worst_epoch_coverage(&all);
    assert!(
        coverage >= 0.95,
        "phase spans must cover >= 95% of every epoch span, worst epoch {:.1}%",
        coverage * 100.0
    );

    // Two ranks: comm spans on both rank lanes and a nonzero attribution.
    let raw = g.time_slice(0, t);
    let next = g.snapshot(t).clone();
    let (dist, _) = train_distributed_digest(&raw, &next, cfg, &TaskOptions::default(), &opts, 2);
    let events = trace::take_events();
    let comm_ranks: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.name == "comm")
        .map(|e| e.rank)
        .collect();
    assert_eq!(comm_ranks.len(), 2, "comm spans on ranks {comm_ranks:?}");
    assert!(dist.iter().all(|s| s.phase.comm_us > 0), "comm_us is zero");
    all.extend(events);

    // Out of core at half the working set: the store tier faults.
    let working_set: u64 = task
        .laps
        .iter()
        .map(|l| dgnn_store::encode_csr(l).len() as u64)
        .chain(
            task.preagg
                .as_ref()
                .unwrap_or(&task.features)
                .iter()
                .map(|d| dgnn_store::encode_dense(d).len() as u64),
        )
        .sum();
    let (model, head, mut store) = fresh_params(cfg);
    let scfg = StoreConfig::with_budget(working_set / 2);
    let ooc_opts = TrainOptions { epochs: 1, ..opts };
    train_single_out_of_core(&model, &head, &mut store, &task, &ooc_opts, &scfg)
        .expect("out-of-core run");
    let events = trace::take_events();
    assert!(
        events
            .iter()
            .any(|e| e.name == "store_fault" || e.name == "prefetch_wait"),
        "half the working set must produce store_fault/prefetch_wait spans"
    );
    all.extend(events);

    // Serving: advance spans, then one metrics scrape.
    let serve_cfg = ModelConfig {
        input_f: 4,
        hidden: 8,
        ..small_cfg(ModelKind::EvolveGcn)
    };
    let (model, head, store) = fresh_params(serve_cfg);
    let cp = Checkpoint::from_store(&model, &head, &store);
    let features = Dense::from_fn(64, 4, |r, c| ((r * 13 + c * 5) % 11) as f32 / 11.0);
    let server =
        InferenceServer::new(InferenceSession::from_checkpoint(&cp, features).expect("servable"));
    for w in 0..3u64 {
        let evs: Vec<EdgeEvent> = (0..8)
            .map(|i| EdgeEvent::add(w, (w as u32 * 8 + i) % 64, (i * 7 + 3) % 64, 1.0))
            .collect();
        server.ingest_and_advance(&evs);
    }
    server.predict_nodes(&[0, 1, 2, 3]);
    server.score_links(&[(0, 1), (2, 3)]);
    let exposition = server.metrics_exposition();
    all.extend(trace::take_events());
    trace::set_enabled(false);

    for needle in [
        "# TYPE serve_request_us histogram",
        "serve_request_us{quantile=\"0.5\"}",
        "serve_request_us{quantile=\"0.99\"}",
        "serve_request_us{quantile=\"0.999\"}",
        "serve_requests_total 2",
        "serve_advances_total 3",
    ] {
        assert!(
            exposition.contains(needle),
            "metrics exposition is missing {needle:?}:\n{exposition}"
        );
    }

    all.sort_by_key(|e| (e.ts_ns, e.rank, e.tid));
    let json = trace::export_chrome(&all);
    jsonlint::validate(&json).expect("exported trace must be valid JSON");
    for name in [
        "epoch",
        "forward",
        "recompute",
        "backward",
        "optimizer",
        "comm",
        "serve_advance",
        "advance_incremental",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "trace export is missing {name} spans"
        );
    }
}
