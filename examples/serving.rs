//! End-to-end serving scenario: train on a churning transaction graph,
//! checkpoint the model, load it back, and serve link queries while the
//! graph keeps evolving — each window advance recomputes only the frontier
//! of touched vertices, bit-identical to a full forward.
//!
//! Run with: `cargo run --release --example serving`

use dgnn_core::prelude::*;
use dgnn_serve::{Checkpoint, InferenceServer, InferenceSession};
use dgnn_stream::EdgeEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // ---- Train (the existing pipeline, unchanged) -------------------
    let g = dgnn_graph::gen::churn_skewed(200, 10, 1000, 0.2, 0.9, 17);
    let cfg = ModelConfig {
        kind: ModelKind::EvolveGcn,
        input_f: 2,
        hidden: 8,
        mprod_window: 3,
        smoothing_window: 3,
    };
    let task = dgnn_core::prepare_task_holdout(&g, &cfg, &Default::default());
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let opts = TrainOptions {
        epochs: 12,
        lr: 0.05,
        nb: 2,
        seed: 7,
        threads: None,
    };
    let stats = train_single(&model, &head, &mut store, &task, &opts);
    println!(
        "trained {} epochs: loss {:.4} -> {:.4}, test acc {:.2}",
        stats.len(),
        stats.first().unwrap().loss,
        stats.last().unwrap().loss,
        stats.last().unwrap().test_acc
    );

    // ---- Checkpoint: save, reload, verify ---------------------------
    let path = std::env::temp_dir().join("dgnn_serving_example.ckpt");
    Checkpoint::from_store(&model, &head, &store)
        .save(&path)
        .expect("save checkpoint");
    let loaded = Checkpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).ok();
    println!(
        "checkpoint round-trip: {} params, kind {:?}, hidden {}",
        loaded.params.len(),
        loaded.config.kind,
        loaded.config.hidden
    );

    // ---- Serve: evolving graph, incremental window advances ---------
    let n = g.n();
    // Degree features like training uses, frozen at serving start.
    let feats = dgnn_tensor::Dense::from_fn(n, 2, |r, c| {
        let s = g.snapshot(g.t() - 1);
        let deg = if c == 0 {
            s.adj().row_degrees()[r]
        } else {
            s.adj().col_degrees()[r]
        };
        (deg as f32 + 1.0).ln()
    });
    // The session restores the trained model from the checkpoint and runs
    // its own GCN layers: what is served is what was trained.
    let mut session = InferenceSession::from_checkpoint(&loaded, feats).expect("servable");
    // Seed the serving graph with the last training snapshot's edges.
    let seed_events: Vec<EdgeEvent> = g
        .snapshot(g.t() - 1)
        .adj()
        .to_coo()
        .into_iter()
        .map(|(u, v, w)| EdgeEvent::add(0, u, v, w))
        .collect();
    session.ingest(&seed_events);
    session.advance();
    session.assert_matches_full();
    let server = InferenceServer::new(session);

    let mut rng = StdRng::seed_from_u64(99);
    for w in 1..=5u64 {
        // Live traffic: a few new interactions and dropped ones.
        let evs: Vec<EdgeEvent> = (0..12)
            .map(|_| {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if rng.gen_bool(0.75) {
                    EdgeEvent::add(w, u, v, 1.0)
                } else {
                    EdgeEvent::remove(w, u, v)
                }
            })
            .collect();
        let report = server.ingest_and_advance(&evs);
        let snap = server.snapshot();
        // Score a mix of live edges and random non-edges.
        let live: Vec<(u32, u32)> = evs.iter().take(3).map(|e| (e.src, e.dst)).collect();
        let scores = snap.score_links(&live);
        println!(
            "window {w}: touched {:>2} vertices, recomputed {:?} rows of {n}, \
             version {} | sample scores {:?}",
            report.touched,
            report.frontier_rows,
            snap.version,
            scores
                .iter()
                .map(|s| (s * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    println!("serving stayed bit-identical to full recompute throughout");
}
