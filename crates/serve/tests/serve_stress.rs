//! Stress test of concurrent serving, modeled on
//! `crates/sim/tests/collectives_stress.rs`: one writer ingests windows
//! and publishes snapshots while several reader threads hammer the
//! batched query API with live intra-rank thread pools. Every read must
//! observe one coherent published snapshot — version, clock, embeddings,
//! and digest all from the same advance (no torn reads) — and versions
//! must be monotone per reader.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use dgnn_autograd::ParamStore;
use dgnn_models::{LinkPredHead, Model, ModelConfig, ModelKind};
use dgnn_serve::{snapshot_digest, Checkpoint, InferenceServer, InferenceSession};
use dgnn_stream::EdgeEvent;
use dgnn_tensor::{pool, Dense};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 120;
const WINDOWS: u64 = 30;

/// A seeded checkpoint of a two-layer TM-GCN over 4 features, 8 wide.
fn model() -> Checkpoint {
    let cfg = ModelConfig {
        kind: ModelKind::TmGcn,
        input_f: 4,
        hidden: 8,
        mprod_window: 2,
        smoothing_window: 2,
    };
    let mut rng = StdRng::seed_from_u64(13);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    Checkpoint::from_store(&model, &head, &store)
}

/// The deterministic event batch of window `w` (mixed adds / removes /
/// weight updates over a bounded vertex set).
fn window_events(w: u64) -> Vec<EdgeEvent> {
    (0..12u32)
        .flat_map(|i| {
            let u = (i * 31 + w as u32 * 17) % N as u32;
            let v = (u * 7 + i + 1) % N as u32;
            match (w as u32 + i) % 3 {
                0 => vec![EdgeEvent::add(w, u, v, 1.0 + i as f32 / 8.0)],
                1 => vec![
                    EdgeEvent::add(w, u, v, 0.5),
                    EdgeEvent::remove(w, v % N as u32, (v * 3 + 1) % N as u32),
                ],
                _ => vec![EdgeEvent::update(w, u, v, 2.0)],
            }
        })
        .collect()
}

#[test]
fn concurrent_queries_never_see_torn_snapshots() {
    let session = InferenceSession::from_checkpoint(
        &model(),
        Dense::from_fn(N, 4, |r, c| ((r * 11 + c * 3) % 7) as f32 / 7.0),
    )
    .expect("servable");
    let server = Arc::new(InferenceServer::new(session));
    let done = Arc::new(AtomicBool::new(false));
    // version -> digest, recorded by the writer at publication.
    let ledger = Arc::new(Mutex::new(vec![(0u64, server.snapshot().digest)]));

    let writer = {
        let server = Arc::clone(&server);
        let done = Arc::clone(&done);
        let ledger = Arc::clone(&ledger);
        thread::spawn(move || {
            let _threads = pool::scoped_threads(Some(2));
            for w in 1..=WINDOWS {
                let report = server.ingest_and_advance(&window_events(w));
                assert_eq!(report.version, w, "windows publish in order");
                let snap = server.snapshot();
                ledger.lock().unwrap().push((snap.version, snap.digest));
            }
            done.store(true, Ordering::Release);
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|reader| {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                // Oversubscribed on purpose: reader pools contend with the
                // writer's recompute pool.
                let _threads = pool::scoped_threads(Some(2));
                let mut last_version = 0u64;
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) || reads == 0 {
                    let snap = server.snapshot();
                    // Coherence: the carried digest matches the data, and
                    // matches what the writer recorded for this version.
                    assert_eq!(
                        snap.recompute_digest(),
                        snap.digest,
                        "reader {reader}: torn snapshot at version {}",
                        snap.version
                    );
                    if let Some(&(_, recorded)) = ledger
                        .lock()
                        .unwrap()
                        .iter()
                        .find(|&&(v, _)| v == snap.version)
                    {
                        assert_eq!(
                            recorded, snap.digest,
                            "reader {reader}: version {} does not match the writer's ledger",
                            snap.version
                        );
                    }
                    // Monotonicity: published versions never go backwards.
                    assert!(
                        snap.version >= last_version,
                        "reader {reader}: version regressed {last_version} -> {}",
                        snap.version
                    );
                    last_version = snap.version;

                    // Batched queries on the frozen snapshot agree with a
                    // serial recomputation from the same snapshot.
                    let nodes: Vec<u32> = (0..16u32)
                        .map(|i| (i * 13 + reader as u32) % N as u32)
                        .collect();
                    let z = snap.predict_nodes(&nodes);
                    for (i, &u) in nodes.iter().enumerate() {
                        assert_eq!(
                            z.row(i),
                            snap.embeddings.row(u as usize),
                            "reader {reader}: gathered row mismatch"
                        );
                    }
                    let pairs: Vec<(u32, u32)> =
                        nodes.iter().map(|&u| (u, (u + 5) % N as u32)).collect();
                    let scores = snap.score_links(&pairs);
                    let again = snap.score_links(&pairs);
                    assert_eq!(
                        scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        again.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        "reader {reader}: scoring the same snapshot twice diverged"
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for r in readers {
        let reads = r.join().expect("reader panicked");
        assert!(reads > 0, "reader made no reads");
    }

    // Final state: the last published snapshot is the last window, its
    // digest re-derives, and the session still matches a full recompute.
    let snap = server.snapshot();
    assert_eq!(snap.version, WINDOWS);
    assert_eq!(
        snapshot_digest(snap.version, snap.clock, &snap.embeddings),
        snap.digest
    );
}
