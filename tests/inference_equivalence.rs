//! The incremental-recompute contract of `dgnn-serve`: for arbitrary
//! event streams cut into arbitrary windows, the cached per-layer
//! activations maintained by frontier recompute are **bit-identical** to a
//! from-scratch forward over the materialized graph — at every thread
//! count (`DGNN_THREADS` 1 and 4 are the CI matrix; both are swept here
//! explicitly as well).

use dgnn_autograd::ParamStore;
use dgnn_models::{LinkPredHead, Model, ModelConfig, ModelKind};
use dgnn_serve::{Checkpoint, InferenceSession};
use dgnn_stream::{EdgeEvent, EventKind};
use dgnn_tensor::{pool, Dense};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded checkpoint of a two-layer `kind` model over `input_f` features.
fn model(kind: ModelKind, input_f: usize, hidden: usize) -> Checkpoint {
    let cfg = ModelConfig {
        kind,
        input_f,
        hidden,
        mprod_window: 3,
        smoothing_window: 3,
    };
    let mut rng = StdRng::seed_from_u64(21);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    Checkpoint::from_store(&model, &head, &store)
}

/// A session serving `cp` over an empty graph.
fn open(cp: &Checkpoint, features: Dense) -> InferenceSession {
    InferenceSession::from_checkpoint(cp, features).expect("servable")
}

fn features(n: usize, f: usize) -> Dense {
    Dense::from_fn(n, f, |r, c| ((r * 37 + c * 23) % 29) as f32 / 29.0 - 0.4)
}

/// Decodes a raw `(op, src, dst, weight)` tuple into an event at `time`.
fn event(time: u64, op: u8, src: u32, dst: u32, w: f32) -> EdgeEvent {
    let kind = match op % 3 {
        0 => EventKind::Add,
        1 => EventKind::Remove,
        _ => EventKind::UpdateWeight,
    };
    EdgeEvent {
        time,
        src,
        dst,
        kind,
        weight: w,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random streams, random window cuts, both servable architectures:
    /// after every advance the session equals the full forward bitwise,
    /// and at every swept thread count the recompute lands on the same
    /// bits.
    #[test]
    fn incremental_equals_full_forward(
        n in 8usize..24,
        raw in proptest::collection::vec(
            (0u8..6, 0u32..24, 0u32..24, 0.25f32..4.0),
            1..120,
        ),
        windows in 1usize..6,
        evolve in any::<bool>(),
    ) {
        let kind = if evolve { ModelKind::EvolveGcn } else { ModelKind::TmGcn };
        let cp = model(kind, 3, 5);
        let events: Vec<EdgeEvent> = raw
            .iter()
            .enumerate()
            .map(|(i, &(op, s, d, w))| {
                event(i as u64, op, s % n as u32, d % n as u32, w)
            })
            .collect();
        let mut per_thread_bits: Vec<Vec<u32>> = Vec::new();
        for threads in [1usize, 4] {
            let _g = pool::scoped_threads(Some(threads));
            let mut session = open(&cp, features(n, 3));
            let per = events.len().div_ceil(windows);
            for chunk in events.chunks(per) {
                session.ingest(chunk);
                session.advance();
                session.assert_matches_full();
            }
            per_thread_bits.push(
                session
                    .embeddings()
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
        }
        // The embeddings are a pure function of the stream, independent of
        // the thread count.
        prop_assert_eq!(&per_thread_bits[0], &per_thread_bits[1]);
    }
}

/// An engaged-size deterministic run: large enough that the pool actually
/// splits the kernels at 4 threads, advancing several windows with mixed
/// churn, checked bitwise against the full forward each window.
#[test]
fn engaged_size_stream_stays_bitwise_equal() {
    let n = 600usize;
    for threads in [1usize, 4] {
        let _g = pool::scoped_threads(Some(threads));
        let mut session = open(&model(ModelKind::TmGcn, 8, 32), features(n, 8));
        // Bulk load: a ring plus long-range chords.
        let bulk: Vec<EdgeEvent> = (0..n as u32)
            .flat_map(|u| {
                [
                    EdgeEvent::add(0, u, (u + 1) % n as u32, 1.0),
                    EdgeEvent::add(0, u, (u * 7 + 3) % n as u32, 0.5),
                ]
            })
            .collect();
        session.ingest(&bulk);
        session.advance();
        session.assert_matches_full();
        // Churn windows: removals, weight updates, inserts.
        for w in 1..4u64 {
            let evs: Vec<EdgeEvent> = (0..20u32)
                .flat_map(|i| {
                    let u = (i * 37 + w as u32 * 101) % n as u32;
                    let v = (u + 1) % n as u32;
                    [
                        EdgeEvent::remove(w, u, v),
                        EdgeEvent::add(w, u, (u * 13 + 5) % n as u32, 2.0),
                        EdgeEvent::update(w, u, (u * 7 + 3) % n as u32, 0.25),
                    ]
                })
                .collect();
            session.ingest(&evs);
            let report = session.advance();
            assert!(report.touched > 0);
            // The frontier stays a strict subset of the graph on gradual
            // churn — that locality is the whole point.
            assert!(
                report.frontier_rows.iter().all(|&f| f < n),
                "frontier covered the whole graph"
            );
            session.assert_matches_full();
        }
    }
}

/// Windows on both sides of the wide-frontier threshold: a bulk load and a
/// burst dirty at least half of the rows and take the plain forward over
/// all of them (`frontier_rows == n` at every layer); a trickle stays on
/// the frontier path. The contract is the same bitwise equality either way,
/// at a size where the pool splits the kernels.
#[test]
fn wide_and_narrow_windows_stay_bitwise_equal() {
    let n = 600usize;
    for threads in [1usize, 4] {
        let _g = pool::scoped_threads(Some(threads));
        let mut session = open(&model(ModelKind::EvolveGcn, 8, 32), features(n, 8));
        let bulk: Vec<EdgeEvent> = (0..n as u32)
            .map(|u| EdgeEvent::add(0, u, (u * 7 + 3) % n as u32, 0.5))
            .collect();
        session.ingest(&bulk);
        let report = session.advance();
        assert_eq!(report.frontier_rows, [n, n], "bulk load is a wide window");
        session.assert_matches_full();

        // A burst: weight updates on a quarter of the edges reach over
        // half of the rows through their neighborhoods.
        let burst: Vec<EdgeEvent> = (0..n as u32)
            .step_by(4)
            .map(|u| EdgeEvent::update(1, u, (u * 7 + 3) % n as u32, 1.5))
            .collect();
        session.ingest(&burst);
        let report = session.advance();
        assert!(report.touched < n);
        assert_eq!(report.frontier_rows, [n, n], "burst is a wide window");
        session.assert_matches_full();

        // A trickle: three events, a frontier of a few dozen rows.
        session.ingest(&[
            EdgeEvent::remove(2, 0, 3),
            EdgeEvent::add(2, 5, 300, 2.0),
            EdgeEvent::update(2, 9, 66, 0.25),
        ]);
        let report = session.advance();
        assert!(report.frontier_rows[0] * 2 < n, "trickle stays narrow");
        assert!(report.frontier_rows.iter().all(|&f| f < n));
        session.assert_matches_full();
    }
}
