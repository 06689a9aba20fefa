//! Checkpoint round-trip: a model trained by `train_single`, saved to the
//! versioned binary format, loaded back, and served — predictions must be
//! bit-identical to serving the original in-memory parameters, and link
//! scores are the trained head's own logit margins. Negative cases
//! (truncation, foreign magic, future format revision, flipped bits, a
//! missing or repeated parameter) must surface as typed
//! `CheckpointError`s, not panics.

use dgnn_autograd::ParamStore;
use dgnn_core::prelude::*;
use dgnn_core::task::{prepare_task_holdout, TaskOptions};
use dgnn_graph::EdgeSamples;
use dgnn_serve::{Checkpoint, CheckpointError, InferenceSession};
use dgnn_stream::EdgeEvent;
use dgnn_tensor::Dense;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained() -> (Model, LinkPredHead, ParamStore, usize) {
    let g = dgnn_graph::gen::churn_skewed(40, 6, 150, 0.3, 0.9, 5);
    let cfg = ModelConfig {
        kind: ModelKind::TmGcn,
        input_f: 2,
        hidden: 5,
        mprod_window: 3,
        smoothing_window: 3,
    };
    let task = prepare_task_holdout(&g, &cfg, &TaskOptions::default());
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let opts = TrainOptions {
        epochs: 3,
        lr: 0.05,
        nb: 2,
        seed: 3,
        threads: None,
    };
    let _ = train_single(&model, &head, &mut store, &task, &opts);
    (model, head, store, g.n())
}

/// Serves `cp` over a ring of `n` vertices: the link scores of a fixed
/// pair set, the pairs, and the final embeddings.
fn serve_scores(cp: &Checkpoint, n: usize) -> (Vec<f32>, Vec<(u32, u32)>, Dense) {
    let features = Dense::from_fn(n, 2, |r, c| ((r * 19 + c * 7) % 13) as f32 / 13.0);
    let mut session = InferenceSession::from_checkpoint(cp, features).expect("servable");
    let events: Vec<EdgeEvent> = (0..n as u32)
        .map(|u| EdgeEvent::add(0, u, (u * 11 + 1) % n as u32, 1.0))
        .collect();
    session.ingest(&events);
    session.advance();
    session.assert_matches_full();
    let pairs: Vec<(u32, u32)> = (0..n as u32).map(|u| (u, (u + 3) % n as u32)).collect();
    let scores = session.score_links(&pairs);
    (scores, pairs, session.embeddings().clone())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn save_load_serve_is_bit_identical() {
    let (model, head, store, n) = trained();
    let cp = Checkpoint::from_store(&model, &head, &store);
    let bytes = cp.to_bytes();
    let loaded = Checkpoint::from_bytes(&bytes).expect("decode");

    // Every parameter round-trips bit for bit.
    assert_eq!(loaded.params.len(), store.len());
    for (name, value) in &loaded.params {
        let id = store.id_of(name).expect("name survives");
        let orig = store.value(id);
        assert_eq!(orig.shape(), value.shape(), "{name}");
        assert!(
            orig.data()
                .iter()
                .zip(value.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name} changed bits across the roundtrip"
        );
    }

    // Serving the loaded checkpoint equals serving the live parameters.
    let (scores_live, pairs, emb_live) = serve_scores(&cp, n);
    let (scores_loaded, _, emb_loaded) = serve_scores(&loaded, n);
    assert_eq!(
        bits(emb_live.data()),
        bits(emb_loaded.data()),
        "embeddings diverge after reload"
    );
    assert_eq!(
        bits(&scores_live),
        bits(&scores_loaded),
        "link scores diverge after reload"
    );

    // A served score is the trained head's own logit margin.
    let (src, dst) = pairs.iter().copied().unzip();
    let samples = EdgeSamples {
        src,
        dst,
        labels: vec![0; pairs.len()],
    };
    let logits = head.predict(&store, &emb_live, &samples);
    let margins: Vec<f32> = (0..pairs.len())
        .map(|i| logits.get(i, 1) - logits.get(i, 0))
        .collect();
    assert_eq!(
        bits(&scores_live),
        bits(&margins),
        "scores are not the head's"
    );
}

#[test]
fn file_roundtrip_and_load_into_store() {
    let (model, head, store, _) = trained();
    let cp = Checkpoint::from_store(&model, &head, &store);
    let path = std::env::temp_dir().join(format!("dgnn_ckpt_{}.bin", std::process::id()));
    cp.save(&path).expect("save");
    let loaded = Checkpoint::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // Import into a freshly initialized store of the same architecture.
    let mut rng = StdRng::seed_from_u64(999); // different init on purpose
    let mut fresh = ParamStore::new();
    let model2 = Model::new(loaded.config, &mut fresh, &mut rng);
    let head2 = LinkPredHead::new(&mut fresh, loaded.head_emb, loaded.head_classes, &mut rng);
    assert_eq!(model2.config().hidden, model.config().hidden);
    assert_eq!(head2.classes(), head.classes());
    loaded.load_into(&mut fresh).expect("import");
    assert_eq!(fresh.values_flat(), store.values_flat());
}

#[test]
fn cdgcn_checkpoints_are_refused_with_a_typed_error() {
    // CD-GCN's gcn1.w consumes `hidden` rows because training interposes a
    // feature LSTM between the layers; a pure spatial stack cannot supply
    // that, so serving must refuse up front — typed, not a shape panic.
    let cfg = ModelConfig {
        kind: ModelKind::CdGcn,
        input_f: 2,
        hidden: 5,
        mprod_window: 3,
        smoothing_window: 3,
    };
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let model = Model::new(cfg, &mut store, &mut rng);
    let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
    let cp = Checkpoint::from_bytes(&Checkpoint::from_store(&model, &head, &store).to_bytes())
        .expect("the checkpoint itself decodes fine");
    let features = Dense::zeros(8, cfg.input_f);
    assert!(matches!(
        InferenceSession::from_checkpoint(&cp, features),
        Err(CheckpointError::UnsupportedModel(_))
    ));
}

/// A checkpoint must assign every parameter of the model its header names
/// exactly once: one that lacks `gcn1.w` would leave the store's random
/// initial value in place, and serving would serve it.
#[test]
fn incomplete_and_repeated_checkpoints_are_refused() {
    let (model, head, store, n) = trained();
    let cp = Checkpoint::from_store(&model, &head, &store);
    let fresh_store = || {
        let mut rng = StdRng::seed_from_u64(999);
        let mut fresh = ParamStore::new();
        let _ = Model::new(cp.config, &mut fresh, &mut rng);
        let _ = LinkPredHead::new(&mut fresh, cp.head_emb, cp.head_classes, &mut rng);
        fresh
    };
    let reencode = |cp: Checkpoint| Checkpoint::from_bytes(&cp.to_bytes()).expect("decodes");

    for missing in ["gcn1.w", "gcn1.b"] {
        let mut lacking = cp.clone();
        lacking.params.retain(|(name, _)| name != missing);
        let lacking = reencode(lacking);
        assert!(
            matches!(
                lacking.load_into(&mut fresh_store()),
                Err(CheckpointError::StoreMismatch(_))
            ),
            "imported a checkpoint without {missing}"
        );
        let features = Dense::zeros(n, cp.config.input_f);
        assert!(
            matches!(
                InferenceSession::from_checkpoint(&lacking, features),
                Err(CheckpointError::StoreMismatch(_))
            ),
            "served a checkpoint without {missing}"
        );
    }

    let mut repeated = cp.clone();
    let first = repeated.params[0].clone();
    repeated.params.push(first);
    let repeated = reencode(repeated);
    assert!(matches!(
        repeated.load_into(&mut fresh_store()),
        Err(CheckpointError::StoreMismatch(_))
    ));
    // The complete checkpoint still imports.
    cp.load_into(&mut fresh_store())
        .expect("complete checkpoint");
}

#[test]
fn load_into_mismatched_store_is_typed() {
    let (model, head, store, _) = trained();
    let cp = Checkpoint::from_store(&model, &head, &store);
    let mut empty = ParamStore::new();
    assert!(matches!(
        cp.load_into(&mut empty),
        Err(CheckpointError::StoreMismatch(_))
    ));
    // Same names, wrong shape.
    let mut wrong = ParamStore::new();
    for (name, _) in &cp.params {
        wrong.add(name.clone(), Dense::zeros(1, 1));
    }
    assert!(matches!(
        cp.load_into(&mut wrong),
        Err(CheckpointError::StoreMismatch(_))
    ));
}

#[test]
fn truncated_and_corrupt_files_are_typed_errors() {
    let (model, head, store, _) = trained();
    let bytes = Checkpoint::from_store(&model, &head, &store).to_bytes();

    // Truncation at a spread of prefixes, including mid-header and
    // mid-payload.
    for len in [
        0,
        3,
        7,
        9,
        bytes.len() / 3,
        bytes.len() - 5,
        bytes.len() - 1,
    ] {
        assert!(
            matches!(
                Checkpoint::from_bytes(&bytes[..len]),
                Err(CheckpointError::Truncated)
            ),
            "prefix {len}"
        );
    }

    // Foreign magic.
    let mut foreign = bytes.clone();
    foreign[..4].copy_from_slice(b"PNG\0");
    assert!(matches!(
        Checkpoint::from_bytes(&foreign),
        Err(CheckpointError::BadMagic(_))
    ));

    // A future format revision is refused with the found revision.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&7u32.to_le_bytes());
    match Checkpoint::from_bytes(&future) {
        Err(CheckpointError::UnsupportedVersion { found }) => assert_eq!(found, 7),
        other => panic!("unexpected {other:?}"),
    }

    // A flipped payload bit fails the checksum.
    let mut corrupt = bytes.clone();
    let idx = corrupt.len() - 16;
    corrupt[idx] ^= 0x01;
    assert!(matches!(
        Checkpoint::from_bytes(&corrupt),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));
}
