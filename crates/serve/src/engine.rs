//! The incremental inference engine: the trained model's own GCN layers
//! (`dgnn_models::GcnLayer`, the forward training runs) over the live
//! graph, recomputing only the multi-hop frontier of touched vertices on
//! each window advance.
//!
//! ## The incremental-recompute contract
//!
//! After every [`InferenceSession::advance`], each cached layer activation
//! is **bit-identical** to what [`InferenceSession::full_forward`] computes
//! from scratch on the materialized graph. The argument has three legs:
//!
//! 1. *Locality of the operator.* Row `u` of the normalized Laplacian
//!    `Ã[u, v] = a_uv · d(u)^{-1/2} · d(v)^{-1/2}` depends only on row `u`
//!    of the symmetrized adjacency `½(A + Aᵀ)` — `u`'s out- and in-edges —
//!    and the degrees of `u` and its neighbors. An edge touch changes the
//!    rows and degrees of its two endpoints only, so the set of changed
//!    `Ã` rows is contained in `T ∪ N(T)` (touched vertices and their new
//!    neighborhood — a removed edge's partner is itself touched).
//! 2. *Locality of the layers.* Layer output row `u` is a function of `Ã`
//!    row `u` and the previous layer's rows at `u`'s neighbors, so the
//!    dirty set expands by one hop per GCN layer:
//!    `F_0 = T ∪ N(T)`, `F_{l+1} = F_l ∪ N(F_l)`.
//! 3. *Bitwise-reproducible row arithmetic.* Rebuilt `Ã` rows, the
//!    row-subset SpMM ([`Csr::spmm_rows`]) and the layer itself (its GEMM
//!    and the fused bias + ReLU tail, both row-wise) run the exact per-row
//!    expression the full path runs, and rows outside the frontier keep
//!    cached values whose inputs did not change — equal expressions over
//!    equal bits give equal bits, at every thread count (the PR-2
//!    determinism contract).
//!
//! Both expansions are [`frontier::expand`], and a window whose `F_0`
//! crosses [`frontier::recompute_all`] (half of the vertices) skips the
//! frontier machinery and recomputes every row from the refreshed
//! operator — leg 3 with "frontier" read as "all rows".
//!
//! Events are ingested as **directed edges**, exactly as sent: the session
//! keeps the directed adjacency `A` and, beside it, its transpose `Aᵀ`, so
//! row `u` of `½(A + Aᵀ)` is a merge of two sorted rows. Both the full and
//! the incremental build go through `dgnn_tensor`'s row-level
//! [`push_laplacian_row`], the one training's [`normalized_laplacian`]
//! runs, so the served operator is bit for bit the `Snapshot::laplacian`
//! of [`InferenceSession::graph`]'s materialization — the operator the
//! model was trained on. Neighborhoods (`N(T)` and the per-layer
//! expansions) are taken in `½(A + Aᵀ)`, i.e. over out- and in-edges.

use dgnn_autograd::{ParamStore, Tape};
use dgnn_graph::{frontier, GraphDiff};
use dgnn_models::{link_logits, LinkPredHead, Model, ModelKind};
use dgnn_stream::{DeltaBatcher, EdgeEvent, StreamingGraph};
use dgnn_telemetry::trace;
use dgnn_tensor::{laplacian_degree, normalized_laplacian, push_laplacian_row, Csr, Dense};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{Checkpoint, CheckpointError};

/// Link scores: the positive-class logit margin `logit₁ − logit₀` of each
/// pair under the head `(u, b)`, over the models' own [`link_logits`]. All
/// kernels involved (row gather, GEMM, bias broadcast) run on the
/// intra-rank thread pool and are bit-stable at every thread count.
pub(crate) fn link_margins(u: &Dense, b: &Dense, z: &Dense, pairs: &[(u32, u32)]) -> Vec<f32> {
    let (src, dst): (Vec<u32>, Vec<u32>) = pairs.iter().copied().unzip();
    let logits = link_logits(u, b, z, &src, &dst);
    (0..pairs.len())
        .map(|i| logits.get(i, 1) - logits.get(i, 0))
        .collect()
}

/// What one [`InferenceSession::advance`] did.
#[derive(Clone, Debug)]
pub struct AdvanceReport {
    /// Monotone snapshot version after the advance.
    pub version: u64,
    /// The §3.2 graph difference of the directed graph over this window
    /// (subscription hook for replicas / transfer accounting).
    pub diff: GraphDiff,
    /// Vertices touched by the window's events.
    pub touched: usize,
    /// Recomputed rows per GCN layer: the multi-hop frontier sizes, or `n`
    /// at every layer when the window was wide enough (see
    /// [`InferenceSession::advance`]) that all rows were recomputed.
    pub frontier_rows: Vec<usize>,
}

/// A live inference session: a trained model restored from a checkpoint,
/// fixed node features, an evolving graph, and cached per-layer activations
/// maintained by frontier recompute.
pub struct InferenceSession {
    model: Model,
    head: LinkPredHead,
    /// The checkpoint's parameter values, bound by `model` and `head`.
    params: ParamStore,
    features: Dense,
    /// The directed graph and its delta journal.
    batcher: DeltaBatcher,
    /// The transpose of the batcher's graph: row `u` holds `u`'s in-edges.
    transpose: StreamingGraph,
    /// `1/√(1 + deg(u))` per vertex, maintained alongside the graph.
    isd: Vec<f32>,
    /// The current normalized operator.
    a_hat: Csr,
    /// Cached layer outputs over the current snapshot (`N × width_l`).
    acts: Vec<Dense>,
    version: u64,
}

impl InferenceSession {
    /// Opens a session over an empty graph of `features.rows()` vertices,
    /// serving the checkpoint's model: `Model::new` and `LinkPredHead::new`
    /// build the architecture its header names, and
    /// [`Checkpoint::load_into`] overwrites every parameter with the
    /// checkpoint's value.
    ///
    /// Serving runs the spatial GCN stack of the first timestep's weights,
    /// so CD-GCN, whose second layer consumes its feature LSTM's output, is
    /// refused, as is a head that cannot score a two-class margin over the
    /// model's embeddings. The header's widths are checked against the
    /// stored weight shapes before anything is built from them, so a forged
    /// header cannot drive an allocation larger than the file.
    ///
    /// # Panics
    /// Panics when `features` is not `input_f` columns wide.
    pub fn from_checkpoint(cp: &Checkpoint, features: Dense) -> Result<Self, CheckpointError> {
        let cfg = cp.config;
        if cfg.kind == ModelKind::CdGcn {
            return Err(CheckpointError::UnsupportedModel(
                "CD-GCN's second GCN layer consumes its feature LSTM's output, a temporal \
                 component serving does not run"
                    .into(),
            ));
        }
        if cp.head_classes < 2 || cp.head_emb != cfg.embedding_dim() {
            return Err(CheckpointError::UnsupportedModel(format!(
                "link scoring needs a >= 2-class head over {}-wide embeddings \
                 (the head has {} classes over {}-wide ones)",
                cfg.embedding_dim(),
                cp.head_classes,
                cp.head_emb
            )));
        }
        let expected = (0..cfg.layers())
            .map(|l| (format!("gcn{l}.w"), (cfg.gcn_in(l), cfg.hidden)))
            .chain([("head.u".to_string(), (2 * cp.head_emb, cp.head_classes))]);
        for (name, shape) in expected {
            let stored = cp.param(&name).map(Dense::shape);
            if stored != Some(shape) {
                return Err(CheckpointError::StoreMismatch(format!(
                    "the header implies {name} is {shape:?} but the checkpoint stores {stored:?}"
                )));
            }
        }

        // Any seed: `load_into` overwrites every value it draws.
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = ParamStore::new();
        let model = Model::new(cfg, &mut params, &mut rng);
        let head = LinkPredHead::new(&mut params, cp.head_emb, cp.head_classes, &mut rng);
        cp.load_into(&mut params)?;

        assert_eq!(
            features.cols(),
            cfg.input_f,
            "feature width does not match the first layer"
        );
        let n = features.rows();
        let mut s = Self {
            model,
            head,
            params,
            features,
            batcher: DeltaBatcher::new(n),
            transpose: StreamingGraph::new(n),
            // The graph is empty: every degree is the self-loop's 1.
            isd: vec![1.0; n],
            a_hat: Csr::empty(n, n),
            acts: Vec::new(),
            version: 0,
        };
        // Refreshing every row of the empty stale operator takes the
        // structural path, which builds the whole operator.
        let all: Vec<u32> = (0..n as u32).collect();
        s.refresh_lap_rows(&all);
        s.forward_all_rows();
        Ok(s)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.features.rows()
    }

    /// Monotone snapshot version (bumped by every advance).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The live directed graph: every ingested event applied once, as
    /// sent. The served operator is `Snapshot::laplacian` of its
    /// materialization.
    pub fn graph(&self) -> &StreamingGraph {
        self.batcher.graph()
    }

    /// The head's projection and bias (shared with published snapshots).
    pub(crate) fn head(&self) -> (&Dense, &Dense) {
        (
            self.params.value(self.head.u),
            self.params.value(self.head.b),
        )
    }

    /// Final-layer embeddings over the current snapshot (`N × emb`).
    pub fn embeddings(&self) -> &Dense {
        self.acts.last().unwrap()
    }

    /// Ingests timestamped events (time-ordered, as a stream delivers
    /// them). Each event is a directed edge: it is applied to the directed
    /// graph as sent and, with its endpoints swapped, to the transpose.
    /// Queries keep answering from the current snapshot until
    /// [`InferenceSession::advance`] closes the window.
    pub fn ingest(&mut self, events: &[EdgeEvent]) {
        for ev in events {
            self.batcher.apply(ev);
            self.transpose.apply(&EdgeEvent {
                src: ev.dst,
                dst: ev.src,
                ..*ev
            });
        }
    }

    /// Closes the window: refreshes the normalized operator rows invalidated
    /// by the ingested events and recomputes exactly the per-layer frontier
    /// of activation rows they can reach. Embeddings afterwards are
    /// bit-identical to [`InferenceSession::full_forward`].
    ///
    /// A window whose first-layer frontier `T ∪ N(T)` already covers half
    /// of the vertices (a bulk load, a burst) takes the plain forward over
    /// all rows instead: by the second layer its frontier is nearly
    /// everything, and gathering, recomputing and scattering nearly every
    /// row costs about twice the full product. Same row expressions over
    /// the same operator, so the bits do not depend on which path ran.
    pub fn advance(&mut self) -> AdvanceReport {
        let _span = trace::span_cat("advance_incremental", "serve");
        let touched = self.batcher.touched_vertices();
        let diff = self.batcher.flush();
        self.version += 1;
        if touched.is_empty() {
            return AdvanceReport {
                version: self.version,
                diff,
                touched: 0,
                frontier_rows: vec![0; self.layers()],
            };
        }

        // Degrees changed only at touched vertices.
        for &u in &touched {
            let [out, inn] = self.rows(u);
            self.isd[u as usize] = laplacian_degree(u, out, inn).1;
        }

        // Ã rows needing rebuild: touched vertices and their (new)
        // neighborhood — a dropped edge's partner is itself touched.
        let mut dirty = frontier::expand(&touched, self.n(), |u| {
            let [out, inn] = self.rows(u);
            out.chain(inn).map(|(c, _)| c)
        });
        self.refresh_lap_rows(&dirty);
        if frontier::recompute_all(dirty.len(), self.n()) {
            self.forward_all_rows();
            return AdvanceReport {
                version: self.version,
                diff,
                touched: touched.len(),
                frontier_rows: vec![self.n(); self.layers()],
            };
        }

        // Per-layer frontier recompute over the cached activations: `dirty`
        // holds `F_l`.
        let mut frontier_rows = Vec::with_capacity(self.layers());
        for l in 0..self.layers() {
            frontier_rows.push(dirty.len());
            let input = if l == 0 {
                &self.features
            } else {
                &self.acts[l - 1]
            };
            let rows = self.layer_rows(l, self.a_hat.spmm_rows(input, &dirty));
            self.acts[l].set_rows(&dirty, &rows);
            if l + 1 < self.layers() {
                let a_hat = &self.a_hat;
                dirty = frontier::expand(&dirty, self.n(), |u| {
                    a_hat.row_iter(u as usize).map(|(c, _)| c)
                });
            }
        }

        AdvanceReport {
            version: self.version,
            diff,
            touched: touched.len(),
            frontier_rows,
        }
    }

    /// Batched node-embedding lookup (`out[i] = Z[nodes[i]]`).
    pub fn predict_nodes(&self, nodes: &[u32]) -> Dense {
        self.embeddings().gather_rows(nodes)
    }

    /// Batched link scoring: positive-class logit margin per pair.
    pub fn score_links(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
        let (u, b) = self.head();
        link_margins(u, b, self.embeddings(), pairs)
    }

    /// The from-scratch reference: materializes the graph, builds the full
    /// normalized operator, and runs the whole forward. Returns every
    /// layer's activations. This is what the cached state is contractually
    /// bit-identical to after each advance.
    pub fn full_forward(&self) -> Vec<Dense> {
        let a_full = normalized_laplacian(&self.graph().materialize());

        let mut acts = Vec::with_capacity(self.layers());
        for l in 0..self.layers() {
            let input = if l == 0 { &self.features } else { &acts[l - 1] };
            acts.push(self.layer_rows(l, a_full.spmm(input)));
        }
        acts
    }

    /// Asserts the cached activations equal the from-scratch forward bit
    /// for bit (test/bench guard).
    pub fn assert_matches_full(&self) {
        let full = self.full_forward();
        for (l, (cached, fresh)) in self.acts.iter().zip(&full).enumerate() {
            assert_eq!(cached.shape(), fresh.shape(), "layer {l} shape");
            for (i, (a, b)) in cached.data().iter().zip(fresh.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "layer {l} diverges at flat index {i}: {a} vs {b}"
                );
            }
        }
    }

    /// Number of GCN layers.
    fn layers(&self) -> usize {
        self.model.gcn_layers().len()
    }

    /// GCN layer `l` over pre-aggregated rows `agg` (`Ã·X` on any row
    /// subset): training's [`GcnLayer::forward_preaggregated`](dgnn_models::GcnLayer::forward_preaggregated), recorded on
    /// a tape that lives for this call. Nothing differentiates it; the
    /// output moves out and the rest of the tape is recycled.
    fn layer_rows(&self, l: usize, agg: Dense) -> Dense {
        let layer = &self.model.gcn_layers()[l];
        let mut tape = Tape::new();
        let vars = layer.bind(&mut tape, &self.params);
        let agg = tape.constant(agg);
        let out = layer.forward_preaggregated(&mut tape, vars, agg);
        tape.into_value(out)
    }

    /// Row `u` of the directed graph and of its transpose.
    fn rows(&self, u: u32) -> [impl Iterator<Item = (u32, f32)> + '_; 2] {
        [self.graph().row(u), self.transpose.row(u)].map(|r| r.iter().copied())
    }

    /// Recomputes every row of every cached activation from the current
    /// operator: the layers of [`InferenceSession::full_forward`] without
    /// rebuilding the operator it starts from. No cached matrix is an input
    /// of the recompute, so all are dropped first: beside the new layers,
    /// only one layer's aggregation, product and output are alive.
    fn forward_all_rows(&mut self) {
        self.acts.clear();
        for l in 0..self.layers() {
            let input = self.acts.last().unwrap_or(&self.features);
            let out = self.layer_rows(l, self.a_hat.spmm(input));
            self.acts.push(out);
        }
    }

    /// Refreshes the operator's `dirty` rows (sorted ascending) from the
    /// live graph.
    ///
    /// When no dirty row changes its column structure — weight-only churn,
    /// or degree-induced rescaling of neighbor rows, both of which leave
    /// sparsity untouched — the new values are patched **in place**, and
    /// the advance cost tracks the frontier instead of paying the
    /// O(n + nnz) whole-CSR splice. Structural edits fall back to the
    /// splice. Either path writes exactly the bytes [`push_laplacian_row`]
    /// produces, so the bitwise contract is unaffected.
    fn refresh_lap_rows(&mut self, dirty: &[u32]) {
        // Build every rebuilt row once, into one scratch arena.
        let mut scratch_idx: Vec<u32> = Vec::with_capacity(dirty.len() * 8);
        let mut scratch_val: Vec<f32> = Vec::with_capacity(dirty.len() * 8);
        let mut bounds: Vec<usize> = Vec::with_capacity(dirty.len() + 1);
        bounds.push(0);
        for &u in dirty {
            let [out, inn] = self.rows(u);
            push_laplacian_row(u, out, inn, &self.isd, &mut scratch_idx, &mut scratch_val);
            bounds.push(scratch_idx.len());
        }

        let structural = dirty.iter().enumerate().any(|(i, &u)| {
            let (lo, hi) = (
                self.a_hat.indptr()[u as usize],
                self.a_hat.indptr()[u as usize + 1],
            );
            self.a_hat.indices()[lo..hi] != scratch_idx[bounds[i]..bounds[i + 1]]
        });
        if !structural {
            let starts: Vec<usize> = dirty
                .iter()
                .map(|&u| self.a_hat.indptr()[u as usize])
                .collect();
            let values = self.a_hat.values_mut();
            for (i, &lo) in starts.iter().enumerate() {
                let (s, e) = (bounds[i], bounds[i + 1]);
                values[lo..lo + (e - s)].copy_from_slice(&scratch_val[s..e]);
            }
            return;
        }

        // Structural splice: one pass over the old operator, dirty rows
        // taken from the scratch arena.
        let n = self.n();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices: Vec<u32> = Vec::with_capacity(self.a_hat.nnz() + scratch_idx.len() + n);
        let mut values: Vec<f32> = Vec::with_capacity(indices.capacity());
        indptr.push(0);
        let mut d = 0usize;
        for u in 0..n as u32 {
            if d < dirty.len() && dirty[d] == u {
                let (s, e) = (bounds[d], bounds[d + 1]);
                d += 1;
                indices.extend_from_slice(&scratch_idx[s..e]);
                values.extend_from_slice(&scratch_val[s..e]);
            } else {
                let old_indptr = self.a_hat.indptr();
                let (lo, hi) = (old_indptr[u as usize], old_indptr[u as usize + 1]);
                indices.extend_from_slice(&self.a_hat.indices()[lo..hi]);
                values.extend_from_slice(&self.a_hat.values()[lo..hi]);
            }
            indptr.push(indices.len());
        }
        debug_assert_eq!(d, dirty.len(), "dirty rows must be sorted and in range");
        self.a_hat = Csr::from_parts(n, n, indptr, indices, values);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::rc::Rc;

    use dgnn_models::ModelConfig;
    use dgnn_tensor::pool;

    use super::*;

    /// A seeded checkpoint of a real two-layer `kind` model, its biases
    /// spread over both signs so that where the bias enters the layer
    /// shows in the output.
    fn tiny_model(kind: ModelKind, input_f: usize, hidden: usize) -> Checkpoint {
        let cfg = ModelConfig {
            kind,
            input_f,
            hidden,
            mprod_window: 2,
            smoothing_window: 2,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let model = Model::new(cfg, &mut store, &mut rng);
        let head = LinkPredHead::new(&mut store, cfg.embedding_dim(), 2, &mut rng);
        let mut cp = Checkpoint::from_store(&model, &head, &store);
        for (name, value) in &mut cp.params {
            if name.ends_with(".b") {
                *value = Dense::from_fn(1, value.cols(), |_, c| (c % 3) as f32 * 0.05 - 0.04);
            }
        }
        cp
    }

    /// A session serving a `hidden`-wide TM-GCN checkpoint over `features`.
    pub(crate) fn tiny_session(hidden: usize, features: Dense) -> InferenceSession {
        let cp = tiny_model(ModelKind::TmGcn, features.cols(), hidden);
        InferenceSession::from_checkpoint(&cp, features).expect("servable")
    }

    fn feats(n: usize, f: usize) -> Dense {
        Dense::from_fn(n, f, |r, c| ((r * 13 + c * 5) % 11) as f32 / 11.0)
    }

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The layer arithmetic serving ran before it ran training's layer:
    /// `agg · W`, then `+= b` row by row, then ReLU as `v > 0 ? v : 0`.
    fn reference_layer(agg: &Dense, w: &Dense, b: &Dense) -> Dense {
        let mut pre = agg.matmul(w);
        let cols = pre.cols();
        for row in pre.data_mut().chunks_mut(cols) {
            for (o, &b) in row.iter_mut().zip(b.data()) {
                *o += b;
            }
        }
        pre.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    /// Asserts every cached activation equals [`reference_layer`] run over
    /// the session's operator and weights, bit for bit.
    fn assert_matches_reference(s: &InferenceSession) {
        let mut input = &s.features;
        for (l, g) in s.model.gcn_layers().iter().enumerate() {
            let agg = s.a_hat.spmm(input);
            let want = reference_layer(&agg, s.params.value(g.w), s.params.value(g.b));
            assert_eq!(bits(&s.acts[l]), bits(&want), "layer {l}");
            input = &s.acts[l];
        }
    }

    #[test]
    fn empty_graph_forward_is_identity_operator() {
        let s = tiny_session(4, feats(6, 3));
        // With no edges Ã = I: layer 0 is the layer applied to X itself.
        let g = &s.model.gcn_layers()[0];
        let expect = reference_layer(&feats(6, 3), s.params.value(g.w), s.params.value(g.b));
        assert_eq!(bits(&s.acts[0]), bits(&expect));
        s.assert_matches_full();
    }

    /// Serving through training's layer moved no served bit: after a wide
    /// window and after a narrow one, at 1 and 4 threads, every cached
    /// activation equals the arithmetic of serving's former layer copy.
    #[test]
    fn served_layers_equal_the_former_serving_arithmetic() {
        let n = 600usize;
        for threads in [1usize, 4] {
            let _g = pool::scoped_threads(Some(threads));
            let mut s = tiny_session(32, feats(n, 8));
            let bulk: Vec<EdgeEvent> = (0..n as u32)
                .map(|u| EdgeEvent::add(0, u, (u * 7 + 3) % n as u32, 0.5))
                .collect();
            s.ingest(&bulk);
            assert_eq!(s.advance().frontier_rows, [n, n], "wide window");
            assert_matches_reference(&s);
            s.ingest(&[
                EdgeEvent::remove(1, 0, 3),
                EdgeEvent::add(1, 5, 300, 2.0),
                EdgeEvent::update(1, 9, 66, 0.25),
            ]);
            let r = s.advance();
            assert!(r.frontier_rows.iter().all(|&f| f * 2 < n), "narrow window");
            assert_matches_reference(&s);
        }
    }

    /// Serving what was trained: one timestep of training's forward
    /// (`spatial` → `temporal` → `spatial`) over a snapshot's operator
    /// equals the session's full forward over the same edges. EvolveGCN's
    /// first timestep runs the stored `W₀` and an identity temporal step,
    /// so both layers match; TM-GCN is checked at layer 0.
    #[test]
    fn full_forward_is_the_training_forward_of_one_timestep() {
        let g = dgnn_graph::gen::churn(60, 3, 150, 0.2, 7);
        let snap = g.snapshot(2);
        let events: Vec<EdgeEvent> = snap
            .adj()
            .to_coo()
            .into_iter()
            .map(|(u, v, w)| EdgeEvent::add(0, u, v, w))
            .collect();
        for (kind, layers) in [(ModelKind::EvolveGcn, 2), (ModelKind::TmGcn, 1)] {
            let cp = tiny_model(kind, 3, 4);
            let mut s = InferenceSession::from_checkpoint(&cp, feats(60, 3)).expect("servable");
            s.ingest(&events);
            s.advance();
            let served = s.full_forward();

            let mut tape = Tape::new();
            let carry = s.model.initial_carry(60);
            let mut seg = s.model.bind_segment(&mut tape, &s.params, 0..1, &carry);
            let a_hat = Rc::new(snap.laplacian());
            let x = tape.constant(s.features.clone());
            let h0 = seg.spatial(&mut tape, 0, 0, Rc::clone(&a_hat), x);
            let t0 = seg.temporal(&mut tape, 0, 0, &[h0])[0];
            let h1 = seg.spatial(&mut tape, 1, 0, a_hat, t0);
            for (l, v) in [h0, h1].into_iter().take(layers).enumerate() {
                assert_eq!(bits(tape.value(v)), bits(&served[l]), "{kind:?} layer {l}");
            }
        }
    }

    /// `Model::new` allocates from the header's widths. A header claiming
    /// `u32::MAX` of each would ask for a `gcn0.w` beyond `isize::MAX`
    /// bytes; the stored shapes refuse it first.
    #[test]
    fn forged_header_widths_are_refused_before_allocating() {
        let mut cp = tiny_model(ModelKind::TmGcn, 2, 3);
        let huge = u32::MAX as usize;
        (cp.config.input_f, cp.config.hidden, cp.head_emb) = (huge, huge, huge);
        let cp = Checkpoint::from_bytes(&cp.to_bytes()).expect("the file itself decodes");
        assert!(matches!(
            InferenceSession::from_checkpoint(&cp, feats(4, 2)),
            Err(CheckpointError::StoreMismatch(_))
        ));
    }

    #[test]
    fn single_advance_matches_full_forward() {
        let mut s = tiny_session(4, feats(8, 3));
        s.ingest(&[
            EdgeEvent::add(0, 0, 1, 1.0),
            EdgeEvent::add(0, 1, 2, 0.5),
            EdgeEvent::add(0, 5, 6, 2.0),
        ]);
        let report = s.advance();
        assert_eq!(report.version, 1);
        assert_eq!(report.touched, 5);
        // Frontiers grow (weakly) layer over layer.
        assert!(report.frontier_rows[0] <= report.frontier_rows[1]);
        s.assert_matches_full();
    }

    #[test]
    fn removals_and_weight_updates_stay_consistent() {
        // Twelve vertices: the second window dirties five rows, under the
        // half of `n` at which an advance recomputes every row instead.
        let mut s = tiny_session(3, feats(12, 2));
        s.ingest(&[
            EdgeEvent::add(0, 0, 1, 1.0),
            EdgeEvent::add(0, 1, 2, 1.0),
            EdgeEvent::add(0, 2, 3, 1.0),
            EdgeEvent::add(0, 10, 11, 1.0),
        ]);
        s.advance();
        s.assert_matches_full();
        s.ingest(&[
            EdgeEvent::remove(1, 1, 2),
            EdgeEvent::update(1, 0, 1, 4.0),
            EdgeEvent::add(1, 3, 4, 1.0),
        ]);
        let r = s.advance();
        assert_eq!(r.version, 2);
        s.assert_matches_full();
        // The untouched far component (10, 11) was not recomputed.
        assert!(!r.frontier_rows.is_empty());
        assert!(r.frontier_rows.iter().all(|&f| f < 12));
    }

    #[test]
    fn no_op_and_reverted_events_dirty_no_rows() {
        let mut s = tiny_session(4, feats(40, 3));
        s.ingest(&[EdgeEvent::add(0, 0, 1, 1.0), EdgeEvent::add(0, 2, 3, 0.5)]);
        s.advance();
        // Two removes of absent edges (one the reverse of a present one)
        // and an add reverted inside the window.
        s.ingest(&[
            EdgeEvent::remove(1, 5, 6),
            EdgeEvent::remove(1, 1, 0),
            EdgeEvent::add(1, 7, 8, 2.0),
            EdgeEvent::remove(1, 7, 8),
        ]);
        let r = s.advance();
        assert_eq!(r.touched, 0);
        assert_eq!(r.frontier_rows, vec![0; 2]);
        s.assert_matches_full();
    }

    #[test]
    fn unservable_heads_are_refused_with_typed_errors() {
        let cfg = ModelConfig {
            kind: ModelKind::TmGcn,
            input_f: 2,
            hidden: 3,
            mprod_window: 2,
            smoothing_window: 2,
        };
        let mk = |head_u: Dense, head_b: Dense| Checkpoint {
            config: cfg,
            head_emb: 3,
            head_classes: head_u.cols(),
            params: vec![
                ("gcn0.w".into(), Dense::zeros(2, 3)),
                ("gcn0.b".into(), Dense::zeros(1, 3)),
                ("gcn1.w".into(), Dense::zeros(3, 3)),
                ("gcn1.b".into(), Dense::zeros(1, 3)),
                ("head.u".into(), head_u),
                ("head.b".into(), head_b),
            ],
        };
        let open = |cp: &Checkpoint| InferenceSession::from_checkpoint(cp, feats(4, 2));
        // A single-class head cannot produce a link-score margin.
        let cp = mk(Dense::zeros(6, 1), Dense::zeros(1, 1));
        assert!(matches!(
            open(&cp),
            Err(CheckpointError::UnsupportedModel(_))
        ));
        // A bias whose width disagrees with the projection does not fit
        // the head the header describes.
        let cp = mk(Dense::zeros(6, 2), Dense::zeros(1, 3));
        assert!(matches!(open(&cp), Err(CheckpointError::StoreMismatch(_))));
        // The consistent two-class head is accepted.
        let cp = mk(Dense::zeros(6, 2), Dense::zeros(1, 2));
        assert!(open(&cp).is_ok());
    }

    #[test]
    fn weight_only_windows_patch_values_in_place() {
        let mut s = tiny_session(3, feats(12, 2));
        s.ingest(&[
            EdgeEvent::add(0, 0, 1, 1.0),
            EdgeEvent::add(0, 1, 2, 1.0),
            EdgeEvent::add(0, 5, 6, 1.0),
        ]);
        s.advance();
        let structure_before: Vec<usize> = s.a_hat.indptr().to_vec();
        // Pure weight churn: sparsity is untouched, so the fast path runs
        // (observable as identical indptr) and the bits still match a full
        // recompute.
        s.ingest(&[
            EdgeEvent::update(1, 0, 1, 3.5),
            EdgeEvent::update(1, 5, 6, 0.125),
        ]);
        s.advance();
        assert_eq!(s.a_hat.indptr(), &structure_before[..]);
        s.assert_matches_full();
        // A reverted add/remove pair inside one window is also value-only.
        s.ingest(&[EdgeEvent::remove(2, 1, 2), EdgeEvent::add(2, 1, 2, 9.0)]);
        s.advance();
        s.assert_matches_full();
    }

    #[test]
    fn wide_windows_recompute_every_row() {
        let mut s = tiny_session(3, feats(8, 2));
        // Four of eight rows dirty: exactly the threshold.
        s.ingest(&[EdgeEvent::add(0, 0, 1, 1.0), EdgeEvent::add(0, 2, 3, 1.0)]);
        let r = s.advance();
        assert_eq!((r.touched, &r.frontier_rows[..]), (4, &[8, 8][..]));
        s.assert_matches_full();
        // Two of eight: back on the frontier path, same contract.
        s.ingest(&[EdgeEvent::update(1, 0, 1, 2.0)]);
        let r = s.advance();
        assert_eq!(r.frontier_rows, [2, 2]);
        s.assert_matches_full();
    }

    #[test]
    fn empty_advance_bumps_version_only() {
        let mut s = tiny_session(3, feats(4, 2));
        let before = s.embeddings().clone();
        let r = s.advance();
        assert_eq!(r.version, 1);
        assert_eq!(r.touched, 0);
        assert_eq!(s.embeddings(), &before);
    }

    #[test]
    fn self_loop_events_are_tolerated() {
        let mut s = tiny_session(3, feats(5, 2));
        s.ingest(&[EdgeEvent::add(0, 2, 2, 3.0), EdgeEvent::add(0, 0, 1, 1.0)]);
        s.advance();
        // Stored self-loops are ignored by the operator (unit loop wins).
        s.assert_matches_full();
    }

    /// The directed edge set a stream of events leaves, built without the
    /// streaming graph: adds accumulate, updates overwrite or insert,
    /// removes delete.
    fn directed(n: usize, events: &[EdgeEvent]) -> Csr {
        use dgnn_stream::EventKind;
        let mut edges = std::collections::BTreeMap::new();
        for ev in events {
            let key = (ev.src, ev.dst);
            match ev.kind {
                EventKind::Add => {
                    edges
                        .entry(key)
                        .and_modify(|w| *w += ev.weight)
                        .or_insert(ev.weight);
                }
                EventKind::UpdateWeight => {
                    edges.insert(key, ev.weight);
                }
                EventKind::Remove => {
                    edges.remove(&key);
                }
            }
        }
        let triplets: Vec<(u32, u32, f32)> =
            edges.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        Csr::from_coo(n, n, &triplets)
    }

    /// The served operator is training's `normalized_laplacian` of the
    /// directed edge set, bit for bit, and the cache still matches the
    /// full forward.
    fn assert_serves_training_operator(s: &InferenceSession, adj: &Csr) {
        let want = normalized_laplacian(adj);
        assert_eq!(s.a_hat.indptr(), want.indptr(), "indptr");
        assert_eq!(s.a_hat.indices(), want.indices(), "indices");
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s.a_hat), bits(&want), "values");
        s.assert_matches_full();
    }

    #[test]
    fn snapshot_served_as_events_is_its_training_operator() {
        let g = dgnn_graph::gen::churn(60, 3, 150, 0.2, 7);
        let snap = g.snapshot(2);
        let events: Vec<EdgeEvent> = snap
            .adj()
            .to_coo()
            .into_iter()
            .map(|(u, v, w)| EdgeEvent::add(0, u, v, w))
            .collect();
        let mut s = tiny_session(4, feats(60, 3));
        s.ingest(&events);
        s.advance();
        assert_serves_training_operator(&s, snap.adj());
        assert_eq!(&s.graph().materialize(), snap.adj());
        assert_eq!(s.a_hat, s.graph().materialize_snapshot().laplacian());
    }

    #[test]
    fn every_advance_serves_the_training_operator() {
        let n = 16;
        let windows: [&[EdgeEvent]; 3] = [
            // Wide: twelve of sixteen rows dirty, so every row is rebuilt.
            &[
                EdgeEvent::add(0, 0, 1, 2.0),
                EdgeEvent::add(0, 1, 0, 0.5),
                EdgeEvent::add(0, 2, 3, 1.5),
                EdgeEvent::add(0, 3, 2, 1.5),
                EdgeEvent::add(0, 4, 5, -0.75),
                EdgeEvent::add(0, 6, 6, 3.0),
                EdgeEvent::add(0, 7, 8, 1.0),
                EdgeEvent::add(0, 7, 8, 0.25),
                EdgeEvent::add(0, 9, 10, 1.0),
                EdgeEvent::add(0, 11, 7, 4.0),
            ],
            // Narrow: one direction of each two-way pair updated or
            // removed, a self-loop added, a one-way edge removed.
            &[
                EdgeEvent::update(1, 0, 1, 3.0),
                EdgeEvent::remove(1, 3, 2),
                EdgeEvent::add(1, 1, 1, 5.0),
                EdgeEvent::remove(1, 4, 5),
            ],
            // An update inserting an absent edge, a remove of an absent
            // one, and the self-loop removed again.
            &[
                EdgeEvent::update(2, 12, 0, 0.125),
                EdgeEvent::remove(2, 13, 14),
                EdgeEvent::remove(2, 6, 6),
            ],
        ];
        let mut s = tiny_session(3, feats(n, 2));
        let mut seen = Vec::new();
        for (i, window) in windows.iter().enumerate() {
            s.ingest(window);
            let r = s.advance();
            assert_eq!(r.frontier_rows[0] == n, i == 0, "window {i}");
            seen.extend_from_slice(window);
            assert_serves_training_operator(&s, &directed(n, &seen));
        }
    }

    #[test]
    fn scores_are_head_logit_margins() {
        let mut s = tiny_session(3, feats(6, 2));
        s.ingest(&[EdgeEvent::add(0, 0, 1, 1.0)]);
        s.advance();
        let scores = s.score_links(&[(0, 1), (3, 4)]);
        assert_eq!(scores.len(), 2);
        let z = s.predict_nodes(&[0, 1]);
        let cat = z.row_block(0, 1).concat_cols(&z.row_block(1, 1));
        let (u, b) = s.head();
        let logits = cat.matmul(u).add_row_broadcast(b);
        let manual = logits.get(0, 1) - logits.get(0, 0);
        assert_eq!(scores[0].to_bits(), manual.to_bits());
    }
}
