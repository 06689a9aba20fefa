//! The unified two-layer dynamic-GNN model (paper §2.2) with tape-segment
//! execution, covering CD-GCN, EvolveGCN (EGCN-O) and TM-GCN.
//!
//! A [`Segment`] binds the model onto one autograd tape for a contiguous
//! run of timesteps — one checkpoint block (or a slice of one, on a rank of
//! the distributed trainer). Carried state enters as input leaves and
//! leaves as plain matrices; gradient checkpointing and the all-to-all
//! redistributions are orchestrated *around* segments by `dgnn-core`.

use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

use dgnn_autograd::{ParamStore, Tape, Var};
use dgnn_tensor::{Csr, Dense};
use rand::Rng;

use crate::carry::{CarryGrads, CarryState, LayerCarry, LayerCarryGrad};
use crate::config::{ModelConfig, ModelKind};
use crate::gcn::{GcnLayer, GcnVars};
use crate::lstm::{LstmCell, LstmState, LstmVars};

/// A two-layer dynamic GNN of one of the three studied architectures.
pub struct Model {
    cfg: ModelConfig,
    gcn: Vec<GcnLayer>,
    /// CD-GCN's per-layer feature LSTM.
    feature_lstm: Vec<LstmCell>,
    /// EvolveGCN's per-layer weight LSTM.
    weight_lstm: Vec<LstmCell>,
}

impl Model {
    /// Builds the model, registering all parameters in `store`.
    pub fn new(cfg: ModelConfig, store: &mut ParamStore, rng: &mut impl Rng) -> Self {
        let layers = cfg.layers();
        let mut gcn = Vec::with_capacity(layers);
        let mut feature_lstm = Vec::new();
        let mut weight_lstm = Vec::new();
        for l in 0..layers {
            gcn.push(GcnLayer::new(
                store,
                &format!("gcn{l}"),
                cfg.gcn_in(l),
                cfg.hidden,
                cfg.kind == ModelKind::CdGcn,
                rng,
            ));
            match cfg.kind {
                ModelKind::CdGcn => feature_lstm.push(LstmCell::new(
                    store,
                    &format!("lstm{l}"),
                    cfg.gcn_out(l),
                    cfg.hidden,
                    rng,
                )),
                ModelKind::EvolveGcn => weight_lstm.push(LstmCell::new(
                    store,
                    &format!("wlstm{l}"),
                    cfg.hidden,
                    cfg.hidden,
                    rng,
                )),
                ModelKind::TmGcn => {}
            }
        }
        Self {
            cfg,
            gcn,
            feature_lstm,
            weight_lstm,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The architecture kind.
    pub fn kind(&self) -> ModelKind {
        self.cfg.kind
    }

    /// The per-layer GCN components, in layer order. Serving runs their
    /// [`GcnLayer::forward_preaggregated`] on every row it recomputes, so
    /// it serves training's own layer.
    pub fn gcn_layers(&self) -> &[GcnLayer] {
        &self.gcn
    }

    /// Initial carry for a timeline starting at `t = 0`, for a vertex chunk
    /// of `chunk_rows` rows.
    pub fn initial_carry(&self, chunk_rows: usize) -> CarryState {
        let h = self.cfg.hidden;
        let layers = (0..self.cfg.layers())
            .map(|l| match self.cfg.kind {
                ModelKind::CdGcn => LayerCarry::Lstm {
                    h: Dense::zeros(chunk_rows, h),
                    c: Dense::zeros(chunk_rows, h),
                },
                ModelKind::TmGcn => LayerCarry::Window {
                    frames: VecDeque::new(),
                },
                ModelKind::EvolveGcn => LayerCarry::Egcn {
                    h: Dense::zeros(self.cfg.gcn_in(l), h),
                    c: Dense::zeros(self.cfg.gcn_in(l), h),
                },
            })
            .collect();
        CarryState { layers }
    }

    /// Binds the model onto a fresh tape segment for global timesteps
    /// `t_range`, with `carry` providing the state of timestep
    /// `t_range.start − 1`.
    pub fn bind_segment<'m>(
        &'m self,
        tape: &mut Tape,
        store: &ParamStore,
        t_range: Range<usize>,
        carry: &CarryState,
    ) -> Segment<'m> {
        assert_eq!(
            carry.layers.len(),
            self.cfg.layers(),
            "carry layer mismatch"
        );
        let gcn_vars: Vec<GcnVars> = self.gcn.iter().map(|g| g.bind(tape, store)).collect();
        let lstm_vars: Vec<Option<LstmVars>> = (0..self.cfg.layers())
            .map(|l| {
                if self.cfg.kind == ModelKind::CdGcn {
                    Some(self.feature_lstm[l].bind(tape, store))
                } else {
                    None
                }
            })
            .collect();

        let mut layer_states: Vec<SegmentLayerState> = Vec::with_capacity(self.cfg.layers());
        for (l, lc) in carry.layers.iter().enumerate() {
            let state = match (self.cfg.kind, lc) {
                (ModelKind::CdGcn, LayerCarry::Lstm { h, c }) => {
                    let h_in = tape.input(h.clone());
                    let c_in = tape.input(c.clone());
                    SegmentLayerState::Lstm {
                        in_h: h_in,
                        in_c: c_in,
                        cur: LstmState { h: h_in, c: c_in },
                    }
                }
                (ModelKind::TmGcn, LayerCarry::Window { frames }) => {
                    let vars: VecDeque<Var> =
                        frames.iter().map(|f| tape.input(f.clone())).collect();
                    SegmentLayerState::Window {
                        in_frames: vars.clone(),
                        cur: vars,
                    }
                }
                (ModelKind::EvolveGcn, LayerCarry::Egcn { h, c }) => {
                    // Evolve the weight chain for the whole range up front.
                    let wl = &self.weight_lstm[l];
                    let wl_vars = wl.bind(tape, store);
                    let mut weights: Vec<Var> = Vec::with_capacity(t_range.len());
                    let (mut state, in_h, in_c);
                    if t_range.start == 0 {
                        // W_0 is the GCN weight parameter itself; gradients
                        // reach it directly through this leaf.
                        let w0 = tape.param(store, self.gcn[l].w);
                        let c0 = tape.input(Dense::zeros(self.cfg.gcn_in(l), self.cfg.hidden));
                        state = LstmState { h: w0, c: c0 };
                        in_h = None;
                        in_c = Some(c0);
                        weights.push(state.h);
                        for _ in 1..t_range.len() {
                            state = wl.step(tape, wl_vars, state.h, state);
                            weights.push(state.h);
                        }
                    } else {
                        let h_in = tape.input(h.clone());
                        let c_in = tape.input(c.clone());
                        state = LstmState { h: h_in, c: c_in };
                        in_h = Some(h_in);
                        in_c = Some(c_in);
                        for _ in 0..t_range.len() {
                            state = wl.step(tape, wl_vars, state.h, state);
                            weights.push(state.h);
                        }
                    }
                    SegmentLayerState::Egcn {
                        in_h,
                        in_c,
                        weights,
                        end: state,
                    }
                }
                _ => panic!("carry kind does not match the model"),
            };
            layer_states.push(state);
        }

        Segment {
            model: self,
            t_range,
            gcn_vars,
            lstm_vars,
            layer_states,
        }
    }
}

/// Per-layer mutable state of a segment.
enum SegmentLayerState {
    Lstm {
        in_h: Var,
        in_c: Var,
        cur: LstmState,
    },
    Window {
        in_frames: VecDeque<Var>,
        cur: VecDeque<Var>,
    },
    Egcn {
        in_h: Option<Var>,
        in_c: Option<Var>,
        weights: Vec<Var>,
        end: LstmState,
    },
}

/// One model bound onto one tape for a run of timesteps.
pub struct Segment<'m> {
    model: &'m Model,
    t_range: Range<usize>,
    gcn_vars: Vec<GcnVars>,
    lstm_vars: Vec<Option<LstmVars>>,
    layer_states: Vec<SegmentLayerState>,
}

impl<'m> Segment<'m> {
    /// The global timestep range this segment covers.
    pub fn t_range(&self) -> Range<usize> {
        self.t_range.clone()
    }

    /// GCN forward for global timestep `t` at `layer`. `a_hat` is the whole
    /// `Ã_t`, or a rank's rows of it whose columns cover the stacked input
    /// `x` of the row split.
    pub fn spatial(&self, tape: &mut Tape, layer: usize, t: usize, a_hat: Rc<Csr>, x: Var) -> Var {
        assert!(self.t_range.contains(&t), "timestep outside segment");
        match self.model.cfg.kind {
            ModelKind::EvolveGcn => {
                let SegmentLayerState::Egcn { weights, .. } = &self.layer_states[layer] else {
                    unreachable!()
                };
                let w = weights[t - self.t_range.start];
                // The static bias does not evolve (only W does in EGCN-O).
                let b = self.gcn_vars[layer].bias();
                self.model.gcn[layer].forward_with_weight(tape, w, b, a_hat, x)
            }
            _ => self.model.gcn[layer].forward(tape, self.gcn_vars[layer], a_hat, x),
        }
    }

    /// First-layer GCN forward from a pre-computed aggregation `Ã·X`
    /// (paper §5.5). Not available for EvolveGCN, whose first-layer weights
    /// differ per timestep but aggregation does not — the caller still
    /// benefits by skipping the SpMM, so EvolveGCN applies its per-timestep
    /// evolved weight to the shared aggregation here instead.
    pub fn spatial_preagg(&self, tape: &mut Tape, t: usize, agg: Var) -> Var {
        assert!(self.t_range.contains(&t), "timestep outside segment");
        match self.model.cfg.kind {
            ModelKind::EvolveGcn => {
                let SegmentLayerState::Egcn { weights, .. } = &self.layer_states[0] else {
                    unreachable!()
                };
                let w = weights[t - self.t_range.start];
                let lin = tape.matmul(agg, w);
                tape.gcn_tail(None, lin, self.gcn_vars[0].bias())
            }
            _ => self.model.gcn[0].forward_preaggregated(tape, self.gcn_vars[0], agg),
        }
    }

    /// Temporal forward over consecutive timesteps starting at
    /// `self.t_range.start + offset`; `inputs[i]` is the (chunk-local)
    /// feature matrix of step `offset + i`. Updates the internal carry.
    pub fn temporal(
        &mut self,
        tape: &mut Tape,
        layer: usize,
        offset: usize,
        inputs: &[Var],
    ) -> Vec<Var> {
        let kind = self.model.cfg.kind;
        match (kind, &mut self.layer_states[layer]) {
            (ModelKind::EvolveGcn, SegmentLayerState::Egcn { .. }) => inputs.to_vec(),
            (ModelKind::CdGcn, SegmentLayerState::Lstm { cur, .. }) => {
                let vars = self.lstm_vars[layer].expect("CD-GCN has LSTM vars");
                let cell = &self.model.feature_lstm[layer];
                let mut out = Vec::with_capacity(inputs.len());
                let mut state = *cur;
                for &x in inputs {
                    state = cell.step(tape, vars, x, state);
                    out.push(state.h);
                }
                *cur = state;
                out
            }
            (ModelKind::TmGcn, SegmentLayerState::Window { in_frames, cur }) => {
                let w = self.model.cfg.mprod_window;
                let t0 = self.t_range.start + offset;
                assert!(
                    offset == 0 || t0 >= self.t_range.start + (w - 1),
                    "offset runs must not reach back into the carry"
                );
                let mut out = Vec::with_capacity(inputs.len());
                for (i, &x) in inputs.iter().enumerate() {
                    let t = t0 + i;
                    let lo = t.saturating_sub(w - 1);
                    let band = t - lo + 1;
                    let coeff = 1.0 / band as f32;
                    let mut terms: Vec<(f32, Var)> = Vec::with_capacity(band);
                    for s in lo..=t {
                        let var = if s >= t0 {
                            inputs[s - t0]
                        } else {
                            // A carried frame. `in_frames` is the immutable
                            // bind-time window covering global steps
                            // [t0 - len, t0); the sliding `cur` deque must
                            // NOT be used here — it mutates as the run
                            // advances.
                            assert!(
                                s + in_frames.len() >= t0,
                                "M-product window reaches beyond the carry \
                                 (need step {s}, have {} carried frames)",
                                in_frames.len()
                            );
                            in_frames[s + in_frames.len() - t0]
                        };
                        terms.push((coeff, var));
                    }
                    out.push(tape.lin_comb(&terms));
                    // Slide the carried window.
                    cur.push_back(x);
                    while cur.len() > w.saturating_sub(1) {
                        cur.pop_front();
                    }
                }
                out
            }
            _ => unreachable!("layer state does not match the model"),
        }
    }

    /// Extracts the end-of-segment carry as plain matrices (the checkpoint
    /// data `π_b` stored during the forward pass).
    pub fn carry_out(&self, tape: &Tape) -> CarryState {
        let layers = self
            .layer_states
            .iter()
            .map(|s| match s {
                SegmentLayerState::Lstm { cur, .. } => LayerCarry::Lstm {
                    h: tape.value(cur.h).clone(),
                    c: tape.value(cur.c).clone(),
                },
                SegmentLayerState::Window { cur, .. } => LayerCarry::Window {
                    frames: cur.iter().map(|&v| tape.value(v).clone()).collect(),
                },
                SegmentLayerState::Egcn { end, .. } => LayerCarry::Egcn {
                    h: tape.value(end.h).clone(),
                    c: tape.value(end.c).clone(),
                },
            })
            .collect();
        CarryState { layers }
    }

    /// After `tape.backward`, the gradients that reached the carried-in
    /// state — to be seeded into the previous block's backward pass.
    pub fn carry_in_grads(&self, tape: &Tape) -> CarryGrads {
        let layers = self
            .layer_states
            .iter()
            .map(|s| match s {
                SegmentLayerState::Lstm { in_h, in_c, .. } => LayerCarryGrad {
                    dh: tape.grad(*in_h).cloned(),
                    dc: tape.grad(*in_c).cloned(),
                    dframes: Vec::new(),
                },
                SegmentLayerState::Window { in_frames, .. } => LayerCarryGrad {
                    dh: None,
                    dc: None,
                    dframes: in_frames.iter().map(|&v| tape.grad(v).cloned()).collect(),
                },
                SegmentLayerState::Egcn { in_h, in_c, .. } => LayerCarryGrad {
                    dh: in_h.and_then(|v| tape.grad(v).cloned()),
                    dc: in_c.and_then(|v| tape.grad(v).cloned()),
                    dframes: Vec::new(),
                },
            })
            .collect();
        CarryGrads { layers }
    }

    /// Backward seeds that inject the next block's carry gradients onto this
    /// segment's carry-out variables, every layer's.
    pub fn carry_out_seeds(&self, grads: &CarryGrads) -> Vec<(Var, Dense)> {
        let mut seeds = Vec::new();
        for (s, g) in self.layer_states.iter().zip(&grads.layers) {
            match s {
                SegmentLayerState::Lstm { cur: end, .. } | SegmentLayerState::Egcn { end, .. } => {
                    seeds.extend(g.dh.iter().map(|dh| (end.h, dh.clone())));
                    seeds.extend(g.dc.iter().map(|dc| (end.c, dc.clone())));
                }
                SegmentLayerState::Window { cur, .. } => {
                    let skip = cur.len() - g.dframes.len();
                    for (&v, d) in cur.iter().skip(skip).zip(&g.dframes) {
                        seeds.extend(d.iter().map(|d| (v, d.clone())));
                    }
                }
            }
        }
        seeds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_autograd::gradcheck::check_param_grads;
    use dgnn_tensor::init::glorot_uniform;
    use dgnn_tensor::normalized_laplacian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn laplacians(n: usize, t: usize, seed: u64) -> Vec<Rc<Csr>> {
        let g = dgnn_graph::gen::churn(n, t, n * 2, 0.3, seed);
        (0..t)
            .map(|ti| Rc::new(normalized_laplacian(g.snapshot(ti).adj())))
            .collect()
    }

    fn tiny_cfg(kind: ModelKind) -> ModelConfig {
        ModelConfig {
            kind,
            input_f: 2,
            hidden: 3,
            mprod_window: 2,
            smoothing_window: 2,
        }
    }

    /// Runs a full two-layer forward over `t` steps in one segment and
    /// returns the mean of all embeddings as the loss.
    fn run_segment(
        model: &Model,
        tape: &mut Tape,
        store: &ParamStore,
        laps: &[Rc<Csr>],
        x0: &[Dense],
    ) -> Var {
        let n = x0[0].rows();
        let carry = model.initial_carry(n);
        let mut seg = model.bind_segment(tape, store, 0..laps.len(), &carry);
        let mut feats: Vec<Var> = x0.iter().map(|x| tape.constant(x.clone())).collect();
        for layer in 0..model.config().layers() {
            let spatial: Vec<Var> = (0..laps.len())
                .map(|t| seg.spatial(tape, layer, t, Rc::clone(&laps[t]), feats[t]))
                .collect();
            feats = seg.temporal(tape, layer, 0, &spatial);
        }
        let mut acc = tape.mean_all(feats[0]);
        for &f in &feats[1..] {
            let m = tape.mean_all(f);
            acc = tape.add(acc, m);
        }
        tape.scale(acc, 1.0 / laps.len() as f32)
    }

    #[test]
    fn all_models_forward_shapes() {
        let mut rng = StdRng::seed_from_u64(10);
        let laps = laplacians(6, 3, 1);
        let x0: Vec<Dense> = (0..3).map(|_| glorot_uniform(6, 2, &mut rng)).collect();
        for kind in ModelKind::all() {
            let mut store = ParamStore::new();
            let model = Model::new(tiny_cfg(kind), &mut store, &mut rng);
            let mut tape = Tape::new();
            let loss = run_segment(&model, &mut tape, &store, &laps, &x0);
            assert_eq!(tape.value(loss).shape(), (1, 1), "{kind:?}");
            assert!(tape.value(loss).get(0, 0).is_finite(), "{kind:?}");
        }
    }

    #[test]
    fn all_models_pass_gradcheck() {
        let laps = laplacians(5, 3, 2);
        for kind in ModelKind::all() {
            let mut rng = StdRng::seed_from_u64(20);
            let mut store = ParamStore::new();
            let model = Model::new(tiny_cfg(kind), &mut store, &mut rng);
            let x0: Vec<Dense> = (0..3).map(|_| glorot_uniform(5, 2, &mut rng)).collect();
            check_param_grads(
                &mut store,
                |tape, store| run_segment(&model, tape, store, &laps, &x0),
                1e-2,
                3e-2,
            )
            .unwrap_or_else(|e| panic!("{kind:?}: {e:?}"));
        }
    }

    #[test]
    fn egcn_weights_evolve_over_time() {
        let mut rng = StdRng::seed_from_u64(30);
        let mut store = ParamStore::new();
        let model = Model::new(tiny_cfg(ModelKind::EvolveGcn), &mut store, &mut rng);
        let mut tape = Tape::new();
        let carry = model.initial_carry(4);
        let seg = model.bind_segment(&mut tape, &store, 0..3, &carry);
        let SegmentLayerState::Egcn { weights, .. } = &seg.layer_states[0] else {
            panic!()
        };
        assert_eq!(weights.len(), 3);
        // W_0 is the raw parameter; W_1 differs from it.
        let w0 = tape.value(weights[0]).clone();
        let w1 = tape.value(weights[1]).clone();
        assert_eq!(&w0, store.value(model.gcn[0].w));
        assert!(w0.max_abs_diff(&w1) > 1e-6);
    }

    #[test]
    fn cdgcn_lstm_step_holds_at_most_16nh_floats() {
        // Two n×4h gate products, the n×4h activations, tanh(c), c and h:
        // 15·n·h floats a step, where the op-by-op chain held 29.
        let mut rng = StdRng::seed_from_u64(31);
        let mut store = ParamStore::new();
        let cfg = tiny_cfg(ModelKind::CdGcn);
        let model = Model::new(cfg, &mut store, &mut rng);
        let (n, steps) = (9, 3);
        for layer in 0..cfg.layers() {
            let mut tape = Tape::new();
            let carry = model.initial_carry(n);
            let mut seg = model.bind_segment(&mut tape, &store, 0..steps, &carry);
            let inputs: Vec<Var> = (0..steps)
                .map(|_| tape.constant(glorot_uniform(n, cfg.gcn_out(layer), &mut rng)))
                .collect();
            let before = tape.value_elems();
            seg.temporal(&mut tape, layer, 0, &inputs);
            let per_step = (tape.value_elems() - before) / steps;
            assert_eq!(per_step, 15 * n * cfg.hidden, "layer {layer}");
        }
    }

    #[test]
    fn tm_window_carry_slides() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut store = ParamStore::new();
        let cfg = ModelConfig {
            mprod_window: 3,
            ..tiny_cfg(ModelKind::TmGcn)
        };
        let model = Model::new(cfg, &mut store, &mut rng);
        let laps = laplacians(4, 4, 3);
        let mut tape = Tape::new();
        let carry = model.initial_carry(4);
        let mut seg = model.bind_segment(&mut tape, &store, 0..4, &carry);
        let xs: Vec<Var> = (0..4)
            .map(|_| tape.constant(glorot_uniform(4, 2, &mut rng)))
            .collect();
        let spatial: Vec<Var> = (0..4)
            .map(|t| seg.spatial(&mut tape, 0, t, Rc::clone(&laps[t]), xs[t]))
            .collect();
        let _ = seg.temporal(&mut tape, 0, 0, &spatial);
        let out = seg.carry_out(&tape);
        // Window keeps w-1 = 2 frames.
        let LayerCarry::Window { frames } = &out.layers[0] else {
            panic!()
        };
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn single_snapshot_segment_works_for_all_models() {
        // The smallest useful timeline: one snapshot, one segment. The
        // carry out of it must hold exactly one step of temporal state.
        let laps = laplacians(5, 1, 9);
        for kind in ModelKind::all() {
            let mut rng = StdRng::seed_from_u64(60);
            let mut store = ParamStore::new();
            let model = Model::new(tiny_cfg(kind), &mut store, &mut rng);
            let x0 = glorot_uniform(5, 2, &mut rng);
            let mut tape = Tape::new();
            let carry = model.initial_carry(5);
            let mut seg = model.bind_segment(&mut tape, &store, 0..1, &carry);
            let mut feats = vec![tape.constant(x0.clone())];
            for layer in 0..model.config().layers() {
                let sp = vec![seg.spatial(&mut tape, layer, 0, Rc::clone(&laps[0]), feats[0])];
                feats = seg.temporal(&mut tape, layer, 0, &sp);
            }
            assert_eq!(feats.len(), 1, "{kind:?}");
            assert_eq!(tape.value(feats[0]).shape(), (5, 3), "{kind:?}");
            let out = seg.carry_out(&tape);
            assert_eq!(out.layers.len(), 2, "{kind:?}");
            match (&out.layers[0], kind) {
                (LayerCarry::Window { frames }, ModelKind::TmGcn) => {
                    // w−1 = 1 carried frame after one step.
                    assert_eq!(frames.len(), 1);
                }
                (LayerCarry::Lstm { h, .. }, ModelKind::CdGcn) => {
                    assert_eq!(h.shape(), (5, 3));
                }
                (LayerCarry::Egcn { h, .. }, ModelKind::EvolveGcn) => {
                    assert_eq!(h.shape(), (2, 3));
                }
                other => panic!("{kind:?}: unexpected carry {other:?}"),
            }
        }
    }

    #[test]
    fn zero_timestep_temporal_is_empty_and_preserves_carry() {
        // A degenerate segment over no timesteps: the temporal phase
        // returns nothing and the recurrent carries pass through unchanged.
        for kind in [ModelKind::CdGcn, ModelKind::TmGcn] {
            let mut rng = StdRng::seed_from_u64(61);
            let mut store = ParamStore::new();
            let model = Model::new(tiny_cfg(kind), &mut store, &mut rng);
            let mut tape = Tape::new();
            let carry = model.initial_carry(4);
            let before = carry.elems();
            let mut seg = model.bind_segment(&mut tape, &store, 0..0, &carry);
            for layer in 0..model.config().layers() {
                let out = seg.temporal(&mut tape, layer, 0, &[]);
                assert!(out.is_empty(), "{kind:?}");
            }
            let out = seg.carry_out(&tape);
            assert_eq!(out.elems(), before, "{kind:?}: carry must round-trip");
        }
    }

    #[test]
    fn segment_stitching_matches_single_segment() {
        // Forward equivalence: running [0..4) in one segment equals
        // [0..2) then [2..4) with carried state, for every model.
        let laps = laplacians(5, 4, 7);
        for kind in ModelKind::all() {
            let mut rng = StdRng::seed_from_u64(50);
            let mut store = ParamStore::new();
            let model = Model::new(tiny_cfg(kind), &mut store, &mut rng);
            let x0: Vec<Dense> = (0..4).map(|_| glorot_uniform(5, 2, &mut rng)).collect();

            // One segment.
            let mut full = Tape::new();
            let carry = model.initial_carry(5);
            let mut seg = model.bind_segment(&mut full, &store, 0..4, &carry);
            let mut feats: Vec<Var> = x0.iter().map(|x| full.constant(x.clone())).collect();
            for layer in 0..2 {
                let sp: Vec<Var> = (0..4)
                    .map(|t| seg.spatial(&mut full, layer, t, Rc::clone(&laps[t]), feats[t]))
                    .collect();
                feats = seg.temporal(&mut full, layer, 0, &sp);
            }
            let reference: Vec<Dense> = feats.iter().map(|&f| full.value(f).clone()).collect();

            // Two stitched segments.
            let mut outputs: Vec<Dense> = Vec::new();
            let mut carry = model.initial_carry(5);
            for block in [0..2usize, 2..4usize] {
                let mut tape = Tape::new();
                let mut seg = model.bind_segment(&mut tape, &store, block.clone(), &carry);
                let mut feats: Vec<Var> = block
                    .clone()
                    .map(|t| tape.constant(x0[t].clone()))
                    .collect();
                for layer in 0..2 {
                    let sp: Vec<Var> = block
                        .clone()
                        .map(|t| {
                            seg.spatial(
                                &mut tape,
                                layer,
                                t,
                                Rc::clone(&laps[t]),
                                feats[t - block.start],
                            )
                        })
                        .collect();
                    feats = seg.temporal(&mut tape, layer, 0, &sp);
                }
                carry = seg.carry_out(&tape);
                outputs.extend(feats.iter().map(|&f| tape.value(f).clone()));
            }

            for t in 0..4 {
                assert!(
                    outputs[t].approx_eq(&reference[t], 1e-5),
                    "{kind:?} t={t}: stitched diverges from single segment"
                );
            }
        }
    }
}
