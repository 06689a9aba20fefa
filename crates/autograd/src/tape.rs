//! A tape (Wengert list) based reverse-mode automatic-differentiation engine
//! over [`Dense`] matrices, with sparse-constant SpMM for GCN aggregation.
//!
//! The original system relies on PyTorch autograd; this module reproduces the
//! subset of it the three dynamic-GNN architectures need. One `Tape` holds
//! one forward expression graph; one [`Tape::backward`] call seeds one or
//! more output variables with gradients and accumulates into every
//! reachable node. The distributed layouts' collectives are tape ops too
//! ([`collective`]), so that one call differentiates a whole distributed
//! block, reverse collectives included. Only gradient-checkpointing block
//! boundaries cross tapes: a block's carries leave its tape as plain
//! matrices and re-enter the next as [`Tape::input`] leaves, and their
//! gradients come back as seeds.
//!
//! # Gradient lifetime
//!
//! Only leaves keep their gradient. A non-leaf node's gradient is consumed
//! by its propagation and returned to the workspace on the spot, so at most
//! the gradients of the not-yet-propagated frontier are alive at any point
//! of the sweep instead of one per node. [`Tape::grad`] is therefore `None`
//! for every non-leaf node after `backward`; `input` and `param` leaves are
//! the only gradients the trainers read.

use std::rc::Rc;

use dgnn_tensor::{workspace, Csr, Dense};

use crate::params::{ParamId, ParamStore};

pub mod collective;

pub use collective::{Communicator, RowRoute};

/// A handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// The differentiable operations recorded on the tape.
enum Op {
    /// Input, constant, or parameter copy.
    Leaf,
    /// Dense matrix product `a * b`.
    MatMul(Var, Var),
    /// Sparse-constant × dense product `A * x` (the GCN aggregation).
    Spmm { a: Rc<Csr>, x: Var },
    /// Element-wise sum.
    Add(Var, Var),
    /// Element-wise difference.
    Sub(Var, Var),
    /// Element-wise product.
    Hadamard(Var, Var),
    /// Row-broadcast bias addition: `x + 1ᵀ·bias`.
    AddBias { x: Var, bias: Var },
    /// Scalar multiple.
    Scale { x: Var, alpha: f32 },
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Horizontal concatenation `[a | b]`.
    ConcatCols(Var, Var),
    /// Vertical concatenation (row stacking) of chunks.
    ConcatRows(Vec<Var>),
    /// Column slice copy.
    NarrowCols { x: Var, start: usize },
    /// Row gather `out[i] = x[idx[i]]`.
    GatherRows { x: Var, idx: Rc<Vec<u32>> },
    /// Linear combination `Σ cᵢ · xᵢ` (M-product rows, residual sums).
    LinComb(Vec<(f32, Var)>),
    /// Mean over all elements, producing a `1x1` value.
    MeanAll(Var),
    /// Sum over all elements, producing a `1x1` value.
    SumAll(Var),
    /// Fused softmax + cross-entropy against integer labels; value is the
    /// `1x1` mean loss and `probs` caches the softmax for the backward pass.
    SoftmaxXent {
        logits: Var,
        labels: Rc<Vec<u32>>,
        probs: Dense,
    },
    /// Fused LSTM cell: everything between the two gate products `gx`,
    /// `gh` and the new state. This node's value is the cell memory `c`;
    /// the node right after it is an [`Op::Output`] whose value is `h`.
    /// `gates` (`n×4h` activations `[i f g o]`) and `tanh_c` are cached for
    /// the backward pass.
    LstmCell {
        gx: Var,
        gh: Var,
        bias: Var,
        c_prev: Var,
        gates: Dense,
        tanh_c: Dense,
    },
    /// An output of the multi-output node before it (a fused cell's `h`,
    /// an all-to-all's parts), which propagates for all of its outputs.
    Output,
    /// Fused GCN layer tail `relu([skip |] lin + 1ᵀ·bias)`.
    GcnTail {
        skip: Option<Var>,
        lin: Var,
        bias: Var,
    },
    /// [`Tape::all_to_all`], valued `0×0`; its outputs follow it.
    AllToAll {
        inputs: Vec<Var>,
        route: Rc<RowRoute>,
        width: usize,
        recv_rows: Vec<usize>,
    },
    /// [`Tape::exchange_rows`]; `recv_rows[q]` rows came from rank `q`.
    ExchangeRows {
        x: Var,
        send_rows: Rc<Vec<Vec<u32>>>,
        recv_rows: Vec<usize>,
    },
    /// [`Tape::all_gather`]; this rank's rows start at `offset`.
    AllGather { x: Var, offset: usize },
}

impl Op {
    /// Matrices the op holds beside its node's value.
    fn caches(&self) -> Vec<&Dense> {
        match self {
            Op::SoftmaxXent { probs, .. } => vec![probs],
            Op::LstmCell { gates, tanh_c, .. } => vec![gates, tanh_c],
            _ => Vec::new(),
        }
    }

    fn into_caches(self) -> Vec<Dense> {
        match self {
            Op::SoftmaxXent { probs, .. } => vec![probs],
            Op::LstmCell { gates, tanh_c, .. } => vec![gates, tanh_c],
            _ => Vec::new(),
        }
    }

    /// The name of a collective op, `None` for every other op.
    fn collective(&self) -> Option<&'static str> {
        match self {
            Op::AllToAll { .. } => Some("all_to_all"),
            Op::ExchangeRows { .. } => Some("exchange_rows"),
            Op::AllGather { .. } => Some("all_gather"),
            _ => None,
        }
    }
}

struct Node {
    op: Op,
    value: Dense,
    requires_grad: bool,
}

/// A single-use forward/backward expression tape: record the forward, then
/// make one [`Tape::backward`] call.
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Dense>>,
    param_bindings: Vec<(Var, ParamId)>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            param_bindings: Vec::new(),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total `f32` elements held by node values and op caches — the
    /// "activation memory" of this tape.
    pub fn value_elems(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.value.len() + n.op.caches().iter().map(|c| c.len()).sum::<usize>())
            .sum()
    }

    fn push(&mut self, op: Op, value: Dense, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            op,
            value,
            requires_grad,
        });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Dense {
        &self.nodes[v.0].value
    }

    /// The gradient `backward` accumulated into `v`, if any reached it.
    /// Only leaves keep theirs (see the module docs).
    pub fn grad(&self, v: Var) -> Option<&Dense> {
        self.grads[v.0].as_ref()
    }

    /// Records a non-differentiable constant.
    pub fn constant(&mut self, value: Dense) -> Var {
        self.push(Op::Leaf, value, false)
    }

    /// Records a differentiable input leaf (block-carry states, activations
    /// arriving from another rank). Its gradient is available after
    /// `backward` via [`Tape::grad`].
    pub fn input(&mut self, value: Dense) -> Var {
        self.push(Op::Leaf, value, true)
    }

    /// Records a leaf bound to a parameter in `store`. After `backward`,
    /// call [`Tape::accumulate_param_grads`] to flush gradients into the
    /// store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(Op::Leaf, store.value(id).clone(), true);
        self.param_bindings.push((v, id));
        v
    }

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::MatMul(a, b), value, rg)
    }

    /// Sparse-constant × dense product (GCN aggregation `Ã · X`).
    pub fn spmm(&mut self, a: Rc<Csr>, x: Var) -> Var {
        let value = a.spmm(self.value(x));
        let rg = self.rg(x);
        self.push(Op::Spmm { a, x }, value, rg)
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Add(a, b), value, rg)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Sub(a, b), value, rg)
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::Hadamard(a, b), value, rg)
    }

    /// Adds a `1 x C` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = self.value(x).add_row_broadcast(self.value(bias));
        let rg = self.rg(x) || self.rg(bias);
        self.push(Op::AddBias { x, bias }, value, rg)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, x: Var, alpha: f32) -> Var {
        let value = self.value(x).scale(alpha);
        let rg = self.rg(x);
        self.push(Op::Scale { x, alpha }, value, rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        let rg = self.rg(x);
        self.push(Op::Sigmoid(x), value, rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.value(x).map(f32::tanh);
        let rg = self.rg(x);
        self.push(Op::Tanh(x), value, rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| v.max(0.0));
        let rg = self.rg(x);
        self.push(Op::Relu(x), value, rg)
    }

    /// Horizontal concatenation `[a | b]` (CD-GCN skip connection).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).concat_cols(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(Op::ConcatCols(a, b), value, rg)
    }

    /// Vertical (row) concatenation of chunks — reassembly of vertex-chunk
    /// row blocks in the vertex-partitioned and hybrid schemes.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let refs: Vec<&Dense> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Dense::vstack(&refs);
        let rg = parts.iter().any(|&v| self.rg(v));
        self.push(Op::ConcatRows(parts.to_vec()), value, rg)
    }

    /// Column slice `x[:, start..start+len]` (LSTM gate split).
    pub fn narrow_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let value = self.value(x).narrow_cols(start, len);
        let rg = self.rg(x);
        self.push(Op::NarrowCols { x, start }, value, rg)
    }

    /// Row gather (embedding lookup for link-prediction endpoints).
    pub fn gather_rows(&mut self, x: Var, idx: Rc<Vec<u32>>) -> Var {
        let value = self.value(x).gather_rows(&idx);
        let rg = self.rg(x);
        self.push(Op::GatherRows { x, idx }, value, rg)
    }

    /// Linear combination `Σ cᵢ · xᵢ`; all terms must share a shape.
    pub fn lin_comb(&mut self, terms: &[(f32, Var)]) -> Var {
        assert!(!terms.is_empty(), "lin_comb of nothing");
        let shape = self.value(terms[0].1).shape();
        let mut value = Dense::zeros(shape.0, shape.1);
        let mut rg = false;
        for &(c, v) in terms {
            value.axpy(c, self.value(v));
            rg |= self.rg(v);
        }
        self.push(Op::LinComb(terms.to_vec()), value, rg)
    }

    /// Mean over all elements (`1x1` output).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let value = Dense::from_vec(1, 1, vec![self.value(x).mean()]);
        let rg = self.rg(x);
        self.push(Op::MeanAll(x), value, rg)
    }

    /// Sum over all elements (`1x1` output).
    pub fn sum_all(&mut self, x: Var) -> Var {
        let value = Dense::from_vec(1, 1, vec![self.value(x).sum()]);
        let rg = self.rg(x);
        self.push(Op::SumAll(x), value, rg)
    }

    /// Fused mean softmax cross-entropy of `logits` (`S x C`) against integer
    /// `labels` (length `S`, entries `< C`). Returns a `1x1` loss node.
    ///
    /// The per-row softmax runs row-parallel on the intra-rank pool (each
    /// row is self-contained, its `exp`s eight lanes at a time through
    /// [`dgnn_tensor::lanes::exp_in_place`], which equals `f32::exp`), then
    /// the loss accumulates serially in ascending row order — the same f64
    /// addition sequence as the serial kernel, so the loss is bit-identical
    /// at every thread count.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: Rc<Vec<u32>>) -> Var {
        let z = self.value(logits);
        let (s, c) = z.shape();
        assert_eq!(labels.len(), s, "labels/logits row mismatch");
        let mut probs = Dense::zeros(s, c);
        dgnn_tensor::pool::par_rows(
            probs.data_mut(),
            c,
            s.saturating_mul(c).saturating_mul(8),
            |r0, block| {
                for (dr, prow) in block.chunks_mut(c).enumerate() {
                    let row = z.row(r0 + dr);
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    for (p, &v) in prow.iter_mut().zip(row) {
                        *p = v - max;
                    }
                }
                // `f32::exp` of the whole block in lanes, bit for bit.
                dgnn_tensor::lanes::exp_in_place(block);
                for prow in block.chunks_mut(c) {
                    let denom = prow.iter().fold(0.0f32, |acc, &e| acc + e);
                    for p in prow {
                        *p /= denom;
                    }
                }
            },
        );
        let mut loss = 0.0f64;
        for (r, &label) in labels.iter().enumerate() {
            let label = label as usize;
            assert!(label < c, "label out of range");
            loss -= f64::from(probs.get(r, label).max(1e-12).ln());
        }
        let value = Dense::from_vec(1, 1, vec![(loss / s as f64) as f32]);
        let rg = self.rg(logits);
        self.push(
            Op::SoftmaxXent {
                logits,
                labels,
                probs,
            },
            value,
            rg,
        )
    }

    /// Fused LSTM cell from the gate products `gx = x·Wx` and
    /// `gh = h_prev·Wh` (`n×4h`, gates `[i f g o]`), the `1×4h` bias and
    /// the previous cell memory: returns `(h, c)` as two nodes, so either
    /// can be read, carried or seeded
    /// ([`dgnn_tensor::lstm::lstm_cell_forward`] is the kernel). The two
    /// outputs propagate together, once both have all their gradient.
    pub fn lstm_cell(&mut self, gx: Var, gh: Var, bias: Var, c_prev: Var) -> (Var, Var) {
        let out = dgnn_tensor::lstm::lstm_cell_forward(
            self.value(gx),
            self.value(gh),
            self.value(bias),
            self.value(c_prev),
        );
        let rg = self.rg(gx) || self.rg(gh) || self.rg(bias) || self.rg(c_prev);
        let op = Op::LstmCell {
            gx,
            gh,
            bias,
            c_prev,
            gates: out.gates,
            tanh_c: out.tanh_c,
        };
        let c = self.push(op, out.c, rg);
        let h = self.push(Op::Output, out.h, rg);
        (h, c)
    }

    /// Fused GCN layer tail `relu([skip |] lin + 1ᵀ·bias)`: the bias
    /// broadcast, CD-GCN's optional skip concatenation of the aggregation
    /// and the ReLU as one node and one row-parallel pass each way, in
    /// place of three or four nodes and their temporaries.
    ///
    /// Every element is the unfused chain's expression: `(l + b).max(0.0)`
    /// and `a.max(0.0)` forward; backward the ReLU mask `out > 0` (which
    /// equals `in > 0` for every input, NaN included), so `d_lin` and the
    /// skip's share are the chain's, and the bias gradient is their
    /// [`Dense::sum_rows`]. The skip's share reaches it before the share
    /// its own matmul sends, as in the chain, and is not computed when the
    /// skip takes no gradient (a pre-aggregated first layer).
    ///
    /// # Panics
    /// Panics when `bias` is not `1 × lin.cols()` or `skip` and `lin`
    /// disagree on the row count.
    pub fn gcn_tail(&mut self, skip: Option<Var>, lin: Var, bias: Var) -> Var {
        let value = gcn_tail_forward(
            skip.map(|s| self.value(s)),
            self.value(lin),
            self.value(bias),
        );
        let rg = skip.is_some_and(|s| self.rg(s)) || self.rg(lin) || self.rg(bias);
        self.push(Op::GcnTail { skip, lin, bias }, value, rg)
    }

    /// Runs reverse-mode accumulation from the given `(variable, gradient)`
    /// seeds, once per tape. A plain scalar loss is seeded with
    /// `Dense::ones(1, 1)` ([`Tape::backward_scalar`]).
    ///
    /// `comm` runs the reverse collectives of the [`collective`] ops; a
    /// tape that records one must be given it, or the sweep panics there.
    /// Leaves keep their gradient for [`Tape::grad`]; every other node's
    /// is released once propagated (see the module docs).
    pub fn backward(&mut self, seeds: Vec<(Var, Dense)>, mut comm: Option<&mut dyn Communicator>) {
        for (v, g) in seeds {
            assert_eq!(
                self.nodes[v.0].value.shape(),
                g.shape(),
                "seed gradient shape mismatch"
            );
            match &mut self.grads[v.0] {
                Some(acc) => {
                    acc.add_assign(&g);
                    workspace::recycle(g);
                }
                slot => *slot = Some(g),
            }
        }
        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            match self.nodes[i].op {
                // Their producer propagates for them.
                Op::Leaf | Op::Output => {}
                Op::LstmCell { .. } => {
                    let (dh, dc) = (self.grads[i + 1].take(), self.grads[i].take());
                    if dh.is_none() && dc.is_none() {
                        continue;
                    }
                    self.propagate_lstm_cell(i, dh.as_ref(), dc.as_ref());
                    dh.into_iter().chain(dc).for_each(workspace::recycle);
                }
                ref op => {
                    if let Some(name) = op.collective() {
                        let Some(comm) = comm.as_deref_mut() else {
                            panic!("Tape::backward reached {name} without a communicator");
                        };
                        self.propagate_collective(i, comm);
                        continue;
                    }
                    let Some(g) = self.grads[i].take() else {
                        continue;
                    };
                    self.propagate(i, &g);
                    workspace::recycle(g);
                }
            }
        }
    }

    /// Convenience: backward from a scalar loss node with unit seed, on a
    /// tape without collectives.
    pub fn backward_scalar(&mut self, loss: Var) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be 1x1");
        self.backward(vec![(loss, Dense::ones(1, 1))], None);
    }

    fn accumulate(&mut self, v: Var, delta: Dense) {
        if !self.nodes[v.0].requires_grad {
            workspace::recycle(delta);
            return;
        }
        match &mut self.grads[v.0] {
            Some(acc) => acc.add_assign(&delta),
            slot => *slot = Some(delta),
        }
    }

    fn propagate(&mut self, i: usize, g: &Dense) {
        // `g` is the output gradient of node `i`; dispatch per op. Inputs of
        // a node always precede it on the tape, so accumulation is safe.
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                // An operand that takes no gradient (the pre-aggregated
                // first-layer input is a constant) costs no GEMM.
                let (a, b) = (*a, *b);
                if self.rg(a) {
                    let da = g.matmul_transb(self.value(b));
                    self.accumulate(a, da);
                }
                if self.rg(b) {
                    let db = self.value(a).matmul_transa(g);
                    self.accumulate(b, db);
                }
            }
            Op::Spmm { a, x } => {
                let x = *x;
                let dx = a.spmm_transa(g);
                self.accumulate(x, dx);
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate(a, g.clone());
                self.accumulate(b, g.clone());
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate(a, g.clone());
                self.accumulate(b, g.scale(-1.0));
            }
            Op::Hadamard(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.hadamard(self.value(b));
                let db = g.hadamard(self.value(a));
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::AddBias { x, bias } => {
                let (x, bias) = (*x, *bias);
                self.accumulate(x, g.clone());
                self.accumulate(bias, g.sum_rows());
            }
            Op::Scale { x, alpha } => {
                let (x, alpha) = (*x, *alpha);
                self.accumulate(x, g.scale(alpha));
            }
            Op::Sigmoid(x) => {
                let x = *x;
                let y = &self.nodes[i].value;
                let dx = g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv));
                self.accumulate(x, dx);
            }
            Op::Tanh(x) => {
                let x = *x;
                let y = &self.nodes[i].value;
                let dx = g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv));
                self.accumulate(x, dx);
            }
            Op::Relu(x) => {
                let x = *x;
                let xin = self.value(x);
                let dx = g.zip_map(xin, |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                self.accumulate(x, dx);
            }
            Op::ConcatCols(a, b) => {
                let (a, b) = (*a, *b);
                let ca = self.value(a).cols();
                let cb = self.value(b).cols();
                let da = g.narrow_cols(0, ca);
                let db = g.narrow_cols(ca, cb);
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::ConcatRows(parts) => {
                let parts = parts.clone();
                let mut start = 0usize;
                for v in parts {
                    let rows = self.value(v).rows();
                    let dv = g.row_block(start, rows);
                    start += rows;
                    self.accumulate(v, dv);
                }
            }
            Op::NarrowCols { x, start } => {
                let (x, start) = (*x, *start);
                let cols = self.value(x).cols();
                let dx = g.pad_cols(cols, start);
                self.accumulate(x, dx);
            }
            Op::GatherRows { x, idx } => {
                let x = *x;
                let idx = Rc::clone(idx);
                let (rows, cols) = self.value(x).shape();
                let mut dx = Dense::zeros(rows, cols);
                dx.scatter_add_rows(&idx, g);
                self.accumulate(x, dx);
            }
            Op::LinComb(terms) => {
                let terms = terms.clone();
                for (c, v) in terms {
                    self.accumulate(v, g.scale(c));
                }
            }
            Op::MeanAll(x) => {
                let x = *x;
                let (rows, cols) = self.value(x).shape();
                let gs = g.get(0, 0) / (rows * cols) as f32;
                self.accumulate(x, Dense::full(rows, cols, gs));
            }
            Op::SumAll(x) => {
                let x = *x;
                let (rows, cols) = self.value(x).shape();
                self.accumulate(x, Dense::full(rows, cols, g.get(0, 0)));
            }
            Op::SoftmaxXent {
                logits,
                labels,
                probs,
            } => {
                let logits = *logits;
                let labels = Rc::clone(labels);
                let gs = g.get(0, 0);
                let s = probs.rows();
                let mut dz = probs.clone();
                for (r, &label) in labels.iter().enumerate() {
                    let cur = dz.get(r, label as usize);
                    dz.set(r, label as usize, cur - 1.0);
                }
                dz.scale_assign(gs / s as f32);
                self.accumulate(logits, dz);
            }
            Op::LstmCell { .. }
            | Op::Output
            | Op::AllToAll { .. }
            | Op::ExchangeRows { .. }
            | Op::AllGather { .. } => {
                unreachable!("multi-output ops and collectives propagate on their own")
            }
            Op::GcnTail { skip, lin, bias } => {
                let (skip, lin, bias) = (skip.filter(|&s| self.rg(s)), *lin, *bias);
                let skip_cols = self.nodes[i].value.cols() - self.value(lin).cols();
                let (d_skip, d_lin) =
                    gcn_tail_backward(g, &self.nodes[i].value, skip_cols, skip.is_some());
                if let (Some(skip), Some(d_skip)) = (skip, d_skip) {
                    self.accumulate(skip, d_skip);
                }
                if self.rg(bias) {
                    self.accumulate(bias, d_lin.sum_rows());
                }
                self.accumulate(lin, d_lin);
            }
        }
    }

    /// Backward of the fused cell at node `i` (its `h` is node `i + 1`):
    /// one kernel pass from `(dh, dc)` to `d_pre` — the gradient of both
    /// gate products and, row-summed, of the bias — and `d_c_prev`.
    fn propagate_lstm_cell(&mut self, i: usize, dh: Option<&Dense>, dc: Option<&Dense>) {
        let Op::LstmCell {
            gx,
            gh,
            bias,
            c_prev,
            gates,
            tanh_c,
        } = &self.nodes[i].op
        else {
            unreachable!("caller matched the op")
        };
        let (gx, gh, bias, c_prev) = (*gx, *gh, *bias, *c_prev);
        let (d_pre, d_c_prev) =
            dgnn_tensor::lstm::lstm_cell_backward(dh, dc, gates, tanh_c, self.value(c_prev));
        self.accumulate(c_prev, d_c_prev);
        self.accumulate(bias, d_pre.sum_rows());
        self.accumulate(gx, d_pre.clone());
        self.accumulate(gh, d_pre);
    }

    /// Flushes gradients of parameter-bound leaves into the store
    /// (accumulating — call [`ParamStore::zero_grad`] between steps).
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for &(v, id) in &self.param_bindings {
            if let Some(g) = self.grads[v.0].as_ref() {
                store.add_grad(id, g);
            }
        }
    }

    /// Consumes the tape, returning every node value, cached softmax, and
    /// gradient buffer to this thread's workspace arena
    /// ([`dgnn_tensor::workspace`]). A retired checkpoint block's scratch
    /// then backs the next block's tape instead of fresh allocations. No-op
    /// (a plain drop) when no workspace is engaged.
    pub fn recycle(self) {
        if !workspace::is_engaged() {
            return;
        }
        for node in self.nodes {
            workspace::recycle(node.value);
            node.op
                .into_caches()
                .into_iter()
                .for_each(workspace::recycle);
        }
        self.grads
            .into_iter()
            .flatten()
            .for_each(workspace::recycle);
    }

    /// Consumes the tape, moving `v`'s value out and recycling the rest
    /// ([`Tape::recycle`]): a forward-only tape hands back its output
    /// without a copy.
    pub fn into_value(mut self, v: Var) -> Dense {
        let value = std::mem::replace(
            &mut self.nodes[v.0].value,
            Dense::from_vec(0, 0, Vec::new()),
        );
        self.recycle();
        value
    }
}

/// Forward of [`Tape::gcn_tail`]: `[skip.max(0) | (lin + bias).max(0)]`.
fn gcn_tail_forward(skip: Option<&Dense>, lin: &Dense, bias: &Dense) -> Dense {
    let (n, cols) = lin.shape();
    assert_eq!(bias.shape(), (1, cols), "gcn_tail: bias shape mismatch");
    let skip_cols = skip.map_or(0, |s| {
        assert_eq!(s.rows(), n, "gcn_tail: skip/lin row mismatch");
        s.cols()
    });
    let width = skip_cols + cols;
    let mut out = Dense::scratch(n, width);
    let work = n.saturating_mul(width);
    dgnn_tensor::pool::par_rows(out.data_mut(), width, work, |r0, block| {
        for (dr, row) in block.chunks_exact_mut(width).enumerate() {
            let r = r0 + dr;
            let (head, tail) = row.split_at_mut(skip_cols);
            if let Some(skip) = skip {
                for (o, &a) in head.iter_mut().zip(skip.row(r)) {
                    *o = a.max(0.0);
                }
            }
            for ((o, &l), &b) in tail.iter_mut().zip(lin.row(r)).zip(bias.data()) {
                *o = (l + b).max(0.0);
            }
        }
    });
    out
}

/// Backward of [`Tape::gcn_tail`] from the output gradient `g` and the
/// output `out`, whose first `skip_cols` columns are the skip's: the masked
/// `(d_skip, d_lin)`, `d_skip` only when `want_skip` and the skip has
/// columns.
fn gcn_tail_backward(
    g: &Dense,
    out: &Dense,
    skip_cols: usize,
    want_skip: bool,
) -> (Option<Dense>, Dense) {
    let (n, width) = out.shape();
    let cols = width - skip_cols;
    let mask = |dst: &mut [f32], g: &[f32], out: &[f32]| {
        for ((d, &gv), &ov) in dst.iter_mut().zip(g).zip(out) {
            *d = if ov > 0.0 { gv } else { 0.0 };
        }
    };
    let mut d_lin = Dense::scratch(n, cols);
    let work = n.saturating_mul(width);
    if !want_skip || skip_cols == 0 {
        dgnn_tensor::pool::par_rows(d_lin.data_mut(), cols, work, |r0, block| {
            for (dr, dl) in block.chunks_exact_mut(cols).enumerate() {
                let (g, out) = (g.row(r0 + dr), out.row(r0 + dr));
                mask(dl, &g[skip_cols..], &out[skip_cols..]);
            }
        });
        return (None, d_lin);
    }
    let mut d_skip = Dense::scratch(n, skip_cols);
    dgnn_tensor::pool::par_rows_zip(
        [d_skip.data_mut(), d_lin.data_mut()],
        [skip_cols, cols],
        work,
        |r0, [ds, dl]| {
            let rows = ds
                .chunks_exact_mut(skip_cols)
                .zip(dl.chunks_exact_mut(cols));
            for (dr, (ds, dl)) in rows.enumerate() {
                let (g, out) = (g.row(r0 + dr), out.row(r0 + dr));
                mask(ds, &g[..skip_cols], &out[..skip_cols]);
                mask(dl, &g[skip_cols..], &out[skip_cols..]);
            }
        },
    );
    (Some(d_skip), d_lin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1.
        let mut tape = Tape::new();
        let a = tape.input(Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = tape.input(Dense::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let y = tape.matmul(a, b);
        let loss = tape.sum_all(y);
        tape.backward_scalar(loss);
        let ones = Dense::ones(2, 2);
        let da = ones.matmul_transb(tape.value(b));
        let db = tape.value(a).matmul_transa(&ones);
        assert!(tape.grad(a).unwrap().approx_eq(&da, 1e-6));
        assert!(tape.grad(b).unwrap().approx_eq(&db, 1e-6));
    }

    #[test]
    fn constant_gets_no_grad() {
        let mut tape = Tape::new();
        let c = tape.constant(Dense::ones(2, 2));
        let x = tape.input(Dense::ones(2, 2));
        let y = tape.hadamard(c, x);
        let loss = tape.sum_all(y);
        tape.backward_scalar(loss);
        assert!(tape.grad(c).is_none());
        assert!(tape.grad(x).is_some());
    }

    #[test]
    fn spmm_backward_is_transpose_spmm() {
        let a = Rc::new(Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]));
        let mut tape = Tape::new();
        let x = tape.input(Dense::from_fn(3, 2, |r, c| (r + c) as f32));
        let y = tape.spmm(Rc::clone(&a), x);
        let loss = tape.sum_all(y);
        tape.backward_scalar(loss);
        let expected = a.spmm_transa(&Dense::ones(3, 2));
        assert!(tape.grad(x).unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn diamond_accumulates_both_paths() {
        // y = x + x  =>  dy/dx = 2.
        let mut tape = Tape::new();
        let x = tape.input(Dense::ones(1, 3));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        tape.backward_scalar(loss);
        assert!(tape
            .grad(x)
            .unwrap()
            .approx_eq(&Dense::full(1, 3, 2.0), 1e-6));
    }

    #[test]
    fn softmax_xent_gradient_shape_and_sign() {
        let mut tape = Tape::new();
        let logits = tape.input(Dense::from_vec(2, 2, vec![2.0, -1.0, 0.0, 0.5]));
        let labels = Rc::new(vec![0u32, 1]);
        let loss = tape.softmax_cross_entropy(logits, labels);
        assert!(tape.value(loss).get(0, 0) > 0.0);
        tape.backward_scalar(loss);
        let g = tape.grad(logits).unwrap();
        // Gradient rows sum to zero (softmax simplex tangent).
        for r in 0..2 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
        // True-label coordinate has negative gradient.
        assert!(g.get(0, 0) < 0.0);
        assert!(g.get(1, 1) < 0.0);
    }

    #[test]
    fn multi_seed_backward_accumulates() {
        let mut tape = Tape::new();
        let x = tape.input(Dense::ones(2, 2));
        let y1 = tape.scale(x, 2.0);
        let y2 = tape.scale(x, 3.0);
        tape.backward(vec![(y1, Dense::ones(2, 2)), (y2, Dense::ones(2, 2))], None);
        assert!(tape
            .grad(x)
            .unwrap()
            .approx_eq(&Dense::full(2, 2, 5.0), 1e-6));
    }

    #[test]
    fn only_leaves_keep_their_gradient() {
        let mut tape = Tape::new();
        let x = tape.input(Dense::ones(2, 2));
        let w = tape.input(Dense::full(2, 2, 0.5));
        let y = tape.matmul(x, w);
        let z = tape.tanh(y);
        let loss = tape.sum_all(z);
        tape.backward_scalar(loss);
        for v in [y, z, loss] {
            assert!(tape.grad(v).is_none(), "non-leaf gradient outlived its use");
        }
        assert!(tape.grad(x).is_some());
        assert!(tape.grad(w).is_some());
    }

    #[test]
    fn lstm_cell_outputs_are_two_nodes_with_cached_activations() {
        let mut tape = Tape::new();
        let gx = tape.input(Dense::full(3, 8, 0.25));
        let gh = tape.input(Dense::full(3, 8, -0.5));
        let bias = tape.input(Dense::zeros(1, 8));
        let c_prev = tape.input(Dense::ones(3, 2));
        let before = tape.value_elems();
        let (h, c) = tape.lstm_cell(gx, gh, bias, c_prev);
        assert_eq!(tape.value(h).shape(), (3, 2));
        assert_eq!(tape.value(c).shape(), (3, 2));
        // h, c, tanh(c) and the 4h-wide gate activations.
        assert_eq!(tape.value_elems() - before, 3 * 2 * 3 + 3 * 8);
        // Only c is seeded: the cell still propagates, h's slot stays empty.
        tape.backward(vec![(c, Dense::ones(3, 2))], None);
        assert!(tape.grad(h).is_none() && tape.grad(c).is_none());
        assert_eq!(tape.grad(c_prev).unwrap().shape(), (3, 2));
        assert_eq!(tape.grad(gx).unwrap(), tape.grad(gh).unwrap());
        assert_eq!(tape.grad(bias).unwrap().shape(), (1, 8));
    }

    /// The `add_bias → [concat] → relu` chain [`Tape::gcn_tail`] replaced
    /// — the bitwise reference it is tested against.
    fn gcn_tail_unfused(tape: &mut Tape, skip: Option<Var>, lin: Var, bias: Var) -> Var {
        let pre = tape.add_bias(lin, bias);
        let cat = match skip {
            Some(skip) => tape.concat_cols(skip, pre),
            None => pre,
        };
        tape.relu(cat)
    }

    /// `rows × cols` values with `-0.0`, `+0.0`, NaN and `±∞` planted
    /// among finite ones of both signs.
    fn tail_operand(rows: usize, cols: usize, salt: usize) -> Dense {
        let specials = [-0.0f32, 0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        Dense::from_fn(rows, cols, |r, c| {
            let k = r * cols + c + salt;
            if k.is_multiple_of(4) {
                specials[(k / 4) % specials.len()]
            } else {
                ((k * 29 % 31) as f32 - 15.0) * 0.125
            }
        })
    }

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gcn_tail_is_bitwise_the_unfused_chain() {
        // 700 rows engage the pool; `lin` is either a leaf holding the
        // specials or the product `agg·w`, so that `agg` takes the tail's
        // share and then the matmul's.
        let (n, ca, cb) = (700usize, 5usize, 6usize);
        let agg_val = tail_operand(n, ca, 1);
        let w_val = tail_operand(ca, cb, 2).map(|v| if v.is_finite() { v } else { 0.5 });
        let lin_val = tail_operand(n, cb, 3);
        let b_val = tail_operand(1, cb, 4);
        for skip_concat in [false, true] {
            for agg_grad in [false, true] {
                for lin_is_product in [false, true] {
                    let run = |fused: bool| {
                        let mut tape = Tape::new();
                        let agg = if agg_grad {
                            tape.input(agg_val.clone())
                        } else {
                            tape.constant(agg_val.clone())
                        };
                        let w = tape.input(w_val.clone());
                        let lin = if lin_is_product {
                            tape.matmul(agg, w)
                        } else {
                            tape.input(lin_val.clone())
                        };
                        let b = tape.input(b_val.clone());
                        let skip = skip_concat.then_some(agg);
                        let y = if fused {
                            tape.gcn_tail(skip, lin, b)
                        } else {
                            gcn_tail_unfused(&mut tape, skip, lin, b)
                        };
                        let (rows, cols) = tape.value(y).shape();
                        tape.backward(vec![(y, tail_operand(rows, cols, 5))], None);
                        let grad = |v: Var| tape.grad(v).map(bits);
                        let leaf_lin = (!lin_is_product).then(|| grad(lin));
                        (bits(tape.value(y)), grad(agg), grad(w), leaf_lin, grad(b))
                    };
                    let what = format!(
                        "skip {skip_concat}, agg grad {agg_grad}, product {lin_is_product}"
                    );
                    let want = run(false);
                    for threads in [1usize, 2, 4] {
                        let _t = dgnn_tensor::pool::scoped_threads(Some(threads));
                        assert_eq!(run(true), want, "{what}, {threads} threads");
                    }
                    assert_eq!(
                        want.1.is_some(),
                        agg_grad && (skip_concat || lin_is_product)
                    );
                }
            }
        }
    }

    /// A one-rank group: every collective is the identity.
    struct Solo;

    impl Communicator for Solo {
        fn rank(&self) -> usize {
            0
        }
        fn world(&self) -> usize {
            1
        }
        fn all_to_all_dense(&mut self, parts: Vec<Dense>) -> Vec<Dense> {
            parts
        }
        fn all_reduce_sum(&mut self, _data: &mut [f32]) {}
    }

    #[test]
    #[should_panic(expected = "all_gather without a communicator")]
    fn collective_without_a_communicator_panics() {
        let mut tape = Tape::new();
        let x = tape.input(Dense::ones(2, 2));
        let y = tape.all_gather(&mut Solo, x);
        tape.backward(vec![(y, Dense::ones(2, 2))], None);
    }

    #[test]
    fn narrow_concat_roundtrip_gradient() {
        let mut tape = Tape::new();
        let x = tape.input(Dense::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let a = tape.narrow_cols(x, 0, 2);
        let b = tape.narrow_cols(x, 2, 2);
        let y = tape.concat_cols(a, b);
        let loss = tape.sum_all(y);
        tape.backward_scalar(loss);
        assert!(tape.grad(x).unwrap().approx_eq(&Dense::ones(1, 4), 1e-6));
    }
}
