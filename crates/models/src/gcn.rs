//! The Graph Convolutional Network layer (paper Eq. 2) with the optional
//! skip concatenation of CD-GCN and support for externally supplied
//! (evolved) weights for EvolveGCN.
//!
//! A layer is three tape nodes: the SpMM aggregation `Ã·X` (skipped when
//! it is pre-computed), the GEMM `Ã·X·W`, and one fused tail
//! ([`Tape::gcn_tail`]) for the bias, the skip concatenation and the ReLU,
//! whose elements are bitwise those of the unfused
//! `add_bias → [concat] → relu` chain.

use std::rc::Rc;

use dgnn_autograd::{ParamId, ParamStore, Tape, Var};
use dgnn_tensor::init::glorot_uniform;
use dgnn_tensor::Csr;
use rand::Rng;

/// A GCN layer `Y = σ(Ã·X·W + b)`, optionally concatenating the aggregated
/// input (`Y = σ(Ã·X ∘ Ã·X·W)`, CD-GCN's skip connection).
#[derive(Clone, Debug)]
pub struct GcnLayer {
    /// Weight matrix id (`in_f x out_f`).
    pub w: ParamId,
    /// Bias id (`1 x out_f`).
    pub b: ParamId,
    in_f: usize,
    out_f: usize,
    skip_concat: bool,
}

/// Per-tape bound variables of a [`GcnLayer`].
#[derive(Clone, Copy, Debug)]
pub struct GcnVars {
    w: Var,
    b: Var,
}

impl GcnVars {
    /// The bound bias variable (EvolveGCN pairs it with evolved weights).
    pub fn bias(&self) -> Var {
        self.b
    }
}

impl GcnLayer {
    /// Registers a new layer's parameters. The bias starts at a small
    /// positive value: with the narrow hidden widths of the paper's setup
    /// (6), a zero-init ReLU layer can die outright on near-regular graphs
    /// whose degree features are close to row-constant.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_f: usize,
        out_f: usize,
        skip_concat: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(format!("{name}.w"), glorot_uniform(in_f, out_f, rng));
        let b = store.add(format!("{name}.b"), dgnn_tensor::Dense::full(1, out_f, 0.1));
        Self {
            w,
            b,
            in_f,
            out_f,
            skip_concat,
        }
    }

    /// Input width.
    pub fn in_f(&self) -> usize {
        self.in_f
    }

    /// Output width (`in_f + out_f` when the skip concat is active).
    pub fn output_width(&self) -> usize {
        if self.skip_concat {
            self.in_f + self.out_f
        } else {
            self.out_f
        }
    }

    /// Binds the layer's parameters onto a tape segment.
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> GcnVars {
        GcnVars {
            w: tape.param(store, self.w),
            b: tape.param(store, self.b),
        }
    }

    /// Forward for one snapshot with the bound weights.
    pub fn forward(&self, tape: &mut Tape, vars: GcnVars, a_hat: Rc<Csr>, x: Var) -> Var {
        self.forward_with_weight(tape, vars.w, vars.b, a_hat, x)
    }

    /// Forward with an explicit weight variable (EvolveGCN's evolved `W_t`).
    pub fn forward_with_weight(
        &self,
        tape: &mut Tape,
        w: Var,
        b: Var,
        a_hat: Rc<Csr>,
        x: Var,
    ) -> Var {
        let agg = tape.spmm(a_hat, x);
        self.tail(tape, agg, w, b)
    }

    /// Forward when the aggregation `Ã·X` has been pre-computed (paper
    /// §5.5's first-layer optimization): skips the SpMM.
    pub fn forward_preaggregated(&self, tape: &mut Tape, vars: GcnVars, agg: Var) -> Var {
        self.tail(tape, agg, vars.w, vars.b)
    }

    /// `σ([agg |] agg·W + b)`: the GEMM, then the bias, the optional skip
    /// concatenation and the ReLU as one fused tape op.
    fn tail(&self, tape: &mut Tape, agg: Var, w: Var, b: Var) -> Var {
        let lin = tape.matmul(agg, w);
        tape.gcn_tail(self.skip_concat.then_some(agg), lin, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_autograd::gradcheck::check_param_grads;
    use dgnn_tensor::{normalized_laplacian, Dense};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn laplacian() -> Rc<Csr> {
        Rc::new(normalized_laplacian(&Csr::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        )))
    }

    #[test]
    fn output_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "g", 3, 4, false, &mut rng);
        let mut tape = Tape::new();
        let vars = layer.bind(&mut tape, &store);
        let x = tape.constant(Dense::ones(5, 3));
        let y = layer.forward(&mut tape, vars, laplacian(), x);
        assert_eq!(tape.value(y).shape(), (5, 4));
    }

    #[test]
    fn skip_concat_widens_output() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "g", 3, 4, true, &mut rng);
        assert_eq!(layer.output_width(), 7);
        let mut tape = Tape::new();
        let vars = layer.bind(&mut tape, &store);
        let x = tape.constant(Dense::ones(5, 3));
        let y = layer.forward(&mut tape, vars, laplacian(), x);
        assert_eq!(tape.value(y).shape(), (5, 7));
    }

    #[test]
    fn gradients_check_out() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "g", 2, 3, true, &mut rng);
        let x_val = dgnn_tensor::init::glorot_uniform(5, 2, &mut rng);
        let a = laplacian();
        check_param_grads(
            &mut store,
            |tape, store| {
                let vars = layer.bind(tape, store);
                let x = tape.constant(x_val.clone());
                let y = layer.forward(tape, vars, Rc::clone(&a), x);
                let z = tape.tanh(y);
                tape.mean_all(z)
            },
            1e-2,
            2e-2,
        )
        .unwrap();
    }

    #[test]
    fn preaggregated_matches_full_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let layer = GcnLayer::new(&mut store, "g", 2, 3, false, &mut rng);
        let x_val = dgnn_tensor::init::glorot_uniform(5, 2, &mut rng);
        let a = laplacian();

        let mut t1 = Tape::new();
        let v1 = layer.bind(&mut t1, &store);
        let x1 = t1.constant(x_val.clone());
        let y1 = layer.forward(&mut t1, v1, Rc::clone(&a), x1);

        let mut t2 = Tape::new();
        let v2 = layer.bind(&mut t2, &store);
        let agg = t2.constant(a.spmm(&x_val));
        let y2 = layer.forward_preaggregated(&mut t2, v2, agg);

        assert!(t1.value(y1).approx_eq(t2.value(y2), 1e-6));
    }
}
