//! Finite-difference verification of every differentiable op and of
//! representative composites (a GCN step, an LSTM-style gate block).

use std::rc::Rc;

use dgnn_autograd::gradcheck::{check_input_grad, check_param_grads};
use dgnn_autograd::{ParamStore, Tape};
use dgnn_tensor::init::glorot_uniform;
use dgnn_tensor::Csr;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xD6)
}

#[test]
fn matmul_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", glorot_uniform(3, 4, &mut rng));
    let b = store.add("b", glorot_uniform(4, 2, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let y = tape.matmul(av, bv);
            tape.mean_all(y)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn spmm_grads() {
    let adj = Rc::new(Csr::from_edges(
        4,
        &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
    ));
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = store.add("x", glorot_uniform(4, 3, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let y = tape.spmm(Rc::clone(&adj), xv);
            tape.mean_all(y)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn elementwise_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", glorot_uniform(2, 3, &mut rng));
    let b = store.add("b", glorot_uniform(2, 3, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let s = tape.add(av, bv);
            let d = tape.sub(s, bv);
            let h = tape.hadamard(d, av);
            let sc = tape.scale(h, 0.7);
            tape.mean_all(sc)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn activation_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", glorot_uniform(3, 3, &mut rng));
    for act in 0..3usize {
        check_param_grads(
            &mut store,
            |tape, store| {
                let av = tape.param(store, a);
                let y = match act {
                    0 => tape.sigmoid(av),
                    1 => tape.tanh(av),
                    _ => tape.relu(av),
                };
                tape.mean_all(y)
            },
            EPS,
            TOL,
        )
        .unwrap_or_else(|e| panic!("activation {act}: {e:?}"));
    }
}

#[test]
fn bias_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = store.add("x", glorot_uniform(4, 3, &mut rng));
    let b = store.add("b", glorot_uniform(1, 3, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let bv = tape.param(store, b);
            let y = tape.add_bias(xv, bv);
            let z = tape.tanh(y);
            tape.mean_all(z)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn concat_narrow_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", glorot_uniform(3, 2, &mut rng));
    let b = store.add("b", glorot_uniform(3, 3, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let cat = tape.concat_cols(av, bv);
            let left = tape.narrow_cols(cat, 1, 3);
            let y = tape.sigmoid(left);
            tape.mean_all(y)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn gather_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = store.add("x", glorot_uniform(5, 2, &mut rng));
    let idx = Rc::new(vec![0u32, 3, 3, 1]);
    check_param_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let g = tape.gather_rows(xv, Rc::clone(&idx));
            let y = tape.tanh(g);
            tape.mean_all(y)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn lin_comb_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", glorot_uniform(2, 2, &mut rng));
    let b = store.add("b", glorot_uniform(2, 2, &mut rng));
    let c = store.add("c", glorot_uniform(2, 2, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let cv = tape.param(store, c);
            let y = tape.lin_comb(&[(0.5, av), (0.3, bv), (0.2, cv)]);
            let z = tape.tanh(y);
            tape.mean_all(z)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn softmax_xent_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let logits = store.add("logits", glorot_uniform(6, 3, &mut rng));
    let labels = Rc::new(vec![0u32, 1, 2, 0, 2, 1]);
    check_param_grads(
        &mut store,
        |tape, store| {
            let z = tape.param(store, logits);
            tape.softmax_cross_entropy(z, Rc::clone(&labels))
        },
        EPS,
        TOL,
    )
    .unwrap();
}

#[test]
fn sum_all_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let a = store.add("a", glorot_uniform(2, 4, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let y = tape.tanh(av);
            let s = tape.sum_all(y);
            tape.scale(s, 0.1)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

/// A full GCN step `σ(Ã·X·W + b)` followed by a classification loss —
/// the composite every model layer is built from.
#[test]
fn gcn_step_composite_grads() {
    let adj = Rc::new(dgnn_tensor::normalized_laplacian(&Csr::from_edges(
        5,
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)],
    )));
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = store.add("x", glorot_uniform(5, 3, &mut rng));
    let w = store.add("w", glorot_uniform(3, 2, &mut rng));
    let b = store.add("b", glorot_uniform(1, 2, &mut rng));
    let labels = Rc::new(vec![0u32, 1, 0, 1, 0]);
    check_param_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let wv = tape.param(store, w);
            let bv = tape.param(store, b);
            let agg = tape.spmm(Rc::clone(&adj), xv);
            let lin = tape.matmul(agg, wv);
            let pre = tape.add_bias(lin, bv);
            let act = tape.relu(pre);
            tape.softmax_cross_entropy(act, Rc::clone(&labels))
        },
        EPS,
        TOL,
    )
    .unwrap();
}

/// An LSTM-style gate block exercising the narrow/sigmoid/tanh/hadamard
/// composite used by the CD-GCN and EvolveGCN temporal components.
#[test]
fn lstm_gate_composite_grads() {
    let mut rng = rng();
    let mut store = ParamStore::new();
    let x = store.add("x", glorot_uniform(3, 2, &mut rng));
    let wx = store.add("wx", glorot_uniform(2, 8, &mut rng));
    let h0 = store.add("h0", glorot_uniform(3, 2, &mut rng));
    let wh = store.add("wh", glorot_uniform(2, 8, &mut rng));
    let bias = store.add("bias", glorot_uniform(1, 8, &mut rng));
    check_param_grads(
        &mut store,
        |tape, store| {
            let xv = tape.param(store, x);
            let wxv = tape.param(store, wx);
            let h0v = tape.param(store, h0);
            let whv = tape.param(store, wh);
            let bv = tape.param(store, bias);
            let gx = tape.matmul(xv, wxv);
            let gh = tape.matmul(h0v, whv);
            let pre0 = tape.add(gx, gh);
            let pre = tape.add_bias(pre0, bv);
            let i = tape.narrow_cols(pre, 0, 2);
            let f = tape.narrow_cols(pre, 2, 2);
            let g = tape.narrow_cols(pre, 4, 2);
            let o = tape.narrow_cols(pre, 6, 2);
            let ig = tape.sigmoid(i);
            let fg = tape.sigmoid(f);
            let gg = tape.tanh(g);
            let og = tape.sigmoid(o);
            let c_half = tape.hadamard(fg, gg);
            let c_new0 = tape.hadamard(ig, gg);
            let c_new = tape.add(c_new0, c_half);
            let ct = tape.tanh(c_new);
            let h = tape.hadamard(og, ct);
            tape.mean_all(h)
        },
        EPS,
        TOL,
    )
    .unwrap();
}

/// Input-leaf gradients (the block-carry path of gradient checkpointing).
#[test]
fn input_leaf_grads() {
    let mut rng = rng();
    let x = glorot_uniform(3, 3, &mut rng);
    let w = glorot_uniform(3, 2, &mut rng);
    check_input_grad(
        &x,
        |tape, xin| {
            let xv = tape.input(xin);
            let wv = tape.constant(w.clone());
            let y = tape.matmul(xv, wv);
            let z = tape.tanh(y);
            (xv, tape.mean_all(z))
        },
        EPS,
        TOL,
    )
    .unwrap();
}

/// Seeded backward equals backward through an explicitly stitched graph:
/// the correctness core of cross-tape checkpointing.
#[test]
fn two_tape_stitching_matches_single_tape() {
    let mut rng = rng();
    let x0 = glorot_uniform(4, 3, &mut rng);
    let w1 = glorot_uniform(3, 3, &mut rng);
    let w2 = glorot_uniform(3, 2, &mut rng);

    // Single tape reference.
    let mut full = Tape::new();
    let x = full.input(x0.clone());
    let w1v = full.constant(w1.clone());
    let w2v = full.constant(w2.clone());
    let h_pre = full.matmul(x, w1v);
    let h = full.tanh(h_pre);
    let y_pre = full.matmul(h, w2v);
    let y = full.sigmoid(y_pre);
    let loss = full.mean_all(y);
    full.backward_scalar(loss);
    let ref_dx = full.grad(x).unwrap().clone();

    // Two tapes stitched at h.
    let mut t1 = Tape::new();
    let x1 = t1.input(x0.clone());
    let w1c = t1.constant(w1.clone());
    let h1_pre = t1.matmul(x1, w1c);
    let h1 = t1.tanh(h1_pre);
    let h_val = t1.value(h1).clone();

    let mut t2 = Tape::new();
    let h2 = t2.input(h_val);
    let w2c = t2.constant(w2);
    let y2_pre = t2.matmul(h2, w2c);
    let y2 = t2.sigmoid(y2_pre);
    let loss2 = t2.mean_all(y2);
    t2.backward_scalar(loss2);
    let dh = t2.grad(h2).unwrap().clone();

    t1.backward(vec![(h1, dh)], None);
    let stitched_dx = t1.grad(x1).unwrap().clone();

    assert!(stitched_dx.approx_eq(&ref_dx, 1e-6));
}

#[test]
fn concat_rows_gradcheck() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut store = ParamStore::new();
    let a = store.add("a", glorot_uniform(2, 3, &mut rng));
    let b = store.add("b", glorot_uniform(4, 3, &mut rng));
    dgnn_autograd::gradcheck::check_param_grads(
        &mut store,
        |tape, store| {
            let av = tape.param(store, a);
            let bv = tape.param(store, b);
            let stacked = tape.concat_rows(&[av, bv]);
            let y = tape.tanh(stacked);
            tape.mean_all(y)
        },
        1e-2,
        2e-2,
    )
    .unwrap();
}
