//! A batched LSTM cell (Hochreiter & Schmidhuber) operating on matrix
//! "batches" of rows — vertices for CD-GCN's feature LSTM, weight-matrix
//! rows for EvolveGCN's weight evolution.

use dgnn_autograd::{ParamId, ParamStore, Tape, Var};
use dgnn_tensor::init::glorot_uniform;
use dgnn_tensor::Dense;
use rand::Rng;

/// LSTM cell parameters: fused gate weights `[i f g o]`.
#[derive(Clone, Debug)]
pub struct LstmCell {
    /// Input-to-gates weights (`in_f x 4h`).
    pub wx: ParamId,
    /// Hidden-to-gates weights (`h x 4h`).
    pub wh: ParamId,
    /// Gate bias (`1 x 4h`).
    pub b: ParamId,
    in_f: usize,
    hidden: usize,
}

/// Per-tape bound variables of an [`LstmCell`].
#[derive(Clone, Copy, Debug)]
pub struct LstmVars {
    wx: Var,
    wh: Var,
    b: Var,
}

/// The recurrent state `(h, c)` as tape variables.
#[derive(Clone, Copy, Debug)]
pub struct LstmState {
    /// Hidden state.
    pub h: Var,
    /// Cell memory.
    pub c: Var,
}

impl LstmCell {
    /// Registers a new cell's parameters. The forget-gate bias is
    /// initialised to 1, the standard trick for gradient flow over long
    /// timelines.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_f: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let wx = store.add(format!("{name}.wx"), glorot_uniform(in_f, 4 * hidden, rng));
        let wh = store.add(
            format!("{name}.wh"),
            glorot_uniform(hidden, 4 * hidden, rng),
        );
        let bias = Dense::from_fn(1, 4 * hidden, |_, c| {
            if (hidden..2 * hidden).contains(&c) {
                1.0
            } else {
                0.0
            }
        });
        let b = store.add(format!("{name}.b"), bias);
        Self {
            wx,
            wh,
            b,
            in_f,
            hidden,
        }
    }

    /// Input width.
    pub fn in_f(&self) -> usize {
        self.in_f
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Binds the cell parameters onto a tape segment.
    pub fn bind(&self, tape: &mut Tape, store: &ParamStore) -> LstmVars {
        LstmVars {
            wx: tape.param(store, self.wx),
            wh: tape.param(store, self.wh),
            b: tape.param(store, self.b),
        }
    }

    /// A zero initial state for a batch of `rows`.
    pub fn zero_state(&self, tape: &mut Tape, rows: usize) -> LstmState {
        LstmState {
            h: tape.input(Dense::zeros(rows, self.hidden)),
            c: tape.input(Dense::zeros(rows, self.hidden)),
        }
    }

    /// One step: consumes `x` (`rows x in_f`) and the previous state,
    /// returning the new state (`h` is the step output). Two gate GEMMs
    /// feed one fused cell op ([`Tape::lstm_cell`]).
    pub fn step(&self, tape: &mut Tape, vars: LstmVars, x: Var, prev: LstmState) -> LstmState {
        let gx = tape.matmul(x, vars.wx);
        let gh = tape.matmul(prev.h, vars.wh);
        let (h, c) = tape.lstm_cell(gx, gh, vars.b, prev.c);
        LstmState { h, c }
    }

    /// The 17-op chain [`LstmCell::step`] ran before the fused cell op —
    /// the bitwise reference the fused kernels are tested against.
    #[cfg(test)]
    fn step_unfused(&self, tape: &mut Tape, vars: LstmVars, x: Var, prev: LstmState) -> LstmState {
        let h = self.hidden;
        let gx = tape.matmul(x, vars.wx);
        let gh = tape.matmul(prev.h, vars.wh);
        let pre0 = tape.add(gx, gh);
        let pre = tape.add_bias(pre0, vars.b);
        let i_pre = tape.narrow_cols(pre, 0, h);
        let f_pre = tape.narrow_cols(pre, h, h);
        let g_pre = tape.narrow_cols(pre, 2 * h, h);
        let o_pre = tape.narrow_cols(pre, 3 * h, h);
        let i = tape.sigmoid(i_pre);
        let f = tape.sigmoid(f_pre);
        let g = tape.tanh(g_pre);
        let o = tape.sigmoid(o_pre);
        let keep = tape.hadamard(f, prev.c);
        let write = tape.hadamard(i, g);
        let c = tape.add(keep, write);
        let c_act = tape.tanh(c);
        let h_new = tape.hadamard(o, c_act);
        LstmState { h: h_new, c }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgnn_autograd::gradcheck::check_param_grads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn step_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let vars = cell.bind(&mut tape, &store);
        let state = cell.zero_state(&mut tape, 7);
        let x = tape.constant(Dense::ones(7, 3));
        let next = cell.step(&mut tape, vars, x, state);
        assert_eq!(tape.value(next.h).shape(), (7, 4));
        assert_eq!(tape.value(next.c).shape(), (7, 4));
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let b = store.value(cell.b);
        assert_eq!(b.get(0, 3), 1.0);
        assert_eq!(b.get(0, 0), 0.0);
        assert_eq!(b.get(0, 6), 0.0);
    }

    #[test]
    fn zero_input_zero_state_gives_bounded_output() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let vars = cell.bind(&mut tape, &store);
        let state = cell.zero_state(&mut tape, 4);
        let x = tape.constant(Dense::zeros(4, 2));
        let next = cell.step(&mut tape, vars, x, state);
        // |h| <= 1 because of the tanh.
        assert!(tape.value(next.h).data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn step_rejects_input_width_mismatch() {
        // The cell was built for in_f = 2; feeding 3-wide inputs must fail
        // loudly at the gate matmul, not corrupt state.
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let vars = cell.bind(&mut tape, &store);
        let state = cell.zero_state(&mut tape, 4);
        let x = tape.constant(Dense::ones(4, 3));
        let _ = cell.step(&mut tape, vars, x, state);
    }

    #[test]
    #[should_panic(expected = "lstm_cell: gx/gh shape mismatch")]
    fn step_rejects_state_row_mismatch() {
        // A carry whose row count disagrees with the batch (a wrong vertex
        // chunk) must be rejected when the input and hidden gates combine.
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let vars = cell.bind(&mut tape, &store);
        let state = cell.zero_state(&mut tape, 5);
        let x = tape.constant(Dense::ones(4, 2));
        let _ = cell.step(&mut tape, vars, x, state);
    }

    #[test]
    fn zero_row_batch_steps_to_zero_rows() {
        // Degenerate vertex chunks (a rank owning no rows) still step.
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let vars = cell.bind(&mut tape, &store);
        let state = cell.zero_state(&mut tape, 0);
        let x = tape.constant(Dense::zeros(0, 2));
        let next = cell.step(&mut tape, vars, x, state);
        assert_eq!(tape.value(next.h).shape(), (0, 3));
        assert_eq!(tape.value(next.c).shape(), (0, 3));
    }

    /// Which of the last step's outputs a run seeds.
    #[derive(Clone, Copy, Debug)]
    enum Seed {
        H,
        C,
        Both,
    }

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Inputs with signed zeros and saturating magnitudes planted among
    /// ordinary values, so every gate sees both of its flat ends.
    fn planted(rows: usize, cols: usize, rng: &mut StdRng) -> Dense {
        let mut d = glorot_uniform(rows, cols, rng);
        let specials = [0.0, -0.0, 1e4, -1e4];
        for (k, v) in d.data_mut().iter_mut().enumerate() {
            if k.is_multiple_of(3) {
                *v = specials[(k / 3) % specials.len()];
            }
        }
        d
    }

    /// Chains `xs.len()` steps (fused or the reference chain), seeds the
    /// last state, and returns the bits of `h`, `c` and of the gradients
    /// of every `x`, `h_prev`, `c_prev`, `Wx`, `Wh`, `b` — in that order.
    fn run_chain(
        cell: &LstmCell,
        store: &ParamStore,
        fused: bool,
        xs: &[Dense],
        state0: (&Dense, &Dense),
        seed: Seed,
    ) -> Vec<Vec<u32>> {
        let mut tape = Tape::new();
        let vars = cell.bind(&mut tape, store);
        let first = LstmState {
            h: tape.input(state0.0.clone()),
            c: tape.input(state0.1.clone()),
        };
        let x_vars: Vec<Var> = xs.iter().map(|x| tape.input(x.clone())).collect();
        let mut state = first;
        for &x in &x_vars {
            state = if fused {
                cell.step(&mut tape, vars, x, state)
            } else {
                cell.step_unfused(&mut tape, vars, x, state)
            };
        }
        let (rows, hid) = tape.value(state.h).shape();
        let dh = Dense::from_fn(rows, hid, |r, c| 0.25 - (r * hid + c) as f32 * 0.01);
        let dc = Dense::from_fn(rows, hid, |r, c| (r + 2 * c) as f32 * 0.02 - 0.1);
        let seeds = match seed {
            Seed::H => vec![(state.h, dh)],
            Seed::C => vec![(state.c, dc)],
            Seed::Both => vec![(state.h, dh), (state.c, dc)],
        };
        tape.backward(seeds, None);
        let mut out = vec![bits(tape.value(state.h)), bits(tape.value(state.c))];
        let leaves = x_vars
            .iter()
            .chain([&first.h, &first.c, &vars.wx, &vars.wh, &vars.b]);
        for &leaf in leaves {
            out.push(tape.grad(leaf).map(bits).unwrap_or_default());
        }
        tape.recycle();
        out
    }

    #[test]
    fn fused_step_is_bitwise_the_unfused_chain() {
        // 600 rows × 4·4 gate columns clears the pool's engage floor; the
        // smaller batches stay serial.
        for rows in [0usize, 1, 7, 600] {
            for steps in 1..=3usize {
                let mut rng = StdRng::seed_from_u64(40 + rows as u64 + steps as u64);
                let mut store = ParamStore::new();
                let cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng);
                let xs: Vec<Dense> = (0..steps).map(|_| planted(rows, 3, &mut rng)).collect();
                let (h0, c0) = (planted(rows, 4, &mut rng), planted(rows, 4, &mut rng));
                for seed in [Seed::H, Seed::C, Seed::Both] {
                    let reference = {
                        let _t = dgnn_tensor::pool::scoped_threads(Some(1));
                        run_chain(&cell, &store, false, &xs, (&h0, &c0), seed)
                    };
                    for threads in [1usize, 2, 4] {
                        let _t = dgnn_tensor::pool::scoped_threads(Some(threads));
                        let fused = run_chain(&cell, &store, true, &xs, (&h0, &c0), seed);
                        assert_eq!(
                            fused, reference,
                            "rows {rows} steps {steps} {seed:?} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_step_writes_every_element_of_dirty_scratch() {
        // Gradient release hands recycled buffers to the kernels mid-sweep:
        // a fused output element left unwritten would keep stale bits. Run
        // once on NaN inputs so the arena holds NaN-filled buffers of
        // exactly the shapes the real run takes, then compare.
        let mut rng = StdRng::seed_from_u64(48);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng);
        let rows = 600;
        let xs: Vec<Dense> = (0..2).map(|_| planted(rows, 3, &mut rng)).collect();
        let (h0, c0) = (planted(rows, 4, &mut rng), planted(rows, 4, &mut rng));
        let poison = Dense::full(rows, 3, f32::NAN);
        let poison_state = Dense::full(rows, 4, f32::NAN);
        for seed in [Seed::H, Seed::C, Seed::Both] {
            let reference = run_chain(&cell, &store, false, &xs, (&h0, &c0), seed);
            for threads in [1usize, 2] {
                let _t = dgnn_tensor::pool::scoped_threads(Some(threads));
                let _ws = dgnn_tensor::workspace::engage();
                run_chain(
                    &cell,
                    &store,
                    true,
                    &[poison.clone(), poison.clone()],
                    (&poison_state, &poison_state),
                    Seed::Both,
                );
                let fused = run_chain(&cell, &store, true, &xs, (&h0, &c0), seed);
                assert_eq!(fused, reference, "{seed:?} threads {threads}");
            }
        }
    }

    #[test]
    fn two_step_sequence_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 2, 3, &mut rng);
        let x0 = glorot_uniform(4, 2, &mut rng);
        let x1 = glorot_uniform(4, 2, &mut rng);
        check_param_grads(
            &mut store,
            |tape, store| {
                let vars = cell.bind(tape, store);
                let state = cell.zero_state(tape, 4);
                let xa = tape.constant(x0.clone());
                let s1 = cell.step(tape, vars, xa, state);
                let xb = tape.constant(x1.clone());
                let s2 = cell.step(tape, vars, xb, s1);
                tape.mean_all(s2.h)
            },
            1e-2,
            2e-2,
        )
        .unwrap();
    }
}
