//! The fused LSTM cell kernels: everything between the two gate GEMMs and
//! the new state `(h, c)`, forward and backward, as one row-parallel pass
//! each.
//!
//! The op-by-op chain these replace (`add`, `add_bias`, four
//! `narrow_cols`, four activations, three Hadamards, an `add`, a `tanh`)
//! materialised 21·n·h floats of intermediates per step and ran its
//! backward through four `n×4h` `pad_cols` temporaries. The fused forward
//! keeps only what the backward reads — the `n×4h` gate activations and
//! `tanh(c)`, the way the softmax cross-entropy op keeps its `probs`.
//!
//! # Bit-identity
//!
//! Every output element evaluates the chain's scalar expressions in the
//! chain's order: pre-activation `(gx + gh) + b`, sigmoid
//! `1.0 / (1.0 + (-v).exp())`, `f32::tanh`, `c = f·c_prev + i·g`,
//! `h = o·tanh(c)`; backward `gv * yv * (1.0 - yv)` and
//! `gv * (1.0 - yv * yv)`. The chain assembled `d_pre` by adding four
//! zero-padded strips, which stored `0.0 + v` into every column (so a
//! `-0.0` gradient landed as `+0.0`); the fused backward writes `0.0 + v`
//! too. Rows never interact, so any row partition yields the same bits.
//!
//! The forward's activations run eight rows at a time: the lanes of one
//! [`F32x8`] are eight consecutive rows of one gate column, each a
//! different output element, through the [`crate::lanes`] functions,
//! which equal `f32::tanh` / `f32::exp` bit for bit. A block's last rows
//! (fewer than eight) fill the low lanes of a partial vector. The kernel
//! is compiled twice, portable and AVX2+FMA, like the GEMM core.

use crate::simd::{self, F32x8, LANES};
use crate::{pool, Dense};

/// Gates per cell; the fused `n×4h` matrices hold them as `[i f g o]`.
const GATES: usize = 4;

/// What one fused cell step produces: the new state and the two caches its
/// backward reads.
pub struct LstmCellOut {
    /// New hidden state `o · tanh(c)` (`n×h`).
    pub h: Dense,
    /// New cell memory `f · c_prev + i · g` (`n×h`).
    pub c: Dense,
    /// Gate activations `[i f g o]` (`n×4h`).
    pub gates: Dense,
    /// `tanh(c)` (`n×h`).
    pub tanh_c: Dense,
}

/// Pool work estimate for a pass over `gate_elems` gate elements: engages
/// where the element-wise kernels it replaces did (`PAR_MIN_ELEMS` gate
/// elements), so the few-row weight LSTMs of EvolveGCN never dispatch.
fn cell_work(gate_elems: usize) -> usize {
    gate_elems.saturating_mul(pool::PAR_MIN_ROW_WORK / pool::PAR_MIN_ELEMS)
}

// The forward over one block of rows: `gx`, `gh`, `c_prev` and the four
// outputs `[gates, tanh_c, c, h]` are that block's rows, `bias` the `1×4h`
// row.
simd::simd_dispatch!(fn cell_forward_rows = cell_forward_rows_impl / cell_forward_rows_avx2(
    gx: &[f32],
    gh: &[f32],
    bias: &[f32],
    c_prev: &[f32],
    out: [&mut [f32]; 4]
));

#[inline(always)]
fn cell_forward_rows_impl(
    gx: &[f32],
    gh: &[f32],
    bias: &[f32],
    c_prev: &[f32],
    out: [&mut [f32]; 4],
) {
    let [gates, tanh_c, c, h] = out;
    let w = bias.len();
    let hid = w / GATES;
    let rows = gates.len() / w;
    for r0 in (0..rows).step_by(LANES) {
        let lanes = (rows - r0).min(LANES);
        for (j, &b) in bias.iter().enumerate() {
            let mut pre = F32x8::ZERO;
            for l in 0..lanes {
                let at = (r0 + l) * w + j;
                pre.0[l] = (gx[at] + gh[at]) + b;
            }
            // Gate order `[i f g o]`: only the candidate `g` takes tanh.
            let act = if j / hid == 2 {
                pre.tanh()
            } else {
                pre.sigmoid()
            };
            for l in 0..lanes {
                gates[(r0 + l) * w + j] = act.0[l];
            }
        }
        for j in 0..hid {
            let mut cv = F32x8::ZERO;
            for l in 0..lanes {
                let g = &gates[(r0 + l) * w..(r0 + l + 1) * w];
                let keep = g[hid + j] * c_prev[(r0 + l) * hid + j];
                let write = g[j] * g[2 * hid + j];
                cv.0[l] = keep + write;
            }
            let t = cv.tanh();
            for l in 0..lanes {
                let at = (r0 + l) * hid + j;
                c[at] = cv.0[l];
                tanh_c[at] = t.0[l];
                h[at] = gates[(r0 + l) * w + 3 * hid + j] * t.0[l];
            }
        }
    }
}

/// Fused LSTM cell forward from the two gate products `gx = x·Wx` and
/// `gh = h_prev·Wh` (`n×4h` each), the `1×4h` bias and the previous cell
/// memory (`n×h`).
///
/// # Panics
/// Panics at a named check when the shapes disagree.
pub fn lstm_cell_forward(gx: &Dense, gh: &Dense, b: &Dense, c_prev: &Dense) -> LstmCellOut {
    assert_eq!(gx.shape(), gh.shape(), "lstm_cell: gx/gh shape mismatch");
    let (n, w) = gx.shape();
    assert_eq!(b.shape(), (1, w), "lstm_cell: bias shape mismatch");
    assert_eq!(
        (c_prev.rows(), c_prev.cols() * GATES),
        (n, w),
        "lstm_cell: c_prev shape mismatch"
    );
    let hid = c_prev.cols();
    let mut out = LstmCellOut {
        h: Dense::scratch(n, hid),
        c: Dense::scratch(n, hid),
        gates: Dense::scratch(n, w),
        tanh_c: Dense::scratch(n, hid),
    };
    pool::par_rows_zip(
        [
            out.gates.data_mut(),
            out.tanh_c.data_mut(),
            out.c.data_mut(),
            out.h.data_mut(),
        ],
        [w, hid, hid, hid],
        cell_work(n * w),
        |r0, blocks| {
            let rows = r0..r0 + blocks[0].len() / w;
            cell_forward_rows(
                &gx.data()[rows.start * w..rows.end * w],
                &gh.data()[rows.start * w..rows.end * w],
                b.data(),
                &c_prev.data()[rows.start * hid..rows.end * hid],
                blocks,
            );
        },
    );
    out
}

/// Fused LSTM cell backward: from the gradients of `h` and `c` (either may
/// be absent — the last step of a timeline has no `dc`, a cell whose `h`
/// feeds nothing has no `dh`) to `(d_pre, d_c_prev)`, where `d_pre`
/// (`n×4h`) is the gradient of both gate products and, row-summed, of the
/// bias.
///
/// # Panics
/// Panics when both gradients are absent or a shape disagrees.
pub fn lstm_cell_backward(
    dh: Option<&Dense>,
    dc: Option<&Dense>,
    gates: &Dense,
    tanh_c: &Dense,
    c_prev: &Dense,
) -> (Dense, Dense) {
    assert!(
        dh.is_some() || dc.is_some(),
        "lstm_cell backward without a gradient"
    );
    let (n, w) = gates.shape();
    let hid = tanh_c.cols();
    for d in dh.iter().chain(&dc) {
        assert_eq!(
            d.shape(),
            (n, hid),
            "lstm_cell: state gradient shape mismatch"
        );
    }
    let mut d_pre = Dense::scratch(n, w);
    let mut d_c_prev = Dense::scratch(n, hid);
    pool::par_rows_zip(
        [d_pre.data_mut(), d_c_prev.data_mut()],
        [w, hid],
        cell_work(n * w),
        |r0, [d_pre, d_c_prev]| {
            for (dr, d_pre) in d_pre.chunks_exact_mut(w).enumerate() {
                let r = r0 + dr;
                let gates = gates.row(r);
                let (tanh_c, c_prev) = (tanh_c.row(r), c_prev.row(r));
                let (dh, dc) = (dh.map(|d| d.row(r)), dc.map(|d| d.row(r)));
                let d_c_prev = &mut d_c_prev[dr * hid..(dr + 1) * hid];
                for j in 0..hid {
                    let (i, f, g, o) = (
                        gates[j],
                        gates[hid + j],
                        gates[2 * hid + j],
                        gates[3 * hid + j],
                    );
                    // Through h = o·tanh(c): the output gate, and the
                    // share of dc that arrives through tanh(c).
                    let (d_o_pre, dc_total) = match (dh, dc) {
                        (Some(dh), dc) => {
                            let d_o = dh[j] * tanh_c[j];
                            let via_h = (dh[j] * o) * (1.0 - tanh_c[j] * tanh_c[j]);
                            let total = dc.map_or(via_h, |dc| dc[j] + via_h);
                            (0.0 + d_o * o * (1.0 - o), total)
                        }
                        (None, Some(dc)) => (0.0, dc[j]),
                        (None, None) => unreachable!("checked above"),
                    };
                    let (d_i, d_g) = (dc_total * g, dc_total * i);
                    let d_f = dc_total * c_prev[j];
                    d_c_prev[j] = dc_total * f;
                    d_pre[j] = 0.0 + d_i * i * (1.0 - i);
                    d_pre[hid + j] = 0.0 + d_f * f * (1.0 - f);
                    d_pre[2 * hid + j] = 0.0 + d_g * (1.0 - g * g);
                    d_pre[3 * hid + j] = d_o_pre;
                }
            }
        },
    );
    (d_pre, d_c_prev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(d: &Dense) -> Vec<u32> {
        d.data().iter().map(|v| v.to_bits()).collect()
    }

    /// [`bits`] with every NaN as the canonical one: where two NaNs of
    /// opposite sign meet in a sum or product, which one survives depends
    /// on the operand order codegen picks for the commutative operation,
    /// which differs between the kernel and the chain's separate passes.
    fn bits_mod_nan(d: &Dense) -> Vec<u32> {
        d.data()
            .iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }

    /// Values that reach both flat ends of every gate, both zeros, and the
    /// inputs that cross every select of the lane `tanh` / `exp`: NaN,
    /// ±∞, subnormals, ±22 and ±88.7.
    fn operand(rows: usize, cols: usize, salt: usize) -> Dense {
        let specials = [
            0.0f32,
            -0.0,
            1e4,
            -1e4,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            22.0,
            -22.0,
            88.7,
            -88.7,
        ];
        Dense::from_fn(rows, cols, |r, c| {
            let k = r * cols + c + salt;
            if k.is_multiple_of(3) {
                specials[(k / 3) % specials.len()]
            } else {
                ((k * 37 % 101) as f32 - 50.0) * 0.03
            }
        })
    }

    /// The op-by-op chain on plain matrices, gradients assembled the way
    /// the tape assembled them: `pad_cols` strips added in tape order.
    #[allow(clippy::type_complexity)]
    fn chain(
        gx: &Dense,
        gh: &Dense,
        b: &Dense,
        c_prev: &Dense,
        dh: Option<&Dense>,
        dc: Option<&Dense>,
    ) -> [Dense; 6] {
        let hid = c_prev.cols();
        let pre = gx.add(gh).add_row_broadcast(b);
        let sig = |d: Dense| d.map(|v| 1.0 / (1.0 + (-v).exp()));
        let i = sig(pre.narrow_cols(0, hid));
        let f = sig(pre.narrow_cols(hid, hid));
        let g = pre.narrow_cols(2 * hid, hid).map(f32::tanh);
        let o = sig(pre.narrow_cols(3 * hid, hid));
        let c = f.hadamard(c_prev).add(&i.hadamard(&g));
        let tanh_c = c.map(f32::tanh);
        let h = o.hadamard(&tanh_c);

        let d_sig = |g: &Dense, y: &Dense| g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv));
        let d_tanh = |g: &Dense, y: &Dense| g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv));
        let mut dc_total = dc.cloned();
        let mut d_pre: Option<Dense> = None;
        let mut strip = |d: Dense, start: usize| {
            let padded = d.pad_cols(4 * hid, start);
            match &mut d_pre {
                Some(acc) => acc.add_assign(&padded),
                slot => *slot = Some(padded),
            }
        };
        let d_o = dh.map(|dh| dh.hadamard(&tanh_c));
        if let Some(dh) = dh {
            let via_h = d_tanh(&dh.hadamard(&o), &tanh_c);
            match &mut dc_total {
                Some(acc) => acc.add_assign(&via_h),
                slot => *slot = Some(via_h),
            }
        }
        let dc_total = dc_total.expect("a gradient was given");
        let d_c_prev = dc_total.hadamard(&f);
        if let Some(d_o) = d_o {
            strip(d_sig(&d_o, &o), 3 * hid);
        }
        strip(d_tanh(&dc_total.hadamard(&i), &g), 2 * hid);
        strip(d_sig(&dc_total.hadamard(c_prev), &f), hid);
        strip(d_sig(&dc_total.hadamard(&g), &i), 0);
        let gates = i.concat_cols(&f).concat_cols(&g).concat_cols(&o);
        let d_pre = d_pre.expect("three strips at least");
        [h, c, gates, tanh_c, d_pre, d_c_prev]
    }

    #[test]
    fn fused_kernels_are_bitwise_the_dense_op_chain() {
        // 600 × 16 gate elements engage the pool at 2 and 4 threads; the
        // row counts around 8 cross the partial-vector remainder.
        for (rows, hid) in [0usize, 1, 7, 8, 9, 600]
            .into_iter()
            .flat_map(|rows| [4usize, 6, 8].map(|hid| (rows, hid)))
        {
            let gx = operand(rows, 4 * hid, 1);
            let gh = operand(rows, 4 * hid, 2);
            let b = operand(1, 4 * hid, 5);
            let c_prev = operand(rows, hid, 7);
            let dh = operand(rows, hid, 11);
            let dc = operand(rows, hid, 13);
            for (dh, dc) in [(Some(&dh), None), (None, Some(&dc)), (Some(&dh), Some(&dc))] {
                let [h, c, gates, tanh_c, d_pre, d_c_prev] = chain(&gx, &gh, &b, &c_prev, dh, dc);
                for threads in [1usize, 2, 4] {
                    let _t = pool::scoped_threads(Some(threads));
                    let out = lstm_cell_forward(&gx, &gh, &b, &c_prev);
                    let what = format!("rows {rows}, hid {hid}, {threads} threads");
                    // Each gate is a function of one pre-activation, so
                    // even its NaNs are strict; `c` and what follows it
                    // combine two operands.
                    assert_eq!(bits(&out.gates), bits(&gates), "gates, {what}");
                    assert_eq!(bits_mod_nan(&out.c), bits_mod_nan(&c), "c, {what}");
                    assert_eq!(
                        bits_mod_nan(&out.tanh_c),
                        bits_mod_nan(&tanh_c),
                        "tanh_c, {what}"
                    );
                    assert_eq!(bits_mod_nan(&out.h), bits_mod_nan(&h), "h, {what}");
                    let (got_pre, got_prev) =
                        lstm_cell_backward(dh, dc, &out.gates, &out.tanh_c, &c_prev);
                    // `-0.0` gradients must land as `+0.0`, as the strip
                    // sums left them.
                    assert_eq!(
                        bits_mod_nan(&got_pre),
                        bits_mod_nan(&d_pre),
                        "d_pre, {what}"
                    );
                    assert_eq!(
                        bits_mod_nan(&got_prev),
                        bits_mod_nan(&d_c_prev),
                        "d_c_prev, {what}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lstm_cell: c_prev shape mismatch")]
    fn forward_rejects_a_cell_memory_of_the_wrong_width() {
        let g = Dense::zeros(3, 8);
        lstm_cell_forward(&g, &g, &Dense::zeros(1, 8), &Dense::zeros(3, 3));
    }
}
