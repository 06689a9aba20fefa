//! Vectorized SpMM row kernels: the inner loops of [`crate::sparse::Csr`]'s
//! `spmm` family, written on the [`crate::simd`] shim. Each output row's
//! feature columns are processed in register-resident [`F32x8`] chunks,
//! with the next stored entry's `x` row software-prefetched. Vector lanes
//! only ever span *different* output columns; every output element still
//! accumulates its stored-entry contributions serially in ascending `k`
//! from `+0.0` with one unfused mul+add rounding per step — bitwise the
//! sequence the scalar gather always ran — so golden captures and
//! thread-count equivalence are preserved (see `crate::simd` for the
//! dispatch story).

use crate::simd::{self, F32x8, LANES};

/// How many stored entries ahead the gather prefetches the `x` row of.
/// Far enough to cover L3 latency at ~2 entries/cycle/row, near enough to
/// stay inside the k-panel most of the time; out-of-range lookahead is
/// simply not issued.
const PREFETCH_AHEAD: usize = 16;

/// One register-resident column chunk of a row gather: accumulates
/// `NV` [`F32x8`] vectors (columns `j .. j + NV·LANES` of `out_row`) over
/// stored entries `lo..hi`, then stores — overwrite semantics, bitwise
/// identical to zero-fill-then-accumulate since every accumulator starts
/// at `+0.0`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gather_chunk<const NV: usize>(
    out_row: &mut [f32],
    indices: &[u32],
    values: &[f32],
    lo: usize,
    hi: usize,
    x: &[f32],
    f: usize,
    j: usize,
) {
    let mut acc = [F32x8::ZERO; NV];
    for k in lo..hi {
        let c = indices[k] as usize;
        if let Some(&cn) = indices.get(k + PREFETCH_AHEAD) {
            // Pull every cache line of the chunk's span of the future x
            // row (16 f32 = one 64-byte line).
            let span = cn as usize * f + j;
            let mut off = 0;
            while off < NV * LANES {
                simd::prefetch_read(x, span + off);
                off += 16;
            }
        }
        let v = F32x8::splat(values[k]);
        let xr = &x[c * f + j..];
        for (t, a) in acc.iter_mut().enumerate() {
            *a = a.add_mul(v, F32x8::load(&xr[t * LANES..]));
        }
    }
    for (t, a) in acc.into_iter().enumerate() {
        a.store(&mut out_row[j + t * LANES..]);
    }
}

/// Overwrites `out_row` (length `f`) with row `r`'s gather
/// `Σₖ values[k] · x[indices[k]]` for `k` in `lo..hi`, columns processed
/// in a 64/32/16/8-wide chunk cascade plus a scalar tail. Per output
/// element the accumulation is serial ascending-`k` — the scalar kernel's
/// exact sequence.
#[inline(always)]
fn gather_row(
    out_row: &mut [f32],
    indices: &[u32],
    values: &[f32],
    lo: usize,
    hi: usize,
    x: &[f32],
    f: usize,
) {
    let mut j = 0;
    while f - j >= 8 * LANES {
        gather_chunk::<8>(out_row, indices, values, lo, hi, x, f, j);
        j += 8 * LANES;
    }
    if f - j >= 4 * LANES {
        gather_chunk::<4>(out_row, indices, values, lo, hi, x, f, j);
        j += 4 * LANES;
    }
    if f - j >= 2 * LANES {
        gather_chunk::<2>(out_row, indices, values, lo, hi, x, f, j);
        j += 2 * LANES;
    }
    if f - j >= LANES {
        gather_chunk::<1>(out_row, indices, values, lo, hi, x, f, j);
        j += LANES;
    }
    if j < f {
        out_row[j..].fill(0.0);
        for k in lo..hi {
            let v = values[k];
            let xr = &x[indices[k] as usize * f..];
            for jj in j..f {
                out_row[jj] += v * xr[jj];
            }
        }
    }
}

/// `out_row += v · x_row`, vector lanes over columns, scalar tail. The
/// accumulate (load-modify-store) counterpart of [`gather_row`] for
/// scatter-shaped kernels where a row receives contributions across
/// several calls.
#[inline(always)]
fn axpy_row(out_row: &mut [f32], v: f32, x_row: &[f32]) {
    let f = out_row.len();
    let vv = F32x8::splat(v);
    let mut j = 0;
    while f - j >= LANES {
        let acc = F32x8::load(&out_row[j..]).add_mul(vv, F32x8::load(&x_row[j..]));
        acc.store(&mut out_row[j..]);
        j += LANES;
    }
    for jj in j..f {
        out_row[jj] += v * x_row[jj];
    }
}

// Contiguous-row gather block: the par_rows closure body of `Csr::spmm`
// (rows `r0 ..` for `block.len() / f` rows). Overwrites the block.
simd::simd_dispatch!(pub(crate) fn spmm_block = spmm_block_impl / spmm_block_avx2(
    block: &mut [f32],
    f: usize,
    r0: usize,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
));

#[inline(always)]
fn spmm_block_impl(
    block: &mut [f32],
    f: usize,
    r0: usize,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
) {
    for (dr, out_row) in block.chunks_mut(f).enumerate() {
        let r = r0 + dr;
        gather_row(out_row, indices, values, indptr[r], indptr[r + 1], x, f);
    }
}

// Selected-row gather block: the par_rows closure body of `Csr::spmm_rows`
// (`rows` holds the selected source row per output row). Overwrites.
simd::simd_dispatch!(pub(crate) fn spmm_rows_block = spmm_rows_block_impl / spmm_rows_block_avx2(
    block: &mut [f32],
    f: usize,
    rows: &[u32],
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
));

#[inline(always)]
fn spmm_rows_block_impl(
    block: &mut [f32],
    f: usize,
    rows: &[u32],
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
) {
    for (dr, out_row) in block.chunks_mut(f).enumerate() {
        let r = rows[dr] as usize;
        gather_row(out_row, indices, values, indptr[r], indptr[r + 1], x, f);
    }
}

// The serial scatter of `Csr::spmm_transa` (out[c] += v · x[r] in stored
// order). `out` must be zero-initialized by the caller — scatter rows
// receive contributions from many source rows, so this path accumulates.
simd::simd_dispatch!(pub(crate) fn spmm_transa_scatter
    = spmm_transa_scatter_impl / spmm_transa_scatter_avx2(
    out: &mut [f32],
    f: usize,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
));

#[inline(always)]
fn spmm_transa_scatter_impl(
    out: &mut [f32],
    f: usize,
    indptr: &[usize],
    indices: &[u32],
    values: &[f32],
    x: &[f32],
) {
    let rows = indptr.len() - 1;
    for r in 0..rows {
        let x_row = &x[r * f..(r + 1) * f];
        for k in indptr[r]..indptr[r + 1] {
            if let Some(&cn) = indices.get(k + PREFETCH_AHEAD) {
                simd::prefetch_read(out, cn as usize * f);
            }
            let c = indices[k] as usize;
            axpy_row(&mut out[c * f..(c + 1) * f], values[k], x_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_and_gather_handle_all_widths() {
        for f in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 96] {
            let x: Vec<f32> = (0..4 * f).map(|i| (i % 13) as f32 - 6.0).collect();
            let indices = [1u32, 0, 3, 2];
            let values = [0.5f32, -2.0, 1.5, 3.0];
            let mut got = vec![7.0f32; f];
            gather_row(&mut got, &indices, &values, 0, 4, &x, f);
            let mut want = vec![0.0f32; f];
            for k in 0..4 {
                for j in 0..f {
                    want[j] += values[k] * x[indices[k] as usize * f + j];
                }
            }
            for j in 0..f {
                assert_eq!(got[j].to_bits(), want[j].to_bits(), "gather f={f} j={j}");
            }
            let mut acc: Vec<f32> = (0..f).map(|j| j as f32 * 0.25).collect();
            let mut ref_acc = acc.clone();
            axpy_row(&mut acc, -1.5, &x[..f]);
            for j in 0..f {
                ref_acc[j] += -1.5 * x[j];
                assert_eq!(acc[j].to_bits(), ref_acc[j].to_bits(), "axpy f={f} j={j}");
            }
        }
    }
}
