//! Dense row-major `f32` matrices and the kernels dynamic-GNN training needs.
//!
//! The GPU kernels of the original system (PyTorch/CUDA) are replaced by
//! cache-blocked CPU loops. All three GEMM variants run one shared core
//! (`gemm_block`): the vectorizable i-k-j (axpy) order over
//! `GEMM_KC`-row k-panels and `GEMM_JC`-wide column strips, with
//! `GEMM_MR` output rows register-blocked per pass so one streamed strip
//! of B feeds several accumulator rows. `matmul_transb` packs its
//! transposed operand (the small weight) once per call — an O(n²) tiled
//! copy that buys the O(n³) loop contiguous, autovectorization-friendly
//! accesses instead of a serial-dependency dot product down a strided
//! column. `matmul_transa` packs nothing: its `A` rows are columns of
//! `self`, and a register quad reads four adjacent floats per `k`.
//!
//! Blocking is legal under the bit-identity rule because every
//! `out[i][j]` still accumulates its `k` contributions serially, in
//! increasing `k`, from `+0.0`, with one `mul`+`add` rounding per step —
//! the same scalar sequence the naive triple loop performs; panels and
//! register quads only reorder work *across* output elements, never
//! within one.
//!
//! The hot kernels (`matmul*`, element-wise maps, reductions) run on the
//! intra-rank thread pool ([`crate::pool`]) when the matrix is large enough:
//! each pool thread produces a disjoint contiguous block of the output with
//! the same inner loop the serial kernel uses, so results are bit-identical
//! at every thread count. Scalar reductions use the fixed-chunk order of
//! [`crate::pool::reduce_chunks`], which is likewise thread-count invariant.

use std::fmt;

use crate::simd::{self, F32x8};
use crate::{pool, workspace};

/// A dense row-major matrix of `f32` values.
///
/// Backing buffers come from the per-thread [`workspace`] arena when one is
/// engaged, so constructors in hot loops reuse retired buffers instead of
/// hitting the allocator; semantics are identical either way.
#[derive(PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        // Without an engaged arena a plain slice copy beats scratch-take +
        // copy (the fallback take zero-fills first); with one, reuse wins.
        if workspace::is_engaged() {
            let mut out = Dense::scratch(self.rows, self.cols);
            out.data.copy_from_slice(&self.data);
            out
        } else {
            workspace::note_fresh();
            Dense {
                rows: self.rows,
                cols: self.cols,
                data: self.data.clone(),
            }
        }
    }
}

impl fmt::Debug for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dense({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

/// Cache-blocking panel height: rows of the (packed) B operand processed
/// per k-panel, keeping a `GEMM_KC × GEMM_JC` f32 tile of B (16 KiB)
/// resident in L1 across the register-blocked row quads.
const GEMM_KC: usize = 64;
/// Cache-blocking strip width in f32 lanes — a multiple of the widest
/// vector width (16 lanes of AVX-512) so full strips vectorize with no
/// scalar tail.
const GEMM_JC: usize = 64;
/// Register-blocking factor: output rows sharing one streamed B strip per
/// micro-kernel pass, quartering B traffic.
const GEMM_MR: usize = 4;
/// Register micro-tile width in f32 lanes: two [`F32x8`] vectors per
/// output row, so the `GEMM_MR × GEMM_NR` tile holds eight accumulator
/// vectors in registers across a whole k-panel (loaded from and stored to
/// `out` once per panel instead of once per k).
const GEMM_NR: usize = 2 * simd::LANES;

/// How the GEMM core reads its `A` operand, the `m×kk` block whose rows are
/// the output rows: readers of `A[i..i + 4][k]` and of `A[i][k]` by `k`,
/// built once per row quad or row so their bounds are hoisted.
trait AOperand {
    /// `k ↦ A[i..i + GEMM_MR][k]`.
    fn quad(&self, i: usize) -> impl Fn(usize) -> [f32; GEMM_MR];
    /// `k ↦ A[i][k]`.
    fn row(&self, i: usize) -> impl Fn(usize) -> f32;
}

/// `A` stored row-major, `kk` elements per row (`matmul`, `matmul_transb`).
struct RowMajor<'a> {
    a: &'a [f32],
    kk: usize,
}

impl AOperand for RowMajor<'_> {
    #[inline(always)]
    fn quad(&self, i: usize) -> impl Fn(usize) -> [f32; GEMM_MR] {
        let kk = self.kk;
        let rows: [&[f32]; GEMM_MR] =
            std::array::from_fn(|r| &self.a[(i + r) * kk..(i + r + 1) * kk]);
        move |k| rows.map(|row| row[k])
    }

    #[inline(always)]
    fn row(&self, i: usize) -> impl Fn(usize) -> f32 {
        let row = &self.a[i * self.kk..(i + 1) * self.kk];
        move |k| row[k]
    }
}

/// `A` read in place as the transpose of a row-major matrix with `cols`
/// columns, from its column `col0` on (`matmul_transa`): `A[i][k]` is
/// `a[k][col0 + i]`, so one `k` of a row quad is four adjacent floats.
struct Transposed<'a> {
    a: &'a [f32],
    cols: usize,
    col0: usize,
}

impl AOperand for Transposed<'_> {
    #[inline(always)]
    fn quad(&self, i: usize) -> impl Fn(usize) -> [f32; GEMM_MR] {
        let (a, cols, c) = (self.a, self.cols, self.col0 + i);
        move |k| {
            let q = &a[k * cols + c..k * cols + c + GEMM_MR];
            std::array::from_fn(|r| q[r])
        }
    }

    #[inline(always)]
    fn row(&self, i: usize) -> impl Fn(usize) -> f32 {
        let (a, cols, c) = (self.a, self.cols, self.col0 + i);
        move |k| a[k * cols + c]
    }
}

// The shared blocked GEMM core: accumulates `A (m×kk) · b (kk×n)` into
// `out` (m×n), cache-blocked `GEMM_KC × GEMM_JC` with `GEMM_MR`-row
// register blocking. Within one column strip every k-panel of `b` is
// streamed once and reused by every row quad of the block.
//
// Bit-identity: every `out[i][j]` starts at `+0.0` and accumulates its
// `k` contributions serially in increasing `k` with one `mul`+`add`
// rounding per step — exactly the naive triple loop's scalar sequence —
// so any blocking, any layout of `A`, and any row partition of this
// routine across pool threads, yields identical bits.
//
// `skip_zeros` may only be set when every element of `b` is finite. A
// `±0.0 · finite` product is `±0.0`, and adding `±0.0` to an
// accumulator that started at `+0.0` can never change its bits (in
// round-to-nearest the accumulator can never itself become `-0.0`), so
// the skip is a pure optimisation for sparse-ish A. With a non-finite
// `b` the caller must clear it so `0.0 · ∞ = NaN` propagates.
//
// Compiled twice (portable + AVX2) and runtime-dispatched, once per layout
// of `A`; see [`crate::simd`] for why the two compiles are bit-identical.
simd::simd_dispatch!(fn gemm_block = gemm_block_impl / gemm_block_avx2(
    out: &mut [f32], a_block: &[f32], kk: usize, b: &[f32], n: usize, skip_zeros: bool
));

#[inline(always)]
fn gemm_block_impl(
    out: &mut [f32],
    a_block: &[f32],
    kk: usize,
    b: &[f32],
    n: usize,
    skip_zeros: bool,
) {
    gemm_core(out, &RowMajor { a: a_block, kk }, kk, b, n, skip_zeros);
}

simd::simd_dispatch!(fn gemm_block_transa = gemm_block_transa_impl / gemm_block_transa_avx2(
    out: &mut [f32], a: &[f32], cols: usize, col0: usize, b: &[f32], n: usize, skip_zeros: bool
));

#[inline(always)]
fn gemm_block_transa_impl(
    out: &mut [f32],
    a: &[f32],
    cols: usize,
    col0: usize,
    b: &[f32],
    n: usize,
    skip_zeros: bool,
) {
    let kk = a.len() / cols;
    gemm_core(out, &Transposed { a, cols, col0 }, kk, b, n, skip_zeros);
}

#[inline(always)]
fn gemm_core(out: &mut [f32], a: &impl AOperand, kk: usize, b: &[f32], n: usize, skip_zeros: bool) {
    out.fill(0.0);
    if n == 0 || kk == 0 {
        return;
    }
    let m = out.len() / n;
    for j0 in (0..n).step_by(GEMM_JC) {
        let j1 = (j0 + GEMM_JC).min(n);
        for k0 in (0..kk).step_by(GEMM_KC) {
            let k1 = (k0 + GEMM_KC).min(kk);
            let mut i = 0;
            while i + GEMM_MR <= m {
                let (q0, rest) = out[i * n..(i + GEMM_MR) * n].split_at_mut(n);
                let (q1, rest) = rest.split_at_mut(n);
                let (q2, q3) = rest.split_at_mut(n);
                micro_quad(q0, q1, q2, q3, a, i, k0, k1, b, n, j0, j1, skip_zeros);
                i += GEMM_MR;
            }
            while i < m {
                let q = &mut out[i * n..(i + 1) * n];
                micro_row(q, a, i, k0, k1, b, n, j0, j1, skip_zeros);
                i += 1;
            }
        }
    }
}

/// The `GEMM_MR × GEMM_NR` register micro-kernel: for four output rows
/// (`q0..q3`, full `n`-wide row slices; `A` rows `i..i + 4`) and the
/// column strip `j0..j1`,
/// accumulates the k-panel `k0..k1` with eight [`F32x8`] accumulators
/// held in registers for the whole panel. Tiles cascade `GEMM_NR` → one
/// vector → one partial vector (the `w < 8` columns a strip ends with,
/// loaded and stored through [`F32x8::load_partial`] /
/// [`F32x8::store_partial`], the padded lanes discarded), so every strip
/// width is covered and no width read-modify-writes `out` per `k`; per
/// output element the arithmetic is the same serial increasing-k mul+add
/// sequence as the scalar loop (lanes only span adjacent columns), so bits
/// are unchanged.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_quad(
    q0: &mut [f32],
    q1: &mut [f32],
    q2: &mut [f32],
    q3: &mut [f32],
    a: &impl AOperand,
    i: usize,
    k0: usize,
    k1: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    j1: usize,
    skip_zeros: bool,
) {
    let quad = a.quad(i);
    let mut j = j0;
    while j1 - j >= GEMM_NR {
        let jh = j + simd::LANES;
        let mut c00 = F32x8::load(&q0[j..]);
        let mut c01 = F32x8::load(&q0[jh..]);
        let mut c10 = F32x8::load(&q1[j..]);
        let mut c11 = F32x8::load(&q1[jh..]);
        let mut c20 = F32x8::load(&q2[j..]);
        let mut c21 = F32x8::load(&q2[jh..]);
        let mut c30 = F32x8::load(&q3[j..]);
        let mut c31 = F32x8::load(&q3[jh..]);
        for k in k0..k1 {
            let [a0, a1, a2, a3] = quad(k);
            if skip_zeros && a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                continue;
            }
            let bk = &b[k * n + j..];
            let b0 = F32x8::load(bk);
            let b1 = F32x8::load(&bk[simd::LANES..]);
            let v0 = F32x8::splat(a0);
            c00 = c00.add_mul(v0, b0);
            c01 = c01.add_mul(v0, b1);
            let v1 = F32x8::splat(a1);
            c10 = c10.add_mul(v1, b0);
            c11 = c11.add_mul(v1, b1);
            let v2 = F32x8::splat(a2);
            c20 = c20.add_mul(v2, b0);
            c21 = c21.add_mul(v2, b1);
            let v3 = F32x8::splat(a3);
            c30 = c30.add_mul(v3, b0);
            c31 = c31.add_mul(v3, b1);
        }
        c00.store(&mut q0[j..]);
        c01.store(&mut q0[jh..]);
        c10.store(&mut q1[j..]);
        c11.store(&mut q1[jh..]);
        c20.store(&mut q2[j..]);
        c21.store(&mut q2[jh..]);
        c30.store(&mut q3[j..]);
        c31.store(&mut q3[jh..]);
        j += GEMM_NR;
    }
    if j1 - j >= simd::LANES {
        let mut c0 = F32x8::load(&q0[j..]);
        let mut c1 = F32x8::load(&q1[j..]);
        let mut c2 = F32x8::load(&q2[j..]);
        let mut c3 = F32x8::load(&q3[j..]);
        for k in k0..k1 {
            let [a0, a1, a2, a3] = quad(k);
            if skip_zeros && a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                continue;
            }
            let bv = F32x8::load(&b[k * n + j..]);
            c0 = c0.add_mul(F32x8::splat(a0), bv);
            c1 = c1.add_mul(F32x8::splat(a1), bv);
            c2 = c2.add_mul(F32x8::splat(a2), bv);
            c3 = c3.add_mul(F32x8::splat(a3), bv);
        }
        c0.store(&mut q0[j..]);
        c1.store(&mut q1[j..]);
        c2.store(&mut q2[j..]);
        c3.store(&mut q3[j..]);
        j += simd::LANES;
    }
    if j < j1 {
        let w = j1 - j;
        let mut c0 = F32x8::load_partial(&q0[j..], w);
        let mut c1 = F32x8::load_partial(&q1[j..], w);
        let mut c2 = F32x8::load_partial(&q2[j..], w);
        let mut c3 = F32x8::load_partial(&q3[j..], w);
        for k in k0..k1 {
            let [a0, a1, a2, a3] = quad(k);
            if skip_zeros && a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                continue;
            }
            let bv = F32x8::load_partial(&b[k * n + j..], w);
            c0 = c0.add_mul(F32x8::splat(a0), bv);
            c1 = c1.add_mul(F32x8::splat(a1), bv);
            c2 = c2.add_mul(F32x8::splat(a2), bv);
            c3 = c3.add_mul(F32x8::splat(a3), bv);
        }
        c0.store_partial(&mut q0[j..], w);
        c1.store_partial(&mut q1[j..], w);
        c2.store_partial(&mut q2[j..], w);
        c3.store_partial(&mut q3[j..], w);
    }
}

/// Single-row tail of the micro-kernel (output row counts not divisible
/// by `GEMM_MR`): output row `q` is `A` row `i`; same column cascade and
/// bit-identity argument as [`micro_quad`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_row(
    q: &mut [f32],
    a: &impl AOperand,
    i: usize,
    k0: usize,
    k1: usize,
    b: &[f32],
    n: usize,
    j0: usize,
    j1: usize,
    skip_zeros: bool,
) {
    let at = a.row(i);
    let mut j = j0;
    while j1 - j >= GEMM_NR {
        let jh = j + simd::LANES;
        let mut c0 = F32x8::load(&q[j..]);
        let mut c1 = F32x8::load(&q[jh..]);
        for k in k0..k1 {
            let av = at(k);
            if skip_zeros && av == 0.0 {
                continue;
            }
            let bk = &b[k * n + j..];
            let v = F32x8::splat(av);
            c0 = c0.add_mul(v, F32x8::load(bk));
            c1 = c1.add_mul(v, F32x8::load(&bk[simd::LANES..]));
        }
        c0.store(&mut q[j..]);
        c1.store(&mut q[jh..]);
        j += GEMM_NR;
    }
    if j1 - j >= simd::LANES {
        let mut c0 = F32x8::load(&q[j..]);
        for k in k0..k1 {
            let av = at(k);
            if skip_zeros && av == 0.0 {
                continue;
            }
            c0 = c0.add_mul(F32x8::splat(av), F32x8::load(&b[k * n + j..]));
        }
        c0.store(&mut q[j..]);
        j += simd::LANES;
    }
    if j < j1 {
        let w = j1 - j;
        let mut c0 = F32x8::load_partial(&q[j..], w);
        for k in k0..k1 {
            let av = at(k);
            if skip_zeros && av == 0.0 {
                continue;
            }
            c0 = c0.add_mul(F32x8::splat(av), F32x8::load_partial(&b[k * n + j..], w));
        }
        c0.store_partial(&mut q[j..], w);
    }
}

/// Whether the zero-skip fast path may engage against this `b` operand:
/// worth the O(len) scan only when the output is tall enough to amortize
/// it, and legal only when `b` is entirely finite (see `gemm_block`).
/// The decision never changes results — with finite `b` skipped and
/// unskipped paths are bit-identical.
fn allow_zero_skip(out_rows: usize, b: &[f32]) -> bool {
    out_rows >= 16 && b.iter().all(|v| v.is_finite())
}

impl Dense {
    /// An all-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: workspace::take_zeroed(rows * cols),
        }
    }

    /// A matrix of the given shape with *unspecified* contents (recycled
    /// bits when a [`workspace`] is engaged). Strictly for kernels that
    /// write every element before any read — never hand one out unfilled.
    pub fn scratch(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: workspace::take_scratch(rows * cols),
        }
    }

    /// An all-ones matrix of the given shape.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut out = Self::scratch(rows, cols);
        out.data.fill(value);
        out
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// The identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the raw data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self * other`, row-parallel over the output and
    /// cache/register-blocked (see the module docs for why blocking keeps
    /// results bit-identical to the naive triple loop).
    ///
    /// Rows of `self` that are exactly `±0.0` may be skipped as a fast
    /// path, but only when `other` is entirely finite — the skip is then
    /// provably bit-neutral, so the result is *always* the plain IEEE
    /// product: `0.0 · ∞ = NaN` propagates, and all three `matmul*`
    /// variants agree bitwise with their explicit-transpose forms on any
    /// input.
    ///
    /// # Panics
    /// Panics when the inner dimensions disagree — validated up front,
    /// before any output allocation.
    pub fn matmul(&self, other: &Dense) -> Dense {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (kk, n) = (self.cols, other.cols);
        // Scratch output: each block is zeroed just before its
        // accumulation (cache-warm, and skips the arena's up-front fill).
        let mut out = Dense::scratch(self.rows, n);
        let skip = allow_zero_skip(self.rows, &other.data);
        let work = self.rows.saturating_mul(kk).saturating_mul(n);
        pool::par_rows(&mut out.data, n, work, |r0, block| {
            let rows = block.len() / n;
            let a_block = &self.data[r0 * kk..(r0 + rows) * kk];
            gemm_block(block, a_block, kk, &other.data, n, skip);
        });
        out
    }

    /// Matrix product `selfᵀ * other`, reading `self` in place: output
    /// row `i` is column `i` of `self`, so a register quad's four `A`
    /// values at one `k` are four adjacent floats of row `k`. Its outputs
    /// are skinny (`self` is `n×f` against `n×h` gradients), so the pool
    /// hands each thread one block of whole quads and each thread streams
    /// `other` once. Per output element the `k` accumulation order is
    /// [`Dense::matmul`]'s, so the result is bitwise the explicit
    /// `self.transpose().matmul(other)`; zero-skip and non-finite
    /// semantics are exactly [`Dense::matmul`]'s.
    ///
    /// # Panics
    /// Panics when the row counts disagree — validated up front, before
    /// any output allocation.
    pub fn matmul_transa(&self, other: &Dense) -> Dense {
        assert_eq!(self.rows, other.rows, "matmul_transa shape mismatch");
        let (kk, n) = (self.rows, other.cols);
        let mut out = Dense::scratch(self.cols, n);
        let skip = allow_zero_skip(self.cols, &other.data);
        let work = kk.saturating_mul(self.cols).saturating_mul(n);
        pool::par_row_groups(&mut out.data, n, GEMM_MR, work, |i0, block| {
            gemm_block_transa(block, &self.data, self.cols, i0, &other.data, n, skip);
        });
        out
    }

    /// Matrix product `self * otherᵀ`: packs `otherᵀ` once per call and
    /// runs the same blocked row-parallel core as [`Dense::matmul`].
    ///
    /// The pack-and-transpose replaces the old per-element dot product —
    /// a serial FP dependency chain the compiler cannot vectorize — with
    /// the vectorizable axpy order; since the dot product accumulated
    /// each `out[i][j]` in the same increasing-`k` order from `0.0`, the
    /// rewrite is bit-identical on every input (the dot-product form ran
    /// ~4x slower than `matmul` at the same size).
    ///
    /// # Panics
    /// Panics when the column counts disagree — validated up front, before
    /// any output allocation.
    pub fn matmul_transb(&self, other: &Dense) -> Dense {
        assert_eq!(self.cols, other.cols, "matmul_transb shape mismatch");
        let (kk, n) = (self.cols, other.rows);
        let bt = other.transpose();
        let mut out = Dense::scratch(self.rows, n);
        let skip = allow_zero_skip(self.rows, &bt.data);
        let work = self.rows.saturating_mul(n).saturating_mul(kk);
        pool::par_rows(&mut out.data, n, work, |r0, block| {
            let rows = block.len() / n;
            let a_block = &self.data[r0 * kk..(r0 + rows) * kk];
            gemm_block(block, a_block, kk, &bt.data, n, skip);
        });
        workspace::recycle(bt);
        out
    }

    /// The transposed matrix — a tiled copy (32×32 tiles so both source
    /// rows and destination rows stay cache-resident), partitioned over
    /// output row blocks under the memory-bound pool gate. Pure data
    /// movement: tiling and partitioning cannot affect values.
    pub fn transpose(&self) -> Dense {
        const TILE: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Dense::scratch(cols, rows);
        let work = self.data.len().saturating_mul(2);
        pool::par_rows_membound(&mut out.data, rows, work, |c0, block| {
            let cblk = block.len() / rows;
            for rt in (0..rows).step_by(TILE) {
                let r1 = (rt + TILE).min(rows);
                for ct in (0..cblk).step_by(TILE) {
                    let c1 = (ct + TILE).min(cblk);
                    for c in ct..c1 {
                        let dst = &mut block[c * rows + rt..c * rows + r1];
                        for (o, r) in dst.iter_mut().zip(rt..r1) {
                            *o = self.data[r * cols + c0 + c];
                        }
                    }
                }
            }
        });
        out
    }

    fn assert_same_shape(&self, other: &Dense, op: &str) {
        assert_eq!(self.shape(), other.shape(), "{op}: shape mismatch");
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Dense) -> Dense {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Dense) -> Dense {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Dense) -> Dense {
        self.assert_same_shape(other, "hadamard");
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += other` (element-parallel).
    pub fn add_assign(&mut self, other: &Dense) {
        self.assert_same_shape(other, "add_assign");
        pool::par_elems(&mut self.data, |start, chunk| {
            let n = chunk.len();
            for (a, &b) in chunk.iter_mut().zip(&other.data[start..start + n]) {
                *a += b;
            }
        });
    }

    /// In-place `self += alpha * other` (element-parallel).
    pub fn axpy(&mut self, alpha: f32, other: &Dense) {
        self.assert_same_shape(other, "axpy");
        pool::par_elems(&mut self.data, |start, chunk| {
            let n = chunk.len();
            for (a, &b) in chunk.iter_mut().zip(&other.data[start..start + n]) {
                *a += alpha * b;
            }
        });
    }

    /// Scalar multiple `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Dense {
        self.map(|v| v * alpha)
    }

    /// In-place scalar multiply (element-parallel).
    pub fn scale_assign(&mut self, alpha: f32) {
        pool::par_elems(&mut self.data, |_, chunk| {
            for v in chunk {
                *v *= alpha;
            }
        });
    }

    /// Applies `f` element-wise, returning a new matrix (element-parallel,
    /// which is why `f` must be `Sync`).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Dense {
        let mut out = Dense::scratch(self.rows, self.cols);
        pool::par_elems(&mut out.data, |start, chunk| {
            let n = chunk.len();
            for (o, &v) in chunk.iter_mut().zip(&self.data[start..start + n]) {
                *o = f(v);
            }
        });
        out
    }

    /// Element-wise combination of two equally-shaped matrices
    /// (element-parallel, which is why `f` must be `Sync`).
    pub fn zip_map(&self, other: &Dense, f: impl Fn(f32, f32) -> f32 + Sync) -> Dense {
        self.assert_same_shape(other, "zip_map");
        let mut out = Dense::scratch(self.rows, self.cols);
        pool::par_elems(&mut out.data, |start, chunk| {
            let n = chunk.len();
            let a = &self.data[start..start + n];
            let b = &other.data[start..start + n];
            for ((o, &x), &y) in chunk.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        });
        out
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast),
    /// row-parallel.
    pub fn add_row_broadcast(&self, bias: &Dense) -> Dense {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        let cols = self.cols;
        pool::par_rows(&mut out.data, cols, self.data.len(), |_, block| {
            for row in block.chunks_mut(cols) {
                for (o, &b) in row.iter_mut().zip(&bias.data) {
                    *o += b;
                }
            }
        });
        out
    }

    /// Sums the rows into a `1 x cols` vector (the backward of a bias
    /// broadcast). Column-parallel: each output column accumulates its own
    /// rows top-to-bottom, matching the serial order exactly.
    pub fn sum_rows(&self) -> Dense {
        let mut out = Dense::zeros(1, self.cols);
        let cols = self.cols;
        let rows = self.rows;
        // The work is the full input scan (rows × cols), not the short
        // output, so the engage decision must be weighted accordingly.
        pool::par_elems_weighted(&mut out.data, self.data.len(), |c0, chunk| {
            for r in 0..rows {
                let src = &self.data[r * cols + c0..r * cols + c0 + chunk.len()];
                for (o, &v) in chunk.iter_mut().zip(src) {
                    *o += v;
                }
            }
        });
        out
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Dense) -> Dense {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Dense::scratch(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copies columns `[start, start+len)` into a new matrix.
    pub fn narrow_cols(&self, start: usize, len: usize) -> Dense {
        assert!(start + len <= self.cols, "narrow_cols out of range");
        let mut out = Dense::scratch(self.rows, len);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + len]);
        }
        out
    }

    /// Embeds this matrix into a `rows x total_cols` zero matrix at column
    /// `start` — the backward of [`Dense::narrow_cols`], fused into one
    /// pass. Bitwise identical to `zeros` + [`Dense::add_into_cols`]: the
    /// strip stores `0.0 + v` (so a `-0.0` gradient lands as `+0.0`,
    /// exactly as the add would produce).
    pub fn pad_cols(&self, total_cols: usize, start: usize) -> Dense {
        assert!(start + self.cols <= total_cols, "pad_cols out of range");
        if workspace::is_engaged() {
            let mut out = Dense::scratch(self.rows, total_cols);
            for r in 0..self.rows {
                let dst = &mut out.data[r * total_cols..(r + 1) * total_cols];
                dst[..start].fill(0.0);
                for (o, &v) in dst[start..start + self.cols].iter_mut().zip(self.row(r)) {
                    *o = 0.0 + v;
                }
                dst[start + self.cols..].fill(0.0);
            }
            out
        } else {
            // Without an arena, `zeros` is a cheap calloc; keep the
            // two-step form.
            let mut out = Dense::zeros(self.rows, total_cols);
            out.add_into_cols(start, self);
            out
        }
    }

    /// Adds `src` into columns `[start, start+src.cols)` (backward of `narrow_cols`).
    pub fn add_into_cols(&mut self, start: usize, src: &Dense) {
        assert_eq!(self.rows, src.rows, "add_into_cols row mismatch");
        assert!(start + src.cols <= self.cols, "add_into_cols out of range");
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols + start..r * self.cols + start + src.cols];
            for (d, &s) in dst.iter_mut().zip(src.row(r)) {
                *d += s;
            }
        }
    }

    /// Copies rows `[start, start+len)` into a new matrix.
    pub fn row_block(&self, start: usize, len: usize) -> Dense {
        assert!(start + len <= self.rows, "row_block out of range");
        let src = &self.data[start * self.cols..(start + len) * self.cols];
        if workspace::is_engaged() {
            let mut out = Dense::scratch(len, self.cols);
            out.data.copy_from_slice(src);
            out
        } else {
            workspace::note_fresh();
            Dense {
                rows: len,
                cols: self.cols,
                data: src.to_vec(),
            }
        }
    }

    /// Vertically stacks matrices that share a column count.
    pub fn vstack(parts: &[&Dense]) -> Dense {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        if workspace::is_engaged() {
            let mut out = Dense::scratch(rows, cols);
            let mut start = 0usize;
            for p in parts {
                assert_eq!(p.cols, cols, "vstack column mismatch");
                out.data[start..start + p.data.len()].copy_from_slice(&p.data);
                start += p.data.len();
            }
            out
        } else {
            workspace::note_fresh();
            let mut data = Vec::with_capacity(rows * cols);
            for p in parts {
                assert_eq!(p.cols, cols, "vstack column mismatch");
                data.extend_from_slice(&p.data);
            }
            Dense { rows, cols, data }
        }
    }

    /// Gathers the given rows into a new matrix (`out[i] = self[idx[i]]`),
    /// row-parallel.
    pub fn gather_rows(&self, idx: &[u32]) -> Dense {
        let cols = self.cols;
        let mut out = Dense::scratch(idx.len(), cols);
        pool::par_rows(
            &mut out.data,
            cols,
            idx.len().saturating_mul(cols),
            |r0, block| {
                for (di, dst) in block.chunks_mut(cols).enumerate() {
                    dst.copy_from_slice(self.row(idx[r0 + di] as usize));
                }
            },
        );
        out
    }

    /// Scatter-add of `src` rows back into `self` (`self[idx[i]] += src[i]`).
    ///
    /// This is the backward of [`Dense::gather_rows`]; duplicate indices
    /// accumulate.
    pub fn scatter_add_rows(&mut self, idx: &[u32], src: &Dense) {
        assert_eq!(idx.len(), src.rows, "scatter_add_rows length mismatch");
        assert_eq!(self.cols, src.cols, "scatter_add_rows width mismatch");
        for (i, &r) in idx.iter().enumerate() {
            let dst = &mut self.data[r as usize * self.cols..(r as usize + 1) * self.cols];
            for (d, &s) in dst.iter_mut().zip(src.row(i)) {
                *d += s;
            }
        }
    }

    /// Overwrites the given rows from `src` (`self[idx[i]] = src[i]`) — the
    /// scatter that writes frontier-recomputed rows back into a cached
    /// activation matrix. Later duplicates win, matching a serial loop.
    ///
    /// # Panics
    /// Panics on a length/width mismatch or an out-of-range row index —
    /// all validated up front, before any row is written.
    pub fn set_rows(&mut self, idx: &[u32], src: &Dense) {
        assert_eq!(idx.len(), src.rows, "set_rows length mismatch");
        assert_eq!(self.cols, src.cols, "set_rows width mismatch");
        assert!(
            idx.iter().all(|&r| (r as usize) < self.rows),
            "set_rows row index out of range"
        );
        for (i, &r) in idx.iter().enumerate() {
            self.data[r as usize * self.cols..(r as usize + 1) * self.cols]
                .copy_from_slice(src.row(i));
        }
    }

    /// Sum of all elements, in the fixed-chunk order of
    /// [`pool::reduce_chunks`] (thread-count invariant; identical to a
    /// plain serial sum for matrices of at most one reduction chunk).
    pub fn sum(&self) -> f32 {
        pool::reduce_chunks(&self.data, |c| c.iter().sum())
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm (fixed-chunk reduction, like [`Dense::sum`]).
    pub fn frob_norm(&self) -> f32 {
        pool::reduce_chunks(&self.data, |c| c.iter().map(|v| v * v).sum()).sqrt()
    }

    /// Largest absolute element difference against `other`.
    pub fn max_abs_diff(&self, other: &Dense) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// True when every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Dense, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Dense {
        Dense::from_vec(rows, cols, data.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58.0, 64.0, 139.0, 154.0]));
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&Dense::eye(2)), a);
        assert_eq!(Dense::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_transa_matches_explicit() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(a.matmul_transa(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_transb_matches_explicit() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(2, 3, &[1.0, 0.0, 2.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.matmul_transb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn zero_rows_propagate_nonfinite_b() {
        // The zero-skip fast path is gated off whenever B has a
        // non-finite entry, so 0·∞ = NaN and -0.0 coefficients propagate
        // exactly as the naive IEEE triple loop would.
        let a = m(2, 2, &[0.0, 1.0, -0.0, 2.0]);
        let b = m(2, 2, &[f32::INFINITY, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0·inf must yield NaN");
        assert!(c.get(1, 0).is_nan(), "-0·inf must yield NaN");
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(1, 1), 2.0);
        // All variants agree bitwise with the explicit-transpose forms.
        let bits = |x: &Dense| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.matmul_transb(&b.transpose())), bits(&c));
        assert_eq!(bits(&a.transpose().matmul_transa(&b)), bits(&c));
        // NaN in B under a zero coefficient propagates too.
        let bn = m(2, 1, &[f32::NAN, 5.0]);
        assert!(a.matmul(&bn).get(0, 0).is_nan());
    }

    #[test]
    fn zero_skip_is_bit_neutral_on_finite_data() {
        // Tall-enough A with exact-zero rows: the skip path engages (B is
        // finite) and must produce the same bits as the explicit
        // transpose forms, which exercise different skip decisions.
        let a = Dense::from_fn(40, 24, |r, c| {
            if r % 3 == 0 {
                if c % 2 == 0 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                (r as f32 - 20.0) * 0.25 + c as f32 * 0.125
            }
        });
        let b = Dense::from_fn(24, 40, |r, c| ((r * 7 + c * 3) % 13) as f32 - 6.0);
        let via_transb = a.matmul_transb(&b.transpose());
        let plain = a.matmul(&b);
        assert_eq!(plain.shape(), via_transb.shape());
        let identical = plain
            .data()
            .iter()
            .zip(via_transb.data())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(identical, "skip path diverged from explicit transpose");
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b), m(1, 3, &[5.0, 7.0, 9.0]));
        assert_eq!(b.sub(&a), m(1, 3, &[3.0, 3.0, 3.0]));
        assert_eq!(a.hadamard(&b), m(1, 3, &[4.0, 10.0, 18.0]));
        assert_eq!(a.scale(2.0), m(1, 3, &[2.0, 4.0, 6.0]));
    }

    #[test]
    fn bias_broadcast_and_backward() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let bias = m(1, 2, &[10.0, 20.0]);
        let out = a.add_row_broadcast(&bias);
        assert_eq!(out, m(2, 2, &[11.0, 22.0, 13.0, 24.0]));
        assert_eq!(a.sum_rows(), m(1, 2, &[4.0, 6.0]));
    }

    #[test]
    fn concat_and_narrow_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.narrow_cols(0, 2), a);
        assert_eq!(cat.narrow_cols(2, 1), b);
    }

    #[test]
    fn add_into_cols_accumulates() {
        let mut a = Dense::zeros(2, 3);
        a.add_into_cols(1, &m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        a.add_into_cols(1, &m(2, 2, &[1.0, 1.0, 1.0, 1.0]));
        assert_eq!(a, m(2, 3, &[0.0, 2.0, 3.0, 0.0, 4.0, 5.0]));
    }

    #[test]
    fn vstack_row_block_roundtrip() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let s = Dense::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row_block(0, 1), a);
        assert_eq!(s.row_block(1, 2), b);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g, m(3, 2, &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]));
        let mut acc = Dense::zeros(3, 2);
        acc.scatter_add_rows(&[2, 0, 2], &g);
        // Row 2 was gathered twice, so it accumulates twice.
        assert_eq!(acc, m(3, 2, &[1.0, 2.0, 0.0, 0.0, 10.0, 12.0]));
    }

    #[test]
    fn set_rows_overwrites_targets() {
        let mut a = Dense::zeros(4, 2);
        a.set_rows(&[2, 0], &m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(a, m(4, 2, &[3.0, 4.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0]));
        // Later duplicates win.
        a.set_rows(&[1, 1], &m(2, 2, &[9.0, 9.0, 7.0, 8.0]));
        assert_eq!(a.row(1), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "set_rows row index out of range")]
    fn set_rows_index_panics() {
        let mut a = Dense::zeros(2, 2);
        a.set_rows(&[2], &Dense::zeros(1, 2));
    }

    #[test]
    fn reductions() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.frob_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_transa shape mismatch")]
    fn matmul_transa_shape_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(3, 2);
        let _ = a.matmul_transa(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_transb shape mismatch")]
    fn matmul_transb_shape_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(3, 2);
        let _ = a.matmul_transb(&b);
    }

    #[test]
    fn empty_shapes_produce_empty_products() {
        // Degenerate shapes must not trip the parallel dispatch.
        let a = Dense::zeros(0, 3);
        let b = Dense::zeros(3, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
        let c = Dense::zeros(5, 0);
        let d = Dense::zeros(0, 2);
        assert_eq!(c.matmul(&d).shape(), (5, 2));
        assert_eq!(c.matmul(&d), Dense::zeros(5, 2));
        assert_eq!(a.matmul_transa(&Dense::zeros(0, 2)).shape(), (3, 2));
        assert_eq!(c.matmul_transb(&Dense::zeros(7, 0)).shape(), (5, 7));
    }
}
