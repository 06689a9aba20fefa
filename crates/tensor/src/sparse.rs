//! Compressed-sparse-row matrices, SpMM, and the normalized graph Laplacian
//! used by every GCN layer (paper Eq. 1).

use std::sync::{Arc, OnceLock};

use crate::dense::Dense;
use crate::{pool, spmm_kernels};

/// A sparse matrix in compressed-sparse-row form with `f32` values.
///
/// Column indices within a row are kept sorted and unique, which the
/// graph-difference machinery in `dgnn-graph` relies on.
#[derive(Clone, Debug)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    /// Lazily-built transpose, populated by the parallel path of
    /// [`Csr::spmm_transa`]: trainers call that backward kernel with the
    /// same immutable Laplacian once per layer per block rerun per epoch,
    /// so the counting sort amortizes to once per matrix. Cleared by
    /// [`Csr::values_mut`] (the only mutation surface); excluded from
    /// equality.
    transpose_cache: OnceLock<Arc<Csr>>,
}

/// Equality over the matrix contents only — the transpose cache is a
/// derived artifact and must not affect comparisons.
impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.values == other.values
    }
}

impl Csr {
    /// Approximate cost of one counting-sort transpose entry, expressed in
    /// units of one gather feature-column (a random write per entry vs a
    /// streamed multiply-add per column). Calibrated from the
    /// `kernel_scaling` bench; used by [`Csr::spmm_transa`] to decide when
    /// the transpose-then-gather parallel path beats the serial scatter.
    pub const TRANSPOSE_COST_F_UNITS: usize = 40;

    /// An empty (all-zero) matrix of the given shape.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            transpose_cache: OnceLock::new(),
        }
    }

    /// Builds a CSR matrix from COO triplets; duplicate positions are summed.
    pub fn from_coo(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "triplet out of bounds"
            );
            if let (Some(&last_c), true) = (indices.last(), indptr[r as usize + 1] > 0) {
                // Same row as the previous entry and same column: merge.
                if last_c == c && indices.len() > indptr[r as usize] {
                    *values.last_mut().unwrap() += v;
                    continue;
                }
            }
            // Close out any rows between the previous entry's row and r.
            indices.push(c);
            values.push(v);
            indptr[r as usize + 1] = indices.len();
        }
        // Make indptr cumulative: rows with no entries inherit the previous end.
        for r in 1..=rows {
            if indptr[r] == 0 {
                indptr[r] = indptr[r - 1];
            }
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// Builds an unweighted adjacency matrix from directed edges.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let triplets: Vec<(u32, u32, f32)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_coo(n, n, &triplets)
    }

    /// Builds directly from CSR parts.
    ///
    /// # Panics
    /// Panics when the parts are structurally inconsistent.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length");
        assert_eq!(indices.len(), values.len(), "indices/values length");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr end");
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]), "indptr monotone");
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// Decomposes into `(rows, cols, indptr, indices, values)`, the inverse
    /// of [`Csr::from_parts`]. The out-of-core store uses this to hand an
    /// evicted matrix's backing buffers to the workspace arena instead of
    /// the allocator.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<u32>, Vec<f32>) {
        (self.rows, self.cols, self.indptr, self.indices, self.values)
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The row-pointer array (length `rows + 1`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The column-index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value array.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable value array (topology is fixed; only weights may change).
    /// Drops the cached transpose — its values would go stale.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f32] {
        self.transpose_cache = OnceLock::new();
        &mut self.values
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Out-degree (stored entries) of every row.
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| self.indptr[r + 1] - self.indptr[r])
            .collect()
    }

    /// In-degree (stored entries) of every column.
    pub fn col_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.cols];
        for &c in &self.indices {
            deg[c as usize] += 1;
        }
        deg
    }

    /// Converts back to COO triplets in row-major order.
    pub fn to_coo(&self) -> Vec<(u32, u32, f32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.push((r as u32, c, v));
            }
        }
        out
    }

    /// Materialises a dense copy (tests only; quadratic memory).
    pub fn to_dense(&self) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c as usize, out.get(r, c as usize) + v);
            }
        }
        out
    }

    /// The transposed matrix (CSR of the transpose, built by counting sort).
    ///
    /// Serial on purpose: at graph sizes a partitioned scatter is slower,
    /// because the parts' slot ranges interleave within every output row
    /// and their writes false-share. Each output row receives its entries
    /// in ascending source-row order.
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut cursor = indptr[..self.cols].to_vec();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let slot = &mut cursor[c as usize];
                indices[*slot] = r as u32;
                values[*slot] = v;
                *slot += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// Sparse-matrix × dense-matrix product (`self * x`), the GCN aggregation
    /// kernel. `x` must have `self.cols` rows. Row-parallel over the output:
    /// each pool thread aggregates a disjoint block of output rows with the
    /// serial inner loop, so results are bit-identical at any thread count.
    ///
    /// The kernel is memory-bound, so it engages the pool under the
    /// stricter [`pool::rows_parallel_membound`] gate — a higher work
    /// floor and a thread count capped at the host's logical CPUs, so an
    /// oversubscribed `DGNN_THREADS` override can never regress it below
    /// serial.
    ///
    /// # Panics
    /// Panics when `x` does not have `self.cols` rows — validated up front,
    /// before any output allocation.
    pub fn spmm(&self, x: &Dense) -> Dense {
        assert_eq!(self.cols, x.rows(), "spmm shape mismatch");
        self.spmm_gather(x)
    }

    /// `selfᵀ * x` (backward of SpMM).
    ///
    /// Serial execution scatters row by row, like the original kernel.
    /// When the pool engages *and* the feature width amortizes the setup,
    /// the kernel instead builds the transpose (O(nnz) counting sort) and
    /// gathers row-parallel over it. The counting sort emits each output
    /// row's entries in ascending source-row order — exactly the serial
    /// scatter's accumulation order — so both paths produce identical bits.
    ///
    /// The transpose's random per-entry writes cost roughly
    /// [`Csr::TRANSPOSE_COST_F_UNITS`] feature-columns' worth of gather
    /// work per entry (measured with the `kernel_scaling` sweep), so the
    /// parallel path only wins when `f·(1 − 1/threads)` exceeds that;
    /// below the break-even the serial scatter is kept even with threads
    /// available.
    /// The built transpose is cached on the matrix, so trainers that call
    /// this backward kernel every block rerun and epoch with the same
    /// immutable Laplacian pay the counting sort once.
    ///
    /// # Panics
    /// Panics when `x` does not have `self.rows` rows — validated up front,
    /// before any output allocation.
    pub fn spmm_transa(&self, x: &Dense) -> Dense {
        assert_eq!(self.rows, x.rows(), "spmm_transa shape mismatch");
        let f = x.cols();
        let work = self.nnz().saturating_mul(f);
        let threads = pool::membound_threads();
        // With the cache warm the transpose is free, so only the first call
        // needs the feature width to amortize the counting sort.
        let amortized = self.transpose_cache.get().is_some()
            || (threads > 1
                && f.saturating_mul(threads - 1) > Self::TRANSPOSE_COST_F_UNITS * threads);
        if amortized && pool::rows_parallel_membound(self.cols, work) {
            return self
                .transpose_cache
                .get_or_init(|| Arc::new(self.transpose()))
                .spmm_gather(x);
        }
        let mut out = Dense::zeros(self.cols, f);
        spmm_kernels::spmm_transa_scatter(
            out.data_mut(),
            f,
            &self.indptr,
            &self.indices,
            &self.values,
            x.data(),
        );
        out
    }

    /// Sparse × dense product restricted to a subset of output rows:
    /// `out[i] = (self * x)[rows[i]]`. The inner loop per output row is the
    /// same serial gather [`Csr::spmm`] runs, so every produced row is
    /// bit-identical to the corresponding row of the full product at any
    /// thread count — the kernel behind every frontier-restricted
    /// recompute (incremental inference and the pre-aggregation carry),
    /// where only the rows reachable from a graph change are recomputed.
    ///
    /// # Panics
    /// Panics when `x` does not have `self.cols` rows, or when any entry of
    /// `rows` is out of range — validated up front.
    pub fn spmm_rows(&self, x: &Dense, rows: &[u32]) -> Dense {
        assert_eq!(self.cols, x.rows(), "spmm_rows shape mismatch");
        assert!(
            rows.iter().all(|&r| (r as usize) < self.rows),
            "spmm_rows row index out of range"
        );
        let f = x.cols();
        // Scratch, not zeros: the gather fully overwrites every selected
        // output row (accumulators start at +0.0), bitwise the same as
        // zero-fill-then-accumulate.
        let mut out = Dense::scratch(rows.len(), f);
        let work: usize = rows
            .iter()
            .map(|&r| self.indptr[r as usize + 1] - self.indptr[r as usize])
            .sum::<usize>()
            .saturating_mul(f);
        pool::par_rows_membound(out.data_mut(), f, work, |i0, block| {
            let sel = &rows[i0..i0 + block.len() / f.max(1)];
            spmm_kernels::spmm_rows_block(
                block,
                f,
                sel,
                &self.indptr,
                &self.indices,
                &self.values,
                x.data(),
            );
        });
        out
    }

    /// The row-parallel gather shared by [`Csr::spmm`]'s inner loop and the
    /// transpose path of [`Csr::spmm_transa`]. `x` is indexed by this
    /// matrix's columns *without* a shape assertion on the row count — the
    /// transpose path has already validated the original orientation.
    fn spmm_gather(&self, x: &Dense) -> Dense {
        let f = x.cols();
        // Scratch output: the gather fully overwrites every row (vector
        // accumulators start at +0.0 — bitwise the fill-then-accumulate
        // sequence), so the arena's up-front zero fill is skipped.
        let mut out = Dense::scratch(self.rows, f);
        let work = self.nnz().saturating_mul(f);
        pool::par_rows_membound(out.data_mut(), f, work, |r0, block| {
            spmm_kernels::spmm_block(
                block,
                f,
                r0,
                &self.indptr,
                &self.indices,
                &self.values,
                x.data(),
            );
        });
        out
    }

    /// Weighted sum `Σ wᵢ · Aᵢ` of same-shaped sparse matrices.
    ///
    /// This is the kernel behind both the edge-life transformation and the
    /// M-transform smoothing of the adjacency tensor (paper §5.4): entries
    /// present in several operands merge into one.
    pub fn add_weighted(terms: &[(f32, &Csr)]) -> Csr {
        assert!(!terms.is_empty(), "add_weighted of nothing");
        let rows = terms[0].1.rows;
        let cols = terms[0].1.cols;
        for (_, a) in terms {
            assert_eq!(
                (a.rows, a.cols),
                (rows, cols),
                "add_weighted shape mismatch"
            );
        }
        let cap: usize = terms.iter().map(|(_, a)| a.nnz()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(cap);
        let mut values = Vec::with_capacity(cap);
        indptr.push(0);
        // Merge the sorted rows of all operands with a scratch accumulator.
        let mut merged: Vec<(u32, f32)> = Vec::new();
        for r in 0..rows {
            merged.clear();
            for &(w, a) in terms {
                if w == 0.0 {
                    continue;
                }
                for (c, v) in a.row_iter(r) {
                    merged.push((c, w * v));
                }
            }
            merged.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < merged.len() {
                let c = merged[i].0;
                let mut acc = 0.0;
                while i < merged.len() && merged[i].0 == c {
                    acc += merged[i].1;
                    i += 1;
                }
                indices.push(c);
                values.push(acc);
            }
            indptr.push(indices.len());
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
            transpose_cache: OnceLock::new(),
        }
    }

    /// Extracts rows `[start, start + len)` into a standalone `len x cols`
    /// matrix — the row-block split used by the hybrid partitioning scheme.
    pub fn row_block(&self, start: usize, len: usize) -> Csr {
        assert!(start + len <= self.rows, "row_block out of range");
        let lo = self.indptr[start];
        let hi = self.indptr[start + len];
        let indptr = self.indptr[start..=start + len]
            .iter()
            .map(|&p| p - lo)
            .collect();
        Csr {
            rows: len,
            cols: self.cols,
            indptr,
            indices: self.indices[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
            transpose_cache: OnceLock::new(),
        }
    }

    /// True if the matrix equals its transpose (used by tests).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// The symmetric-normalized Laplacian `Ã = D^{-1/2} (A + I) D^{-1/2}` of
/// paper Eq. (1) over `A = ½(adj + adjᵀ)`: the paper's datasets store
/// directed interactions, and the models symmetrize before normalizing.
/// Two passes, degrees then values, through the row-level
/// [`laplacian_degree`] and [`push_laplacian_row`] that serving also runs.
pub fn normalized_laplacian(adj: &Csr) -> Csr {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    let (n, t) = (adj.rows(), adj.transpose());
    let mut indptr = Vec::with_capacity(n + 1);
    let mut isd = Vec::with_capacity(n);
    indptr.push(0);
    for u in 0..n {
        let (deg, s) = laplacian_degree(u as u32, adj.row_iter(u), t.row_iter(u));
        indptr.push(indptr[u] + deg);
        isd.push(s);
    }
    let nnz = indptr[n];
    let (mut indices, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for u in 0..n {
        let (out, inn) = (adj.row_iter(u), t.row_iter(u));
        push_laplacian_row(u as u32, out, inn, &isd, &mut indices, &mut values);
    }
    Csr::from_parts(n, n, indptr, indices, values)
}

/// Row `u` of `A + I` in column order, from row `u` of `adj` (`out`) and
/// of `adjᵀ` (`inn`); a stored self-loop gives way to the unit one. A
/// weight is `0.0 + ½·w_uv (+ ½·w_vu)`, the bits `Csr::add_weighted` gives
/// `½adj + ½adjᵀ`: its `0.0` start maps `−0.0` to `+0.0`, and as no weight
/// is then `−0.0`, adding `I` through `add_weighted` would change none.
fn operator_row(
    u: u32,
    out: impl IntoIterator<Item = (u32, f32)>,
    inn: impl IntoIterator<Item = (u32, f32)>,
    mut emit: impl FnMut(u32, f32),
) {
    let (mut out, mut inn) = (out.into_iter(), inn.into_iter());
    let (mut a, mut b) = (out.next(), inn.next());
    let mut diag = true;
    loop {
        let c = match (a, b) {
            (Some((x, _)), Some((y, _))) => x.min(y),
            (Some((c, _)), None) | (None, Some((c, _))) => c,
            (None, None) => break,
        };
        if diag && c > u {
            emit(u, 1.0);
            diag = false;
        }
        let mut w = 0.0;
        if let Some((_, x)) = a.filter(|e| e.0 == c) {
            w += 0.5 * x;
            a = out.next();
        }
        if let Some((_, y)) = b.filter(|e| e.0 == c) {
            w += 0.5 * y;
            b = inn.next();
        }
        if c != u {
            emit(c, w);
        }
    }
    if diag {
        emit(u, 1.0);
    }
}

/// `(D[u,u], 1/√D[u,u])` with `D[u,u] = 1 + |N(u)|`, `N(u)` the out- and
/// in-neighbors of `u` other than `u` (`out`, `inn` as for
/// [`push_laplacian_row`]).
pub fn laplacian_degree(
    u: u32,
    out: impl IntoIterator<Item = (u32, f32)>,
    inn: impl IntoIterator<Item = (u32, f32)>,
) -> (usize, f32) {
    let mut deg = 0usize;
    operator_row(u, out, inn, |_, _| deg += 1);
    (deg, 1.0 / (deg as f32).sqrt())
}

/// Appends row `u` of [`normalized_laplacian`]: each entry `(c, w)` of row
/// `u` of `A + I` becomes `w · (isd[u] · isd[c])`. `out` / `inn` are the
/// column-sorted rows `u` of the directed adjacency and its transpose;
/// `isd` holds every vertex's `1/√D` from [`laplacian_degree`].
pub fn push_laplacian_row(
    u: u32,
    out: impl IntoIterator<Item = (u32, f32)>,
    inn: impl IntoIterator<Item = (u32, f32)>,
    isd: &[f32],
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    let su = isd[u as usize];
    operator_row(u, out, inn, |c, w| {
        indices.push(c);
        values.push(w * (su * isd[c as usize]));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0
        Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2), (2, 0)])
    }

    #[test]
    fn from_coo_sorts_and_merges() {
        let a = Csr::from_coo(2, 2, &[(1, 1, 2.0), (0, 0, 1.0), (1, 1, 3.0)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.to_coo(), vec![(0, 0, 1.0), (1, 1, 5.0)]);
    }

    #[test]
    fn from_coo_handles_empty_rows() {
        let a = Csr::from_coo(4, 4, &[(3, 0, 1.0)]);
        assert_eq!(a.indptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(a.row_degrees(), vec![0, 0, 0, 1]);
    }

    #[test]
    fn spmm_matches_dense() {
        let a = sample();
        let x = Dense::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let y = a.spmm(&x);
        let expected = a.to_dense().matmul(&x);
        assert!(y.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn spmm_transa_matches_dense() {
        let a = sample();
        let x = Dense::from_fn(3, 2, |r, c| (r + c) as f32);
        let y = a.spmm_transa(&x);
        let expected = a.to_dense().transpose().matmul(&x);
        assert!(y.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_weighted_merges_overlap() {
        let a = Csr::from_coo(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let b = Csr::from_coo(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let s = Csr::add_weighted(&[(2.0, &a), (3.0, &b)]);
        assert_eq!(s.to_coo(), vec![(0, 0, 2.0), (0, 1, 5.0), (1, 0, 3.0)]);
    }

    #[test]
    fn row_block_roundtrip() {
        let a = sample();
        let top = a.row_block(0, 1);
        let rest = a.row_block(1, 2);
        assert_eq!(top.nnz() + rest.nnz(), a.nnz());
        assert_eq!(top.rows(), 1);
        assert_eq!(rest.rows(), 2);
        // SpMM over blocks stacks to full SpMM.
        let x = Dense::from_fn(3, 2, |r, c| (r + 2 * c) as f32);
        let stacked = Dense::vstack(&[&top.spmm(&x), &rest.spmm(&x)]);
        assert!(stacked.approx_eq(&a.spmm(&x), 1e-6));
    }

    #[test]
    fn laplacian_is_symmetric_with_unit_diagonal_scaling() {
        let a = sample();
        let lap = normalized_laplacian(&a);
        assert!(lap.is_symmetric(1e-6));
        // Diagonal entries are exactly 1/(1 + deg(u)).
        let degs = Csr::add_weighted(&[(0.5, &a), (0.5, &a.transpose())]).row_degrees();
        for u in 0..lap.rows() {
            let diag = lap
                .row_iter(u)
                .find(|&(c, _)| c as usize == u)
                .map(|(_, v)| v)
                .unwrap();
            let expected = 1.0 / (1.0 + degs[u] as f32);
            assert!(
                (diag - expected).abs() < 1e-6,
                "diag[{u}] = {diag}, want {expected}"
            );
        }
    }

    /// Eq. (1) as whole-matrix kernels: strip the self-loops through COO,
    /// `½A + ½Aᵀ`, add the identity, then scale every entry. The reference
    /// the row builder must match bit for bit.
    fn normalized_laplacian_unfused(adj: &Csr) -> Csr {
        let n = adj.rows();
        let no_loops = {
            let triplets: Vec<(u32, u32, f32)> = adj
                .to_coo()
                .into_iter()
                .filter(|&(r, c, _)| r != c)
                .collect();
            Csr::from_coo(n, n, &triplets)
        };
        let base = Csr::add_weighted(&[(0.5, &no_loops), (0.5, &no_loops.transpose())]);
        let eye: Vec<(u32, u32, f32)> = (0..n as u32).map(|u| (u, u, 1.0)).collect();
        let mut out = Csr::add_weighted(&[(1.0, &base), (1.0, &Csr::from_coo(n, n, &eye))]);
        let mut inv_sqrt_deg = vec![0f32; n];
        for u in 0..n {
            let deg: f32 = out.row_iter(u).map(|_| 1.0).sum();
            inv_sqrt_deg[u] = 1.0 / deg.max(1.0).sqrt();
        }
        for r in 0..n {
            for k in out.indptr[r]..out.indptr[r + 1] {
                let c = out.indices[k] as usize;
                out.values[k] *= inv_sqrt_deg[r] * inv_sqrt_deg[c];
            }
        }
        out
    }

    /// A directed weighted graph with self-loops, one- and two-way edges of
    /// unequal weights, `±0.0` weights, and (every third seed) an isolated
    /// last vertex; sparse seeds leave rows empty.
    fn witness_graph(n: usize, seed: u64) -> Csr {
        const WEIGHTS: [f32; 8] = [1.0, 0.5, -2.0, 0.0, -0.0, 3.25, 1e-3, -0.75];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let density = [2, 10, 40][seed as usize % 3];
        let live = if seed.is_multiple_of(3) {
            n.saturating_sub(1)
        } else {
            n
        };
        let mut triplets = Vec::new();
        for u in 0..live as u32 {
            for v in 0..live as u32 {
                if next() % 100 < density {
                    triplets.push((u, v, WEIGHTS[next() as usize % WEIGHTS.len()]));
                }
            }
        }
        if live >= 2 {
            // Both directions negative zero: `½·(−0) + ½·(−0)` must land on
            // `+0.0` as the reference's `0.0` accumulator start makes it.
            triplets.retain(|&(r, c, _)| (r.min(c), r.max(c)) != (0, 1));
            triplets.extend([(0, 1, -0.0), (1, 0, -0.0)]);
        }
        Csr::from_coo(n, n, &triplets)
    }

    #[test]
    fn laplacian_rows_match_unfused_reference_bitwise() {
        for n in [0usize, 1, 2, 7, 64] {
            for seed in 0..9 {
                let adj = witness_graph(n, seed);
                let (got, want) = (
                    normalized_laplacian(&adj),
                    normalized_laplacian_unfused(&adj),
                );
                assert_eq!(got.indptr, want.indptr, "indptr, n = {n} seed {seed}");
                assert_eq!(got.indices, want.indices, "indices, n = {n} seed {seed}");
                let bits = |m: &Csr| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "values, n = {n} seed {seed}");
            }
        }
    }

    #[test]
    fn laplacian_identity_graph() {
        // Graph with no edges: Ã = D^{-1/2} I D^{-1/2} = I (deg = 1).
        let a = Csr::empty(3, 3);
        let lap = normalized_laplacian(&a);
        assert_eq!(lap.to_coo(), vec![(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn spmm_shape_panics() {
        let a = Csr::empty(3, 4);
        let _ = a.spmm(&Dense::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "spmm_transa shape mismatch")]
    fn spmm_transa_shape_panics() {
        let a = Csr::empty(3, 4);
        let _ = a.spmm_transa(&Dense::zeros(4, 2));
    }

    #[test]
    fn spmm_transa_cache_survives_reuse_and_clears_on_value_mutation() {
        // Engage the cached transpose path (wide features, forced threads)
        // and check repeated calls agree; then mutate values and check the
        // stale cache is not consulted.
        let _g = crate::pool::scoped_threads(Some(4));
        let edges: Vec<(u32, u32)> = (0..4000u32).map(|i| (i % 97, (i * 7) % 89)).collect();
        let mut a = Csr::from_edges(100, &edges);
        let x = Dense::from_fn(100, 96, |r, c| ((r * 5 + c) % 11) as f32 - 5.0);
        let first = a.spmm_transa(&x);
        let again = a.spmm_transa(&x);
        assert_eq!(first, again);
        let serial_ref = {
            let _s = crate::pool::scoped_threads(Some(1));
            a.spmm_transa(&x)
        };
        assert_eq!(first, serial_ref);
        for v in a.values_mut() {
            *v *= 2.0;
        }
        let doubled = a.spmm_transa(&x);
        assert!(doubled.approx_eq(&first.scale(2.0), 1e-3));
    }

    #[test]
    fn spmm_rows_matches_full_product_bitwise() {
        let edges: Vec<(u32, u32)> = (0..600u32).map(|i| (i % 37, (i * 11) % 41)).collect();
        let a = Csr::from_edges(50, &edges);
        let x = Dense::from_fn(50, 7, |r, c| ((r * 13 + c * 3) % 17) as f32 - 8.0);
        let full = a.spmm(&x);
        for threads in [1usize, 4] {
            let _g = crate::pool::scoped_threads(Some(threads));
            let rows: Vec<u32> = vec![0, 3, 3, 17, 49];
            let sub = a.spmm_rows(&x, &rows);
            assert_eq!(sub.shape(), (5, 7));
            for (i, &r) in rows.iter().enumerate() {
                for c in 0..7 {
                    assert_eq!(
                        sub.get(i, c).to_bits(),
                        full.get(r as usize, c).to_bits(),
                        "row {r} col {c} at {threads} threads"
                    );
                }
            }
            assert_eq!(a.spmm_rows(&x, &[]).shape(), (0, 7));
        }
    }

    #[test]
    #[should_panic(expected = "spmm_rows row index out of range")]
    fn spmm_rows_index_panics() {
        let a = Csr::empty(3, 3);
        let _ = a.spmm_rows(&Dense::zeros(3, 2), &[3]);
    }

    #[test]
    #[should_panic(expected = "spmm_rows shape mismatch")]
    fn spmm_rows_shape_panics() {
        let a = Csr::empty(3, 4);
        let _ = a.spmm_rows(&Dense::zeros(3, 2), &[0]);
    }

    #[test]
    fn spmm_handles_empty_operands() {
        let a = Csr::empty(4, 3);
        let x = Dense::zeros(3, 0);
        assert_eq!(a.spmm(&x).shape(), (4, 0));
        assert_eq!(a.spmm_transa(&Dense::zeros(4, 2)).shape(), (3, 2));
        let none = Csr::empty(0, 0);
        assert_eq!(none.spmm(&Dense::zeros(0, 5)).shape(), (0, 5));
    }

    #[test]
    fn degrees() {
        let a = sample();
        assert_eq!(a.row_degrees(), vec![2, 1, 1]);
        assert_eq!(a.col_degrees(), vec![1, 1, 2]);
    }
}
