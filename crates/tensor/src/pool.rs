//! Intra-rank parallel execution: thread-count resolution and the
//! row-partitioned dispatch helpers every parallel kernel builds on.
//!
//! # Determinism contract
//!
//! Every parallel kernel in this workspace partitions its *output* into
//! disjoint contiguous row (or element) blocks; each block is produced by
//! exactly one pool thread running the same inner loop the serial kernel
//! runs. No output element is ever accumulated by two threads, so results
//! are bit-identical to the serial kernels at every thread count —
//! `tests/parallel_equivalence.rs` pins this with `f32::to_bits`
//! comparisons. Scalar reductions ([`reduce_chunks`]) use fixed-size
//! chunk boundaries (independent of thread count) combined left-to-right,
//! which keeps them bit-stable across thread counts as well.
//!
//! Kernels come in two work classes with separate engage gates:
//! compute-bound GEMMs dispatch through [`par_rows`] (floor
//! [`PAR_MIN_ROW_WORK`]), while memory-bound kernels — SpMM and friends,
//! which saturate bandwidth with few threads — use [`par_rows_membound`]
//! (higher floor [`PAR_MIN_MEMBOUND_WORK`], thread count capped at the
//! host's logical CPUs so an oversubscribed override cannot regress them
//! below serial). The gates only decide *whether and how wide* to
//! dispatch, never what is computed, so they sit outside the determinism
//! contract.
//!
//! # Thread-count resolution
//!
//! In priority order:
//! 1. a thread-local override installed by [`scoped_threads`] (what
//!    `TrainOptions::threads` wires through the trainers);
//! 2. the `DGNN_THREADS` environment variable (read once per process);
//! 3. `available_parallelism()` divided by the number of live rank
//!    threads ([`RankScope`]), so `dgnn-sim`'s rank model composes with
//!    intra-rank parallelism instead of oversubscribing the host.
//!
//! Each OS thread owns its own lazily-built [`rayon::ThreadPool`], resized
//! when the resolved count changes; rank threads therefore get independent
//! pools with no cross-rank job contention.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rayon::ThreadPool;

/// Environment variable overriding the intra-rank thread count.
pub const ENV_THREADS: &str = "DGNN_THREADS";

/// Minimum total work (inner-length × output-width units, roughly flops)
/// below which the compute-bound matmul kernels stay serial: pool dispatch
/// costs a few microseconds and must not dominate small matrices.
/// Constant, so it never affects the determinism contract.
pub const PAR_MIN_ROW_WORK: usize = 1 << 15;

/// Minimum total work for the *memory-bound* kernels (SpMM, its backward,
/// transposes): they saturate memory bandwidth with few threads while
/// paying the same dispatch overhead, so they need a larger problem than
/// the compute-bound GEMMs before the pool wins. Constant, so it never
/// affects the determinism contract.
pub const PAR_MIN_MEMBOUND_WORK: usize = 1 << 17;

/// Minimum element count below which element-wise kernels stay serial.
pub const PAR_MIN_ELEMS: usize = 1 << 13;

/// Fixed reduction chunk length. Scalar reductions compute one partial
/// per `REDUCE_CHUNK` elements and combine partials left-to-right, making
/// the result independent of the thread count (and exactly the plain
/// serial sum for inputs of at most one chunk).
pub const REDUCE_CHUNK: usize = 4096;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static POOL: RefCell<Option<ThreadPool>> = const { RefCell::new(None) };
}

/// Rank threads currently alive inside a `run_ranks` scope (process-wide).
static LIVE_RANKS: AtomicUsize = AtomicUsize::new(0);

fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var(ENV_THREADS)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// The thread count kernels on this thread will use, after resolving the
/// override / environment / available-parallelism-per-rank chain.
pub fn effective_threads() -> usize {
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Some(n) = env_threads() {
        return n;
    }
    let ranks = LIVE_RANKS.load(Ordering::Relaxed).max(1);
    (host_parallelism() / ranks).max(1)
}

/// The host's logical CPU count, resolved once per process.
/// `available_parallelism` is a syscall; it sits on the dispatch path of
/// every kernel (≈10µs per call on sandboxed hosts — it used to dominate
/// small-matrix training).
pub fn host_parallelism() -> usize {
    static AVAIL: OnceLock<usize> = OnceLock::new();
    *AVAIL.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Thread count for memory-bound kernels: the resolved count capped at
/// the host's logical CPUs. Oversubscribing a bandwidth-bound kernel only
/// adds scheduling overhead (`spmm` once ran at 0.96x "speedup" on 4
/// threads of a 1-core host), and since the determinism contract makes
/// results thread-count independent, capping the dispatch is free.
pub fn membound_threads() -> usize {
    effective_threads().min(host_parallelism())
}

/// The override currently installed on this thread, if any — used by
/// `run_ranks` to propagate the caller's setting into rank threads.
pub fn thread_override() -> Option<usize> {
    OVERRIDE.with(Cell::get)
}

/// RAII guard restoring the previous per-thread override on drop.
pub struct ThreadsGuard {
    prev: Option<usize>,
    installed: bool,
}

/// Installs a per-thread thread-count override for the guard's lifetime.
/// `None` leaves the ambient configuration untouched (the guard is inert),
/// so trainers can pass `TrainOptions::threads` through unconditionally.
pub fn scoped_threads(threads: Option<usize>) -> ThreadsGuard {
    match threads {
        Some(n) => ThreadsGuard {
            prev: OVERRIDE.with(|o| o.replace(Some(n.max(1)))),
            installed: true,
        },
        None => ThreadsGuard {
            prev: None,
            installed: false,
        },
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        if self.installed {
            OVERRIDE.with(|o| o.set(self.prev));
        }
    }
}

/// RAII registration of `p` live rank threads: while alive, the default
/// thread count divides the host's parallelism by the total live ranks.
pub struct RankScope {
    p: usize,
}

impl RankScope {
    /// Registers `p` rank threads as live.
    pub fn enter(p: usize) -> Self {
        LIVE_RANKS.fetch_add(p, Ordering::Relaxed);
        Self { p }
    }
}

impl Drop for RankScope {
    fn drop(&mut self) {
        LIVE_RANKS.fetch_sub(self.p, Ordering::Relaxed);
    }
}

/// Runs `f` against this thread's pool, rebuilding it if the resolved
/// thread count changed since the last kernel call.
fn with_pool<R>(threads: usize, f: impl FnOnce(&ThreadPool) -> R) -> R {
    POOL.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.as_ref().is_none_or(|p| p.num_threads() != threads) {
            *slot = Some(ThreadPool::new(threads));
        }
        f(slot.as_ref().expect("pool just installed"))
    })
}

/// True when a row-partitioned kernel over `rows` output rows and
/// `total_work` flop-units will actually engage the pool under the current
/// configuration. Kernels whose parallel variant needs extra setup (e.g.
/// `spmm_transa` building the transpose) consult this first so the serial
/// path pays nothing.
pub fn rows_parallel(rows: usize, total_work: usize) -> bool {
    rows > 1 && total_work >= PAR_MIN_ROW_WORK && effective_threads() > 1 && !rayon::in_parallel()
}

/// [`rows_parallel`] for memory-bound kernels: the higher
/// [`PAR_MIN_MEMBOUND_WORK`] floor and the host-capped
/// [`membound_threads`] count, so bandwidth-bound loops never engage an
/// oversubscribed pool that can only lose to serial.
pub fn rows_parallel_membound(rows: usize, total_work: usize) -> bool {
    rows > 1
        && total_work >= PAR_MIN_MEMBOUND_WORK
        && membound_threads() > 1
        && !rayon::in_parallel()
}

/// Row-partitioned parallel execution over `data`, interpreted as rows of
/// `row_len` elements. `f(start_row, block)` receives disjoint contiguous
/// row blocks and must write only its block; `total_work` (≈ flops) gates
/// whether the pool is engaged at all. Falls back to one serial
/// `f(0, data)` call for small work, one resolved thread, or when already
/// inside a parallel region — the callback body is the single source of
/// truth for the kernel's arithmetic in every mode.
pub fn par_rows<T: Send>(
    data: &mut [T],
    row_len: usize,
    total_work: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() || row_len == 0 {
        return;
    }
    let rows = data.len() / row_len;
    let engage = rows_parallel(rows, total_work);
    dispatch_rows(data, row_len, engage, effective_threads(), f);
}

/// [`par_rows`] for memory-bound kernels (SpMM, transposes): engages
/// under [`rows_parallel_membound`] and never dispatches more threads
/// than the host has logical CPUs. The callback contract — and therefore
/// the bit-identity guarantee — is exactly [`par_rows`]'s.
pub fn par_rows_membound<T: Send>(
    data: &mut [T],
    row_len: usize,
    total_work: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() || row_len == 0 {
        return;
    }
    let rows = data.len() / row_len;
    let engage = rows_parallel_membound(rows, total_work);
    dispatch_rows(data, row_len, engage, membound_threads(), f);
}

fn dispatch_rows<T: Send>(
    data: &mut [T],
    row_len: usize,
    engage: bool,
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    debug_assert_eq!(data.len() % row_len, 0, "data is not whole rows");
    let rows = data.len() / row_len;
    if !engage || threads <= 1 {
        f(0, data);
        return;
    }
    // A few chunks per thread so atomic claiming can balance skewed rows
    // (e.g. power-law SpMM); boundaries never affect results.
    let chunks = rows.min(threads * 4);
    let rows_per_chunk = rows.div_ceil(chunks);
    with_pool(threads, |pool| {
        pool.par_chunks_mut(data, rows_per_chunk * row_len, |ci, block| {
            f(ci * rows_per_chunk, block);
        });
    });
}

/// [`par_rows`] over `K` output buffers that share a row count:
/// `f(start_row, blocks)` receives the *matching* row blocks of every
/// buffer (`bufs[i]` is rows of `row_lens[i]` elements) and must write only
/// those. For kernels with several outputs per row — the fused LSTM cell
/// writes gate activations, `tanh(c)`, `c` and `h` in one pass — without a
/// raw-pointer scatter: the buffers are split with `chunks_mut` and the
/// per-chunk tuples are what the pool partitions. Same engage gate and
/// determinism contract as [`par_rows`].
pub fn par_rows_zip<T: Send, const K: usize>(
    bufs: [&mut [T]; K],
    row_lens: [usize; K],
    total_work: usize,
    f: impl Fn(usize, [&mut [T]; K]) + Sync,
) {
    if K == 0 || row_lens.contains(&0) || bufs[0].is_empty() {
        return;
    }
    let rows = bufs[0].len() / row_lens[0];
    for (buf, &len) in bufs.iter().zip(&row_lens) {
        assert_eq!(buf.len(), rows * len, "buffers disagree on the row count");
    }
    let threads = effective_threads();
    if !rows_parallel(rows, total_work) {
        f(0, bufs);
        return;
    }
    let rows_per_chunk = rows.div_ceil(rows.min(threads * 4));
    let mut iters: Vec<_> = bufs
        .into_iter()
        .zip(row_lens)
        .map(|(buf, len)| buf.chunks_mut(rows_per_chunk * len))
        .collect();
    let mut blocks: Vec<[&mut [T]; K]> = (0..rows.div_ceil(rows_per_chunk))
        .map(|_| {
            std::array::from_fn(|i| {
                iters[i]
                    .next()
                    .expect("equal row counts give equal chunk counts")
            })
        })
        .collect();
    with_pool(threads, |pool| {
        pool.par_chunks_mut(&mut blocks, 1, |ci, entry| {
            f(ci * rows_per_chunk, entry[0].each_mut().map(|b| &mut **b));
        });
    });
}

/// Index-parallel loop: runs `f(i)` for every `i in 0..n`, across the pool
/// when `total_work` clears the row-work threshold (serially, in order,
/// otherwise). The closure is responsible for keeping its writes disjoint
/// across indices.
pub fn par_indices(n: usize, total_work: usize, f: impl Fn(usize) + Sync) {
    if n == 0 {
        return;
    }
    if !rows_parallel(n, total_work) {
        for i in 0..n {
            f(i);
        }
        return;
    }
    with_pool(effective_threads(), |pool| pool.parallel_for(n, &f));
}

/// [`par_indices`] for memory-bound kernels: gates on
/// [`rows_parallel_membound`] and dispatches at most [`membound_threads`]
/// workers, with the same disjoint-writes contract on the closure.
pub fn par_indices_membound(n: usize, total_work: usize, f: impl Fn(usize) + Sync) {
    if n == 0 {
        return;
    }
    if !rows_parallel_membound(n, total_work) {
        for i in 0..n {
            f(i);
        }
        return;
    }
    with_pool(membound_threads(), |pool| pool.parallel_for(n, &f));
}

/// Element-partitioned parallel execution: `f(start_index, chunk)` over
/// disjoint contiguous chunks of `data`. Serial below [`PAR_MIN_ELEMS`].
pub fn par_elems<T: Send>(data: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let len = data.len();
    par_elems_weighted(data, len, f);
}

/// [`par_elems`] with an explicit work estimate, for kernels whose cost is
/// not proportional to the output length — e.g. `sum_rows`, where a short
/// `1 x cols` output still reduces over every row of the input.
pub fn par_elems_weighted<T: Send>(
    data: &mut [T],
    total_work: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    if len == 0 {
        return;
    }
    let threads = effective_threads();
    if threads <= 1 || len <= 1 || total_work < PAR_MIN_ELEMS || rayon::in_parallel() {
        f(0, data);
        return;
    }
    let chunks = len.min(threads * 4);
    let per_chunk = len.div_ceil(chunks);
    with_pool(threads, |pool| {
        pool.par_chunks_mut(data, per_chunk, |ci, chunk| {
            f(ci * per_chunk, chunk);
        });
    });
}

/// Deterministic chunked reduction: computes `partial(chunk)` for every
/// fixed-size [`REDUCE_CHUNK`] window of `data` (possibly in parallel) and
/// combines the partials left-to-right. The fixed boundaries make the
/// result identical at every thread count; inputs of at most one chunk
/// reduce exactly like a plain serial pass.
pub fn reduce_chunks(data: &[f32], partial: impl Fn(&[f32]) -> f32 + Sync) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let n_chunks = data.len().div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f32; n_chunks];
    let threads = effective_threads();
    // Same engage gate as the element-wise kernels: below it the pool
    // dispatch would dominate the couple of partial sums. The chunk
    // boundaries are fixed either way, so the result does not change.
    if n_chunks == 1 || threads <= 1 || data.len() < PAR_MIN_ELEMS || rayon::in_parallel() {
        for (i, chunk) in data.chunks(REDUCE_CHUNK).enumerate() {
            partials[i] = partial(chunk);
        }
    } else {
        with_pool(threads, |pool| {
            pool.par_chunks_mut(&mut partials, 1, |ci, out| {
                let start = ci * REDUCE_CHUNK;
                let end = (start + REDUCE_CHUNK).min(data.len());
                out[0] = partial(&data[start..end]);
            });
        });
    }
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_override_nests_and_restores() {
        assert_eq!(thread_override(), None);
        {
            let _a = scoped_threads(Some(4));
            assert_eq!(effective_threads(), 4);
            {
                let _b = scoped_threads(Some(2));
                assert_eq!(effective_threads(), 2);
                let _inert = scoped_threads(None);
                assert_eq!(effective_threads(), 2);
            }
            assert_eq!(effective_threads(), 4);
        }
        assert_eq!(thread_override(), None);
    }

    #[test]
    fn par_rows_covers_all_rows_at_any_thread_count() {
        for threads in [1, 2, 5] {
            let _g = scoped_threads(Some(threads));
            let mut data = vec![0u32; 37 * 3];
            // Force the parallel path with a large claimed work size.
            par_rows(&mut data, 3, usize::MAX, |r0, block| {
                for (dr, row) in block.chunks_mut(3).enumerate() {
                    for v in row {
                        *v = (r0 + dr) as u32;
                    }
                }
            });
            for r in 0..37 {
                assert!(data[r * 3..(r + 1) * 3].iter().all(|&v| v == r as u32));
            }
        }
    }

    #[test]
    fn par_rows_zip_hands_out_matching_row_blocks() {
        for threads in [1, 2, 5] {
            let _g = scoped_threads(Some(threads));
            let (mut wide, mut narrow) = (vec![0u32; 37 * 3], vec![0u32; 37]);
            par_rows_zip(
                [&mut wide[..], &mut narrow[..]],
                [3, 1],
                usize::MAX,
                |r0, [wide, narrow]| {
                    assert_eq!(wide.len(), narrow.len() * 3);
                    for (dr, (w, n)) in wide.chunks_mut(3).zip(narrow.iter_mut()).enumerate() {
                        w.fill((r0 + dr) as u32);
                        *n = (r0 + dr) as u32;
                    }
                },
            );
            for r in 0..37 {
                assert_eq!(wide[r * 3..(r + 1) * 3], [r as u32; 3]);
                assert_eq!(narrow[r], r as u32);
            }
        }
        // No rows, or a zero-width buffer: nothing to hand out.
        let mut empty: [u32; 0] = [];
        par_rows_zip([&mut empty[..]], [4], usize::MAX, |_, _| {
            panic!("no rows to run")
        });
    }

    #[test]
    fn par_rows_handles_degenerate_shapes() {
        let _g = scoped_threads(Some(4));
        let mut empty: Vec<f32> = Vec::new();
        par_rows(&mut empty, 0, usize::MAX, |_, _| panic!("no rows to run"));
        par_rows(&mut empty, 5, usize::MAX, |_, _| panic!("no rows to run"));
    }

    #[test]
    fn reduce_chunks_is_thread_count_invariant() {
        let data: Vec<f32> = (0..20_000).map(|i| (i as f32).sin()).collect();
        let reference = {
            let _g = scoped_threads(Some(1));
            reduce_chunks(&data, |c| c.iter().sum())
        };
        for threads in [2, 3, 8] {
            let _g = scoped_threads(Some(threads));
            let got = reduce_chunks(&data, |c| c.iter().sum());
            assert_eq!(got.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn reduce_chunks_small_input_matches_plain_sum() {
        let data = [1.5f32, -2.25, 4.0, 0.125];
        let plain: f32 = data.iter().sum();
        let _g = scoped_threads(Some(8));
        assert_eq!(
            reduce_chunks(&data, |c| c.iter().sum()).to_bits(),
            plain.to_bits()
        );
    }

    #[test]
    fn rank_scope_divides_default_threads() {
        // With no override and no env var the default divides by live
        // ranks; with DGNN_THREADS set the env wins. Either way the
        // resolved count stays >= 1 while ranks are registered.
        let before = effective_threads();
        {
            let _ranks = RankScope::enter(64);
            assert!(effective_threads() >= 1);
            assert!(effective_threads() <= before.max(1));
        }
        assert_eq!(effective_threads(), before);
    }
}
