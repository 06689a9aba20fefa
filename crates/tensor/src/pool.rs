//! Intra-rank parallel execution: thread-count resolution, the persistent
//! worker pool, and the row-partitioned dispatch helpers every parallel
//! kernel builds on.
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
//! (higher floor [`PAR_MIN_MEMBOUND_WORK`], chunked for at most the
//! host's logical CPUs). The gates only decide *whether and how wide* to
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
//! The resolved count sets how many blocks a kernel is split into. The
//! threads that run them come from one lazily-built pool per OS thread,
//! [`membound_threads`] wide (the resolved count capped at the host's
//! logical CPUs) for every kernel class, so alternating GEMM and SpMM
//! calls never rebuild it; rank threads get independent pools with no
//! cross-rank job contention.
//!
//! # The pool
//!
//! Workers are spawned once and parked on a condvar between jobs, so a
//! kernel-sized dispatch costs two lock round-trips rather than thread
//! spawns. Every dispatch hands out blocks the caller pre-split with
//! `chunks_mut`: workers *claim* block indices from a shared atomic
//! counter, so load balances dynamically, and a claimed index takes its
//! block out of its own slot, so exclusive access is checked by the
//! borrow checker rather than promised by the kernel.
//! Nested dispatch (from a worker, or from the submitting thread while it
//! participates) runs inline on the calling thread.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

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
    /// True while this thread runs inside a pool job — as a worker, or as
    /// the submitting thread participating in its own job.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
thread_local! {
    /// Pools built on this thread (observes rebuilds in the unit tests).
    static POOL_BUILDS: Cell<usize> = const { Cell::new(0) };
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

/// The resolved count capped at the host's logical CPUs: the width of
/// this thread's pool, and the chunking of memory-bound kernels.
/// Oversubscribing a bandwidth-bound kernel only adds scheduling overhead
/// (`spmm` once ran at 0.96x "speedup" on 4 threads of a 1-core host), and
/// since the determinism contract makes results thread-count independent,
/// capping the dispatch is free.
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

fn in_parallel() -> bool {
    IN_POOL.with(Cell::get)
}

/// Marks the thread as inside a pool job until dropped, restoring the
/// previous flag even during unwinding — a panicking job must not leave
/// the thread marked, which would silently serialize every later dispatch.
struct InPoolGuard {
    prev: bool,
}

fn enter_parallel() -> InPoolGuard {
    InPoolGuard {
        prev: IN_POOL.with(|c| c.replace(true)),
    }
}

impl Drop for InPoolGuard {
    fn drop(&mut self) {
        IN_POOL.with(|c| c.set(self.prev));
    }
}

/// The job in flight: its closure with the borrow lifetime erased (see
/// [`ThreadPool::parallel_for`]) and its block count.
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
}

struct State {
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current job.
    running: usize,
    /// First panic payload raised by a worker during the current job; the
    /// submitter re-raises it once every thread has stopped touching the
    /// job's borrows.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

/// Jobs run outside every pool lock, so a lock can only be poisoned by a
/// bug in the pool itself.
const NO_PANIC_UNDER_LOCK: &str = "pool lock poisoned: no job runs under it";

struct Shared {
    state: Mutex<State>,
    /// The current job's next unclaimed index, reset under `state` before
    /// the job is published, so the lock orders the reset before any
    /// worker's claims. `Relaxed` claims suffice: the counter publishes no
    /// data, and each index goes to exactly one `fetch_add`.
    next: AtomicUsize,
    /// Signals workers that a new job (or shutdown) is available.
    work: Condvar,
    /// Signals the submitter that all workers finished the current job.
    done: Condvar,
}

/// A fixed-size pool of persistent worker threads. The submitting thread
/// participates in each job, so a pool of `num_threads` executes on
/// `num_threads` threads while spawning `num_threads - 1` workers; one
/// job runs at a time.
struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool executing on `num_threads` threads (including the
    /// submitter); `num_threads <= 1` spawns no workers and runs inline.
    fn new(num_threads: usize) -> Self {
        #[cfg(test)]
        POOL_BUILDS.with(|b| b.set(b.get() + 1));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            next: AtomicUsize::new(0),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..num_threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dgnn-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    fn num_threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(i, block)` for every pre-split block, distributing indices
    /// across the pool. Each index takes its block out of its own slot, so
    /// every block is handed to exactly one invocation by value. Returns
    /// once all have completed; a panic in any invocation is re-raised here.
    fn for_each<B: Send>(&self, blocks: Vec<B>, f: impl Fn(usize, B) + Sync) {
        if blocks.len() <= 1 || self.workers.is_empty() || in_parallel() {
            let _guard = enter_parallel();
            for (i, block) in blocks.into_iter().enumerate() {
                f(i, block);
            }
            return;
        }
        let slots: Vec<Mutex<Option<B>>> =
            blocks.into_iter().map(|b| Mutex::new(Some(b))).collect();
        self.parallel_for(slots.len(), &|i| {
            let block = slots[i].lock().expect(NO_PANIC_UNDER_LOCK).take();
            f(i, block.expect("each block index is claimed once"));
        });
    }

    /// Runs `f(i)` for every `i in 0..chunks` on the submitter and the
    /// workers by atomic claiming, returning after every invocation has
    /// completed.
    fn parallel_for(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the one lifetime erasure in the crate. Workers are
        // persistent, so the job they read must be `'static`; the borrow
        // is in fact live for as long as any worker uses it, because this
        // frame does not return (nor unwind — the submitter's own panic is
        // caught below) until `running` drops to zero, and every worker
        // decrements `running` only after its last call of `f`.
        let f = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut st = self.shared.state.lock().expect(NO_PANIC_UNDER_LOCK);
            debug_assert!(st.job.is_none(), "pool already has a job in flight");
            self.shared.next.store(0, Ordering::Relaxed);
            st.job = Some(Job { f, chunks });
            st.epoch += 1;
            st.running = self.workers.len();
            self.shared.work.notify_all();
        }
        let mine = {
            let _guard = enter_parallel();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                claim_loop(&self.shared.next, f, chunks)
            }))
        };
        let worker_panic = {
            let mut st = self.shared.state.lock().expect(NO_PANIC_UNDER_LOCK);
            while st.running > 0 {
                st = self.shared.done.wait(st).expect(NO_PANIC_UNDER_LOCK);
            }
            st.job = None;
            st.panic.take()
        };
        if let Err(p) = mine {
            std::panic::resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            std::panic::resume_unwind(p);
        }
    }
}

fn claim_loop(next: &AtomicUsize, f: &(dyn Fn(usize) + Sync), chunks: usize) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= chunks {
            break;
        }
        f(i);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL.with(|c| c.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect(NO_PANIC_UNDER_LOCK);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = st.job {
                        seen_epoch = st.epoch;
                        break job;
                    }
                }
                st = shared.work.wait(st).expect(NO_PANIC_UNDER_LOCK);
            }
        };
        // A panic is parked for the submitter to re-raise: the worker must
        // still decrement `running` or the submitter waits forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim_loop(&shared.next, job.f, job.chunks)
        }));
        let mut st = shared.state.lock().expect(NO_PANIC_UNDER_LOCK);
        if let Err(p) = result {
            st.panic.get_or_insert(p);
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// Runs `f(i, block)` for every block on this thread's pool, building it
/// (or rebuilding it, if the resolved width changed since the last
/// dispatch) at [`membound_threads`] threads.
fn run_blocks<B: Send>(blocks: Vec<B>, f: impl Fn(usize, B) + Sync) {
    let threads = membound_threads();
    POOL.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.as_ref().is_none_or(|p| p.num_threads() != threads) {
            *slot = Some(ThreadPool::new(threads));
        }
        slot.as_ref()
            .expect("pool just installed")
            .for_each(blocks, f)
    })
}

/// True when a row-partitioned kernel over `rows` output rows and
/// `total_work` flop-units will actually engage the pool under the current
/// configuration. Kernels whose parallel variant needs extra setup (e.g.
/// `spmm_transa` building the transpose) consult this first so the serial
/// path pays nothing.
pub fn rows_parallel(rows: usize, total_work: usize) -> bool {
    rows > 1 && total_work >= PAR_MIN_ROW_WORK && effective_threads() > 1 && !in_parallel()
}

/// [`rows_parallel`] for memory-bound kernels: the higher
/// [`PAR_MIN_MEMBOUND_WORK`] floor and the host-capped
/// [`membound_threads`] count, so bandwidth-bound loops never engage an
/// oversubscribed pool that can only lose to serial.
pub fn rows_parallel_membound(rows: usize, total_work: usize) -> bool {
    rows > 1 && total_work >= PAR_MIN_MEMBOUND_WORK && membound_threads() > 1 && !in_parallel()
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
    dispatch_rows(
        data,
        row_len,
        engage,
        claim_chunk(rows, effective_threads()),
        f,
    );
}

/// [`par_rows`] for memory-bound kernels (SpMM, transposes): engages
/// under [`rows_parallel_membound`] and splits into blocks for at most
/// the host's logical CPUs. The callback contract — and therefore the
/// bit-identity guarantee — is exactly [`par_rows`]'s.
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
    dispatch_rows(
        data,
        row_len,
        engage,
        claim_chunk(rows, membound_threads()),
        f,
    );
}

/// [`par_rows`] with at most one block per thread, each block a whole
/// number of `group`-row groups (bar the last): for kernels that stream a
/// shared operand once per block — the skinny `aᵀ·g` of
/// [`crate::Dense::matmul_transa`] — where every extra block is one more
/// pass over it. Same engage gate and callback contract as [`par_rows`].
pub fn par_row_groups<T: Send>(
    data: &mut [T],
    row_len: usize,
    group: usize,
    total_work: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if data.is_empty() || row_len == 0 {
        return;
    }
    let (rows, group) = (data.len() / row_len, group.max(1));
    let groups = rows.div_ceil(group);
    let engage = rows_parallel(rows, total_work);
    let per_block = groups.div_ceil(groups.min(effective_threads())) * group;
    dispatch_rows(data, row_len, engage, per_block, f);
}

/// Rows per block for atomic claiming: a few blocks per thread, so
/// claiming can balance skewed rows (e.g. power-law SpMM); boundaries
/// never affect results.
fn claim_chunk(rows: usize, threads: usize) -> usize {
    rows.div_ceil(rows.min(threads * 4))
}

fn dispatch_rows<T: Send>(
    data: &mut [T],
    row_len: usize,
    engage: bool,
    rows_per_chunk: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    debug_assert_eq!(data.len() % row_len, 0, "data is not whole rows");
    let rows = data.len() / row_len;
    if !engage || rows_per_chunk >= rows {
        f(0, data);
        return;
    }
    let blocks: Vec<&mut [T]> = data.chunks_mut(rows_per_chunk * row_len).collect();
    run_blocks(blocks, |ci, block| f(ci * rows_per_chunk, block));
}

/// [`par_rows`] over `K` output buffers that share a row count:
/// `f(start_row, blocks)` receives the *matching* row blocks of every
/// buffer (`bufs[i]` is rows of `row_lens[i]` elements) and must write only
/// those. For kernels with several outputs per row — the fused LSTM cell
/// writes gate activations, `tanh(c)`, `c` and `h` in one pass: each
/// buffer is split with `chunks_mut` and the per-chunk tuples are the
/// blocks the pool hands out. Same engage gate and determinism contract as
/// [`par_rows`].
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
    if !rows_parallel(rows, total_work) {
        f(0, bufs);
        return;
    }
    let rows_per_chunk = rows.div_ceil(rows.min(effective_threads() * 4));
    let mut iters: Vec<_> = bufs
        .into_iter()
        .zip(row_lens)
        .map(|(buf, len)| buf.chunks_mut(rows_per_chunk * len))
        .collect();
    let blocks: Vec<[&mut [T]; K]> = (0..rows.div_ceil(rows_per_chunk))
        .map(|_| {
            std::array::from_fn(|i| {
                iters[i]
                    .next()
                    .expect("equal row counts give equal chunk counts")
            })
        })
        .collect();
    run_blocks(blocks, |ci, block| f(ci * rows_per_chunk, block));
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
    if threads <= 1 || len <= 1 || total_work < PAR_MIN_ELEMS || in_parallel() {
        f(0, data);
        return;
    }
    let per_chunk = len.div_ceil(len.min(threads * 4));
    let blocks: Vec<&mut [T]> = data.chunks_mut(per_chunk).collect();
    run_blocks(blocks, |ci, chunk| f(ci * per_chunk, chunk));
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
    let mut partials = vec![0.0f32; data.len().div_ceil(REDUCE_CHUNK)];
    let blocks: Vec<(&mut f32, &[f32])> =
        partials.iter_mut().zip(data.chunks(REDUCE_CHUNK)).collect();
    // Same engage gate as the element-wise kernels: below it the pool
    // dispatch would dominate the couple of partial sums. The chunk
    // boundaries are fixed either way, so the result does not change.
    let engage = blocks.len() > 1
        && effective_threads() > 1
        && data.len() >= PAR_MIN_ELEMS
        && !in_parallel();
    let run = |_, (out, chunk): (&mut f32, &[f32])| *out = partial(chunk);
    if engage {
        run_blocks(blocks, run);
    } else {
        blocks.into_iter().enumerate().for_each(|(i, b)| run(i, b));
    }
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn par_row_groups_hands_each_thread_whole_groups() {
        // 37 rows in groups of 4: ten groups, the last one short.
        for threads in [1usize, 2, 5, 16] {
            let _g = scoped_threads(Some(threads));
            let mut data = vec![0u32; 37 * 3];
            let blocks = AtomicU64::new(0);
            par_row_groups(&mut data, 3, 4, usize::MAX, |r0, block| {
                blocks.fetch_add(1, Ordering::Relaxed);
                assert_eq!(r0 % 4, 0, "a block starts mid-group");
                let rows = block.len() / 3;
                assert!(rows % 4 == 0 || r0 + rows == 37, "a block ends mid-group");
                for (dr, row) in block.chunks_mut(3).enumerate() {
                    row.fill((r0 + dr) as u32);
                }
            });
            for r in 0..37 {
                assert_eq!(data[r * 3..(r + 1) * 3], [r as u32; 3]);
            }
            let blocks = blocks.load(Ordering::Relaxed) as usize;
            assert!(
                blocks <= threads.min(10),
                "{blocks} blocks at {threads} threads"
            );
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
    fn pool_is_built_once_across_kernel_classes() {
        // An oversubscribed override: GEMM-class dispatch chunks for the
        // resolved count, SpMM-class for the host; both share one pool at
        // the host-capped width, so alternating them must not rebuild it.
        let _g = scoped_threads(Some(host_parallelism() + 6));
        let mut data = vec![0u32; 64 * 4];
        let fill = |r0: usize, block: &mut [u32]| {
            for (dr, row) in block.chunks_mut(4).enumerate() {
                row.fill((r0 + dr) as u32);
            }
        };
        par_rows(&mut data, 4, usize::MAX, fill);
        let builds = POOL_BUILDS.with(Cell::get);
        for _ in 0..10 {
            par_rows_membound(&mut data, 4, usize::MAX, fill);
            par_rows(&mut data, 4, usize::MAX, fill);
        }
        assert_eq!(POOL_BUILDS.with(Cell::get), builds, "pool rebuilt");
        assert!(data
            .chunks(4)
            .enumerate()
            .all(|(r, row)| row == [r as u32; 4]));
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

    // ---- The pool itself ------------------------------------------------

    #[test]
    fn parallel_for_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_writes_disjoint_chunks() {
        for threads in [1, 2, 5] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0u32; 103];
            pool.for_each(data.chunks_mut(10).collect(), |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (ci * 10 + j) as u32;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
        }
    }

    #[test]
    fn pool_survives_many_jobs() {
        let pool = ThreadPool::new(3);
        let counter = AtomicU64::new(0);
        for _ in 0..200 {
            pool.parallel_for(7, &|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1400);
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        pool.parallel_for(4, &|_| {
            // Re-entrant dispatch must not deadlock on the single job slot.
            pool.for_each(vec![(); 5], |_, ()| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let mut data = [0u8; 16];
        pool.for_each(data.chunks_mut(4).collect(), |ci, chunk| {
            for v in chunk {
                *v = ci as u8;
            }
        });
        assert_eq!(&data[..5], &[0, 0, 0, 0, 1]);
    }

    #[test]
    fn panic_in_job_propagates_and_pool_stays_usable() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Enough chunks that workers certainly participate; every chunk
            // panics, so whichever thread runs one raises.
            pool.parallel_for(64, &|_| panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(
            !in_parallel(),
            "a panicking job must not leave the flag set"
        );
        let counter = AtomicU64::new(0);
        pool.parallel_for(64, &|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
