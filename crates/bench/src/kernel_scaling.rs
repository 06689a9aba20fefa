//! Kernel-scaling sweep: the five hot kernels (`matmul`, `matmul_transa`,
//! `matmul_transb`, `spmm`, `spmm_transa`) timed serially and on 2/4/8
//! pool threads, with a bitwise cross-check of every timed result against
//! the serial reference and a roofline-style single-thread GFLOP/s column
//! per kernel. Print-only: timings are reported, never asserted — the
//! determinism contract is what is checked. The blocked GEMMs are also
//! pinned bitwise to the naive serial triple loop at the engaged size.

use std::hint::black_box;
use std::time::Instant;

use dgnn_graph::gen::churn;
use dgnn_tensor::{pool, simd, Dense};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Thread counts swept (1 = the serial baseline).
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One kernel's measurements across the thread sweep.
struct KernelResult {
    /// Kernel name (`matmul`, `spmm`, …).
    name: &'static str,
    /// Problem-size label (e.g. `320x320x320`).
    size: String,
    /// Floating-point operations one call performs (mul+add counted
    /// separately: `2·m·k·n` for the GEMMs, `2·nnz·f` for the SpMMs).
    flops: f64,
    /// Best-of-N wall time in microseconds, aligned with [`THREAD_SWEEP`].
    us: Vec<f64>,
}

impl KernelResult {
    /// Speedup of `threads` over the serial baseline.
    fn speedup(&self, threads: usize) -> f64 {
        let i = THREAD_SWEEP
            .iter()
            .position(|&t| t == threads)
            .expect("thread count not in sweep");
        self.us[0] / self.us[i]
    }

    /// Single-thread throughput in GFLOP/s — the roofline column: a
    /// size-normalized number comparable across problem sizes.
    fn gflops_1t(&self) -> f64 {
        self.flops / (self.us[0] * 1e3)
    }
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn dense_rand(rows: usize, cols: usize, rng: &mut StdRng) -> Dense {
    Dense::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

fn bits_eq(a: &Dense, b: &Dense) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times `kernel` across the thread sweep and cross-checks each timed
/// configuration bitwise against the serial result.
fn sweep(
    name: &'static str,
    size: String,
    flops: f64,
    reps: usize,
    kernel: impl Fn() -> Dense,
) -> KernelResult {
    let reference = {
        let _g = pool::scoped_threads(Some(1));
        kernel()
    };
    let mut us = Vec::with_capacity(THREAD_SWEEP.len());
    for threads in THREAD_SWEEP {
        let _g = pool::scoped_threads(Some(threads));
        let got = kernel();
        assert!(
            bits_eq(&got, &reference),
            "{name}: {threads}-thread result is not bit-identical to serial"
        );
        us.push(best_of(reps, &kernel));
    }
    KernelResult {
        name,
        size,
        flops,
        us,
    }
}

/// The naive i-k-j serial GEMM — the pre-blocking `matmul` loop. On the
/// finite random bench inputs this is bitwise what every pre-change GEMM
/// variant computed, so it pins the blocked kernels to history.
fn naive_gemm(a: &Dense, b: &Dense) -> Dense {
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Dense::zeros(m, n);
    for i in 0..m {
        for k in 0..kk {
            let av = a.get(i, k);
            for j in 0..n {
                let cur = out.get(i, j);
                out.set(i, j, cur + av * b.get(k, j));
            }
        }
    }
    out
}

/// Asserts the blocked GEMMs are bit-identical to the pre-change kernels
/// at an engaged size: `matmul` against the naive triple loop, and both
/// transposed variants against their explicit-transpose `matmul` forms
/// (which is exactly the accumulation order the old kernels used).
fn assert_gemm_parity(a: &Dense, b: &Dense) {
    let _g = pool::scoped_threads(Some(1));
    let reference = naive_gemm(a, b);
    assert!(
        bits_eq(&a.matmul(b), &reference),
        "blocked matmul diverges from the naive serial reference"
    );
    assert!(
        bits_eq(&a.matmul_transb(&b.transpose()), &reference),
        "packed matmul_transb diverges from matmul's bits"
    );
    assert!(
        bits_eq(&a.transpose().matmul_transa(b), &reference),
        "in-place matmul_transa diverges from matmul's bits"
    );
}

/// Runs the kernel-scaling sweep and prints one row per kernel. `fast`
/// shrinks the problem sizes.
pub fn run(fast: bool) {
    // f = 64 in both modes so the spmm_transa transpose path clears its
    // break-even at 4 threads; fast mode still finishes in seconds.
    let (gemm_n, spmm_n, spmm_m, feat, reps) = if fast {
        (256usize, 10_000usize, 100_000usize, 64usize, 5usize)
    } else {
        (320, 20_000, 200_000, 64, 7)
    };
    println!(
        "== Kernel scaling: serial vs {:?} threads (host has {}, SIMD {}) ==",
        &THREAD_SWEEP[1..],
        pool::host_parallelism(),
        if simd::enabled() { "on" } else { "off" }
    );

    let mut rng = StdRng::seed_from_u64(42);
    let a = dense_rand(gemm_n, gemm_n, &mut rng);
    let b = dense_rand(gemm_n, gemm_n, &mut rng);
    let g = churn(spmm_n, 1, spmm_m, 0.0, 7);
    let lap = g.snapshot(0).laplacian();
    let x = dense_rand(spmm_n, feat, &mut rng);

    // Bitwise parity with the pre-change kernels at the engaged size.
    assert_gemm_parity(&a, &b);
    println!("parity: blocked GEMMs bit-identical to the naive serial reference at {gemm_n}^3");

    let gemm_flops = 2.0 * (gemm_n as f64).powi(3);
    let spmm_flops = 2.0 * lap.nnz() as f64 * feat as f64;
    let gemm_size = format!("{gemm_n}x{gemm_n}x{gemm_n}");
    // f32x{feat} = feature width in f32 columns.
    let spmm_size = format!("{spmm_n}v/{}nnz/f32x{feat}", lap.nnz());
    let results = [
        sweep("matmul", gemm_size.clone(), gemm_flops, reps, || {
            a.matmul(&b)
        }),
        sweep("matmul_transa", gemm_size.clone(), gemm_flops, reps, || {
            a.matmul_transa(&b)
        }),
        sweep("matmul_transb", gemm_size, gemm_flops, reps, || {
            a.matmul_transb(&b)
        }),
        sweep("spmm", spmm_size.clone(), spmm_flops, reps, || lap.spmm(&x)),
        sweep("spmm_transa", spmm_size, spmm_flops, reps, || {
            lap.spmm_transa(&x)
        }),
    ];

    println!(
        "{:<14} {:>22} {:>9} {:>9} {:>9} {:>9}  speedup@4  GFLOP/s(1T)",
        "kernel", "size", "1T µs", "2T µs", "4T µs", "8T µs"
    );
    for r in &results {
        println!(
            "{:<14} {:>22} {:>9.0} {:>9.0} {:>9.0} {:>9.0}  {:>8.2}x  {:.2}",
            r.name,
            r.size,
            r.us[0],
            r.us[1],
            r.us[2],
            r.us[3],
            r.speedup(4),
            r.gflops_1t()
        );
    }
}
