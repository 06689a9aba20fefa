//! Short measurements of single layers on the workload's own data, made
//! by the traced run after its timed region. They place the workload's
//! kernels (operation counts and computed bytes over measured time) and
//! the host (peak flops, a 2-rank exchange, the spill file system).

use std::hint::black_box;
use std::time::Instant;

use super::Ctx;
use crate::adapter::{self, Csr, Dense, InferenceSession, ModelConfig, Snapshot, Task};
use crate::stats::median;

/// Repetitions of a probed call; the median is reported.
const REPS: usize = 5;

/// Median wall time of `f` in milliseconds over [`REPS`] calls, after one
/// untimed call.
fn time_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn gflops(flops: f64, ms: f64) -> f64 {
    flops / (ms * 1e6)
}

/// The sparse and dense kernels on the workload's own operator `lap` and
/// feature width.
pub fn tensor(ctx: &mut Ctx, lap: &Csr, width: usize) {
    let (n, nnz) = (lap.rows(), lap.nnz());
    let x = Dense::from_fn(n, width, |r, c| ((r * 31 + c * 7) % 23) as f32 / 23.0 - 0.5);
    let w = Dense::from_fn(width, width, |r, c| {
        ((r * 5 + c * 3) % 11) as f32 / 11.0 - 0.5
    });
    let rows: Vec<u32> = (0..n as u32).step_by(100).collect();

    let spmm_ms = time_ms(|| adapter::spmm(lap, black_box(&x)));
    let spmm_flops = 2.0 * nnz as f64 * width as f64;
    // Computed, not measured: every stored value and column index once,
    // the row pointers, and the input and output matrices once each.
    let spmm_bytes = (nnz * 8 + (n + 1) * 8 + 2 * n * width * 4) as f64;
    ctx.set("tensor.spmm_ms", spmm_ms);
    ctx.set("tensor.spmm_gflops", gflops(spmm_flops, spmm_ms));
    ctx.set("tensor.spmm_computed_gbps", spmm_bytes / (spmm_ms * 1e6));
    ctx.set(
        "tensor.spmm_transa_ms",
        time_ms(|| adapter::spmm_transa(lap, black_box(&x))),
    );
    ctx.set(
        "tensor.spmm_rows_ms",
        time_ms(|| adapter::spmm_rows(lap, black_box(&x), &rows)),
    );
    let matmul_ms = time_ms(|| adapter::matmul(black_box(&x), &w));
    ctx.set("tensor.matmul_ms", matmul_ms);
    ctx.set(
        "tensor.matmul_gflops",
        gflops(2.0 * (n * width * width) as f64, matmul_ms),
    );

    const PEAK: usize = 512;
    let a = Dense::from_fn(PEAK, PEAK, |r, c| ((r + 2 * c) % 17) as f32 / 17.0);
    let peak_ms = time_ms(|| adapter::matmul(black_box(&a), &a));
    ctx.set(
        "tensor.peak_gflops",
        gflops(2.0 * (PEAK * PEAK * PEAK) as f64, peak_ms),
    );
    ctx.note("probe_rows", n as f64);
    ctx.note("probe_nnz", nnz as f64);
    ctx.note("probe_width", width as f64);
}

/// Laplacian construction and the snapshot difference, on two of the
/// workload's consecutive snapshots. The metrics are read from the spans
/// these calls leave.
pub fn graph(prev: &Snapshot, next: &Snapshot) {
    for _ in 0..REPS {
        black_box(adapter::laplacian(next));
        black_box(adapter::diff_edits(prev, next));
    }
}

/// Median time of the serving session's from-scratch forward, the
/// baseline an incremental advance is held against.
pub fn full_forward_ms(session: &InferenceSession) -> f64 {
    time_ms(|| adapter::session_full_forward(session))
}

/// One MiB per peer between two rank threads, and the section 7 model's
/// estimate for the workload against the epoch it measured.
pub fn sim(ctx: &mut Ctx, task: &Task, cfg: &ModelConfig, p: usize, nb: usize, epoch_ms: f64) {
    const FLOATS_PER_MIB: usize = (1 << 20) / 4;
    ctx.set(
        "sim.alltoall_1mib_us",
        adapter::alltoall_us(FLOATS_PER_MIB, 20),
    );
    let model_ms = adapter::model_epoch_ms(adapter::temporal_stats(&task.graph), cfg, p, nb);
    ctx.set("sim.model_epoch_ms", model_ms);
    if epoch_ms > 0.0 {
        ctx.set("sim.model_rel_err", (model_ms - epoch_ms).abs() / epoch_ms);
    }
}

/// Eight 1 MiB blocks sealed into the spill directory and faulted back.
pub fn store(ctx: &mut Ctx) {
    let dir = ctx.scratch_dir("probe");
    let t0 = Instant::now();
    let moved = adapter::store_put_get(&dir, 8, 1024, 256);
    let secs = t0.elapsed().as_secs_f64();
    match moved {
        Ok(bytes) => ctx.set("store.put_get_mbps", bytes as f64 / 1e6 / secs),
        Err(e) => ctx.check(&format!("the store probe returned: {e}"), false),
    }
    ctx.remove_scratch_dir(&dir);
}
