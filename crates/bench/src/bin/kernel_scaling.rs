//! Harness binary for the kernel-scaling sweep (serial vs 2/4/8 pool
//! threads); pass `--fast` for reduced problem sizes. Prints timings and
//! checks every threaded result bitwise against the serial one.
fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    dgnn_bench::kernel_scaling::run(fast);
}
