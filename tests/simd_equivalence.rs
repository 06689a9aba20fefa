//! SIMD-pass equivalence suite: the vectorized kernels against the
//! no-skip serial references, IEEE specials included, plus the cached
//! transpose's invalidation and in-process SIMD-vs-scalar parity.
//!
//! Conventions follow `parallel_equivalence.rs`: kernels are compared to
//! an *independent* reference modulo NaN payloads (two differently
//! compiled loops may legally keep different payloads when two NaNs
//! combine), and to *themselves* strictly bitwise across thread counts
//! whenever the executed code path is thread-count invariant. `spmm` runs
//! one row gather at every thread count, so it is held to strict bits
//! even on specials; `spmm_transa`
//! switches algorithms (serial scatter vs transpose-then-gather) with the
//! thread count, so on specials it gets payload latitude per thread count
//! instead.

use dgnn_core::prelude::*;
use dgnn_tensor::{pool, simd};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::sync::Mutex;

const THREAD_SWEEP: [usize; 5] = [1, 2, 3, 4, 8];

/// Serializes tests that flip the process-global SIMD dispatch override.
static SIMD_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Restores default SIMD dispatch on drop (panic-safe).
struct SimdRestore;
impl Drop for SimdRestore {
    fn drop(&mut self) {
        simd::force_enabled(None);
    }
}

fn bits_eq(a: &Dense, b: &Dense) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bit equality modulo NaN payloads — see `parallel_equivalence.rs` for
/// why kernel-vs-independent-reference comparisons on specials need this
/// latitude (x86 keeps whichever NaN operand codegen put first).
fn bits_eq_mod_nan_payload(a: &Dense, b: &Dense) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

fn assert_all_threads_match(name: &str, reference: &Dense, kernel: impl Fn() -> Dense) {
    for threads in THREAD_SWEEP {
        let _g = pool::scoped_threads(Some(threads));
        let got = kernel();
        assert!(
            bits_eq(&got, reference),
            "{name} diverges from the serial reference at {threads} threads \
             (shape {:?} vs {:?})",
            got.shape(),
            reference.shape()
        );
    }
}

/// Reference-mod-payload at every thread count — for kernels whose
/// algorithm legitimately changes with the thread count (`spmm_transa`).
fn assert_all_threads_match_mod_payload(name: &str, reference: &Dense, kernel: impl Fn() -> Dense) {
    for threads in THREAD_SWEEP {
        let _g = pool::scoped_threads(Some(threads));
        let got = kernel();
        assert!(
            bits_eq_mod_nan_payload(&got, reference),
            "{name} diverges from the reference beyond NaN payloads at {threads} threads"
        );
    }
}

// ---- Independent no-skip serial references ------------------------------

fn ref_matmul(a: &Dense, b: &Dense) -> Dense {
    let n = b.cols();
    let mut out = Dense::zeros(a.rows(), n);
    for i in 0..a.rows() {
        for (k, &av) in a.row(i).iter().enumerate() {
            for j in 0..n {
                let cur = out.get(i, j);
                out.set(i, j, cur + av * b.get(k, j));
            }
        }
    }
    out
}

fn ref_spmm(a: &Csr, x: &Dense) -> Dense {
    let f = x.cols();
    let mut out = Dense::zeros(a.rows(), f);
    for r in 0..a.rows() {
        for (c, v) in a.row_iter(r) {
            for j in 0..f {
                let cur = out.get(r, j);
                out.set(r, j, cur + v * x.get(c as usize, j));
            }
        }
    }
    out
}

fn ref_spmm_transa(a: &Csr, x: &Dense) -> Dense {
    let f = x.cols();
    let mut out = Dense::zeros(a.cols(), f);
    for r in 0..a.rows() {
        for (c, v) in a.row_iter(r) {
            for j in 0..f {
                let cur = out.get(c as usize, j);
                out.set(c as usize, j, cur + v * x.get(r, j));
            }
        }
    }
    out
}

/// A value stream mixing finite values with every IEEE special the
/// zero-skip bug class cares about: ±0, ±Inf, NaN.
fn specials_stream(seed: u64) -> impl FnMut() -> f32 {
    let mut rng = StdRng::seed_from_u64(seed);
    move || match rng.gen_range(0.0f32..1.0) {
        x if x < 0.15 => 0.0,
        x if x < 0.30 => -0.0,
        x if x < 0.36 => f32::INFINITY,
        x if x < 0.42 => f32::NEG_INFINITY,
        x if x < 0.48 => f32::NAN,
        x => x * 8.0 - 4.0,
    }
}

/// A matrix big enough for the row gather to engage the pool from
/// `f = 22` (nnz·f ≥ `PAR_MIN_MEMBOUND_WORK`): 500 vertices, 6000
/// distinct edges (the `499`/`500` moduli are coprime-ish so no pair
/// repeats within 6000).
fn pool_sized_csr() -> Csr {
    let edges: Vec<(u32, u32)> = (0..6000u32).map(|i| (i % 499, (i * 37) % 500)).collect();
    Csr::from_edges(500, &edges)
}

// ---- Remainder lanes: widths not divisible by the lane count ------------

#[test]
fn gemm_remainder_lanes_bitwise_equal() {
    // n sweeps every remainder class around the 8-lane vector and the
    // 16-wide micro-tile, at an m × k big enough to hit quad + row tails
    // and multiple k-panels.
    let (m, k) = (37usize, 130usize);
    let mut rng = StdRng::seed_from_u64(9);
    let a = Dense::from_fn(m, k, |_, _| rng.gen_range(-2.0f32..2.0));
    for n in [
        1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65,
    ] {
        let b = Dense::from_fn(k, n, |r, c| ((r * 31 + c * 7) % 23) as f32 * 0.25 - 2.75);
        assert_all_threads_match(&format!("matmul n={n}"), &ref_matmul(&a, &b), || {
            a.matmul(&b)
        });
    }
}

/// A `rows × cols` matrix whose buffer ends exactly where its last row
/// does (capacity == length), with `plant` values every seventh element.
fn exact_alloc(rows: usize, cols: usize, salt: usize, plant: &[f32]) -> Dense {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let k = i + salt;
            if !plant.is_empty() && k.is_multiple_of(7) {
                plant[(k / 7) % plant.len()]
            } else {
                ((k * 29 % 31) as f32 - 15.0) * 0.125
            }
        })
        .collect();
    Dense::from_vec(rows, cols, data.into_boxed_slice().into_vec())
}

#[test]
fn gemm_column_tails_bitwise_equal_for_all_three_products() {
    // Every output width around one vector and one micro-tile — for
    // N mod 8 != 0 the last columns go through the partial-vector
    // accumulators, and the last row of B through the zero-padded load at
    // the end of its buffer — times row counts on both sides of the
    // 4-row register block (301 engages the pool), times inner lengths
    // around one k-panel. Both compiles, every thread count.
    let _lock = SIMD_OVERRIDE_LOCK.lock().unwrap();
    let _restore = SimdRestore;
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    for simd_on in [false, true] {
        simd::force_enabled(Some(simd_on));
        for n in 1usize..=17 {
            for m in [1usize, 3, 4, 5, 9, 301] {
                for kk in [0usize, 1, 63, 64, 65] {
                    for plant in [&[][..], &specials[..]] {
                        let a = exact_alloc(m, kk, 1, plant);
                        let b = exact_alloc(kk, n, 3, plant);
                        let reference = ref_matmul(&a, &b);
                        let (at, bt) = (a.transpose(), b.transpose());
                        let products: [(&str, &dyn Fn() -> Dense); 3] = [
                            ("matmul", &|| a.matmul(&b)),
                            ("matmul_transa", &|| at.matmul_transa(&b)),
                            ("matmul_transb", &|| a.matmul_transb(&bt)),
                        ];
                        for (name, product) in products {
                            let what = format!("{name} simd={simd_on} m={m} k={kk} n={n}");
                            if plant.is_empty() {
                                assert_all_threads_match(&what, &reference, product);
                            } else {
                                // Which rows share a register block moves
                                // with the row partition, and with it which
                                // of two NaNs a lane keeps.
                                assert_all_threads_match_mod_payload(&what, &reference, product);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `aᵀ·g` as the naive loop: every output element from `+0.0`, one
/// mul-then-add per `k` in ascending `k`, no zero skip.
fn ref_matmul_transa(a: &Dense, g: &Dense) -> Dense {
    let n = g.cols();
    let mut out = Dense::zeros(a.cols(), n);
    for k in 0..a.rows() {
        let g_row = g.row(k);
        for (i, &av) in a.row(k).iter().enumerate() {
            for (o, &gv) in out.row_mut(i).iter_mut().zip(g_row) {
                *o += av * gv;
            }
        }
    }
    out
}

#[test]
fn skinny_transa_matches_the_naive_loop() {
    // `matmul_transa` reads `a` in place, one block of whole register
    // quads per thread. Output heights 1..=13 cross every quad remainder
    // and 16, 17, 24 engage the zero skip (whole zero rows of `a` below);
    // widths cross the vector and micro-tile tails; inner lengths cross
    // the k-panel. Specials go in both operands; both compiles; 1, 2 and
    // 4 threads.
    let _lock = SIMD_OVERRIDE_LOCK.lock().unwrap();
    let _restore = SimdRestore;
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    let heights = (1usize..=13).chain([16, 17, 24]);
    for c in heights {
        for n in [1usize, 2, 6, 7, 8, 9, 16, 24, 33] {
            for kk in [0usize, 1, 63, 64, 65, 4097] {
                for plant in [&[][..], &specials[..]] {
                    let mut a = exact_alloc(kk, c, 5, plant);
                    for k in (0..kk).step_by(3) {
                        a.row_mut(k).fill(0.0);
                    }
                    let g = exact_alloc(kk, n, 11, plant);
                    let reference = ref_matmul_transa(&a, &g);
                    for simd_on in [false, true] {
                        simd::force_enabled(Some(simd_on));
                        for threads in [1usize, 2, 4] {
                            let _g = pool::scoped_threads(Some(threads));
                            let got = a.matmul_transa(&g);
                            let same = if plant.is_empty() {
                                bits_eq(&got, &reference)
                            } else {
                                bits_eq_mod_nan_payload(&got, &reference)
                            };
                            assert!(
                                same,
                                "matmul_transa c={c} n={n} k={kk} specials={} \
                                 simd={simd_on} threads={threads}",
                                !plant.is_empty()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn spmm_remainder_lanes_bitwise_equal() {
    let a = pool_sized_csr();
    for f in [
        1usize, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96,
    ] {
        let x = Dense::from_fn(a.cols(), f, |r, c| {
            ((r * 13 + c * 5) % 19) as f32 * 0.5 - 4.5
        });
        let reference = ref_spmm(&a, &x);
        assert_all_threads_match(&format!("spmm f={f}"), &reference, || a.spmm(&x));
        // The row-subset kernel shares the gather core; its rows must
        // match the full product bitwise (finite data — same values, and
        // strictness across the kernels is part of their contract).
        let rows: Vec<u32> = (0..a.rows() as u32).step_by(7).collect();
        let sub = a.spmm_rows(&x, &rows);
        for (i, &r) in rows.iter().enumerate() {
            for j in 0..f {
                assert_eq!(
                    sub.get(i, j).to_bits(),
                    reference.get(r as usize, j).to_bits(),
                    "spmm_rows f={f} row {r} col {j}"
                );
            }
        }
    }
}

// ---- IEEE specials through the SIMD path --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// NaN/±Inf/±0 in both the CSR values and x, against the no-skip
    /// reference: the PR-7 zero-skip bug class, now through the
    /// register-chunk gather and the scatter axpy.
    #[test]
    fn sparse_specials_propagate_through_simd_path(
        positions in proptest::collection::vec((0u32..12, 0u32..9), 0..50),
        f in 0usize..11,
        seed in 0u64..1_000_000,
    ) {
        // Strict bits across thread counts on specials need one compile
        // for the whole case: a concurrent override flip moves NaN payloads.
        let _lock = SIMD_OVERRIDE_LOCK.lock().unwrap();
        let mut val = specials_stream(seed);
        let triplets: Vec<(u32, u32, f32)> =
            positions.iter().map(|&(r, c)| (r, c, val())).collect();
        let a = Csr::from_coo(12, 9, &triplets);
        let x = Dense::from_fn(9, f, |_, _| val());
        let xt = Dense::from_fn(12, f, |_, _| val());

        // spmm's executed path is a pure function of the matrix, so it
        // must match itself strictly at every thread count…
        let serial = {
            let _g = pool::scoped_threads(Some(1));
            a.spmm(&x)
        };
        prop_assert!(bits_eq_mod_nan_payload(&serial, &ref_spmm(&a, &x)),
            "spmm/specials diverges from the no-skip reference beyond NaN payloads");
        assert_all_threads_match("spmm/specials", &serial, || a.spmm(&x));

        // …while spmm_transa may switch scatter/gather algorithms with
        // the thread count, so specials get payload latitude per count.
        assert_all_threads_match_mod_payload(
            "spmm_transa/specials",
            &ref_spmm_transa(&a, &xt),
            || a.spmm_transa(&xt),
        );
    }
}

#[test]
fn spmm_specials_bitwise_stable_at_engaged_size() {
    // Specials at a size where the wider widths engage the pool, through
    // every vector chunk width of the row gather. Holds the override lock
    // for the same reason as the proptest above.
    let _lock = SIMD_OVERRIDE_LOCK.lock().unwrap();
    let mut a = pool_sized_csr();
    let mut val = specials_stream(31);
    for v in a.values_mut() {
        *v = val();
    }
    for f in [8usize, 16, 64] {
        let x = Dense::from_fn(a.cols(), f, |_, _| val());
        let serial = {
            let _g = pool::scoped_threads(Some(1));
            a.spmm(&x)
        };
        assert!(
            bits_eq_mod_nan_payload(&serial, &ref_spmm(&a, &x)),
            "spmm f={f} diverges from the no-skip reference beyond NaN payloads"
        );
        assert_all_threads_match(&format!("spmm/specials f={f}"), &serial, || a.spmm(&x));
    }
}

#[test]
fn transpose_cache_invalidated_by_value_mutation() {
    // Two threads at f = 96 clear the transpose-path break-even of
    // `spmm_transa` (on a multi-core host), so the first call caches the
    // transpose; `values_mut` must drop it, or the next product would
    // gather over the stale values.
    let _g = pool::scoped_threads(Some(2));
    let mut a = pool_sized_csr();
    let x = Dense::from_fn(a.rows(), 96, |r, c| ((r + 3 * c) % 13) as f32 - 6.0);
    let first = a.spmm_transa(&x);
    for v in a.values_mut() {
        *v *= 3.0;
    }
    let tripled = a.spmm_transa(&x);
    // Every entry is 1.0 → 3.0, exact in f32: the product must be the
    // no-skip reference over the new values, bit for bit.
    assert!(bits_eq(&tripled, &ref_spmm_transa(&a, &x)));
    assert!(!bits_eq(&first, &tripled));
}

#[test]
fn spmm_odd_row_counts_covered() {
    // Row counts not divisible by the lane width (8) or the pool's block
    // split: every row must still be produced exactly once. Wide
    // (rows × 256) shapes give many entries per row despite the small row
    // counts (13 is invertible mod 256, so no pair repeats before
    // lcm(rows, 256) ≥ 4352 — every triplet is distinct).
    for rows in [17usize, 23, 31, 33] {
        let triplets: Vec<(u32, u32, f32)> = (0..4352u32)
            .map(|i| (i % rows as u32, (i * 13) % 256, 1.0 + (i % 5) as f32 * 0.25))
            .collect();
        let a = Csr::from_coo(rows, 256, &triplets);
        let x = Dense::from_fn(a.cols(), 24, |r, c| ((r * 7 + c) % 11) as f32 - 5.0);
        let reference = ref_spmm(&a, &x);
        assert_all_threads_match(&format!("spmm rows={rows}"), &reference, || a.spmm(&x));
    }
}

// ---- In-process SIMD vs scalar parity -----------------------------------

#[test]
fn simd_and_scalar_compiles_agree() {
    let _lock = SIMD_OVERRIDE_LOCK.lock().unwrap();
    let _restore = SimdRestore;

    let mut rng = StdRng::seed_from_u64(77);
    let a = Dense::from_fn(61, 45, |_, _| rng.gen_range(-2.0f32..2.0));
    let b = Dense::from_fn(45, 52, |_, _| rng.gen_range(-2.0f32..2.0));
    let csr = pool_sized_csr();
    let x = Dense::from_fn(csr.cols(), 33, |_, _| rng.gen_range(-2.0f32..2.0));
    let xt = Dense::from_fn(csr.rows(), 33, |_, _| rng.gen_range(-2.0f32..2.0));

    simd::force_enabled(Some(false));
    let scalar = (
        a.matmul(&b),
        csr.spmm(&x),
        csr.spmm_transa(&xt),
        csr.spmm_rows(&x, &[0, 7, 400]),
    );
    simd::force_enabled(Some(true));
    let vector = (
        a.matmul(&b),
        csr.spmm(&x),
        csr.spmm_transa(&xt),
        csr.spmm_rows(&x, &[0, 7, 400]),
    );
    // Finite inputs: the two compiles must agree to the bit (CI's
    // DGNN_SIMD=0 leg re-asserts this transitively through the fixed
    // goldens; this test pins it in one process with no env dependence).
    assert!(bits_eq(&scalar.0, &vector.0), "matmul simd/scalar parity");
    assert!(bits_eq(&scalar.1, &vector.1), "spmm simd/scalar parity");
    assert!(
        bits_eq(&scalar.2, &vector.2),
        "spmm_transa simd/scalar parity"
    );
    assert!(
        bits_eq(&scalar.3, &vector.3),
        "spmm_rows simd/scalar parity"
    );

    // Specials: parity modulo NaN payloads (different compiles may keep
    // different payloads when two NaNs meet).
    let mut val = specials_stream(5);
    let sa = Dense::from_fn(20, 9, |_, _| val());
    let sb = Dense::from_fn(9, 17, |_, _| val());
    simd::force_enabled(Some(false));
    let s_scalar = sa.matmul(&sb);
    simd::force_enabled(Some(true));
    let s_vector = sa.matmul(&sb);
    assert!(
        bits_eq_mod_nan_payload(&s_scalar, &s_vector),
        "matmul specials simd/scalar parity beyond NaN payloads"
    );
}
