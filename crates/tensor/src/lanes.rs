//! Lane transcendentals: `tanh`, `exp` and the logistic sigmoid on
//! [`F32x8`], each lane bitwise equal to the host libm's scalar result.
//!
//! The fused LSTM cell spends most of its forward in these three
//! functions, and scalar libm calls cannot be vectorized. Approximating
//! them would change every output bit, so the lane versions are ports of
//! the algorithms glibc's `libm` itself runs, made branch-free: every path
//! of the scalar algorithm is computed for every lane and lane selects
//! pick the result the scalar code's branches would have returned. Each
//! lane is therefore the scalar function, bit for bit, NaN payloads
//! included, and LLVM can lower the lane loops to 256-bit instructions
//! inside the `simd_dispatch!` AVX2 compile.
//!
//! * [`F32x8::tanh`] is fdlibm's `tanhf` over its `expm1f` (glibc's
//!   `sysdeps/ieee754/flt-32` code): plain f32 operations, no fused
//!   multiply-add, so both compiles agree trivially.
//! * [`F32x8::exp`] is glibc's `__expf_fma`, the FMA build of the ARM
//!   optimized-routines `expf` (`N = 32` table) that x86-64 hosts with FMA
//!   dispatch to. Its four fused multiply-adds are explicit f64
//!   [`f64::mul_add`] calls: one instruction in the AVX2+FMA compile, a
//!   correctly rounded libm `fma` call in the portable one, so both
//!   compiles round identically. Without them two of the 2³² inputs
//!   (`0x4202422f`, `0xc27c65d9`) would round differently.
//! * [`F32x8::sigmoid`] is `1.0 / (1.0 + exp(-v))`, the expression the
//!   unfused tape evaluated.
//!
//! The `lanes_equal_host_libm_on_every_f32` test (ignored; run it in
//! release) checks all 2³² inputs of each function against `f32::tanh` /
//! `f32::exp`, which is what keeps the training goldens valid on a host;
//! `lanes_agree_on_every_f32` checks the two compiles against each other
//! and holds on any host.

use crate::simd::{self, F32x8, LANES};

/// `2^(i/32)` as f64 bits, minus `i << 47` so that adding `k << 47` for
/// `k ≡ i (mod 32)` lands the exponent of `2^(k/32)`: glibc's
/// `__exp2f_data.tab`.
const EXP_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `32 / ln 2` (`0x1.71547652b82fep+0 · 32`).
const EXP_INV_LN2_N: u64 = 0x4047_1547_652b_82fe;
/// `0x1.8p52`: adding it rounds to an integer held in the low mantissa.
const EXP_SHIFT: u64 = 0x4338_0000_0000_0000;
/// The cubic's coefficients, pre-scaled by `32⁻³`, `32⁻²` and `32⁻¹`.
const EXP_C: [u64; 3] = [
    0x3ebc_6af8_4b91_2394,
    0x3f2e_bfce_50fa_c4f3,
    0x3f96_2e42_ff0c_52d6,
];

/// One lane of `__expf_fma`.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    let inv_ln2_n = f64::from_bits(EXP_INV_LN2_N);
    let shift = f64::from_bits(EXP_SHIFT);
    let [c0, c1, c2] = EXP_C.map(f64::from_bits);
    // x·N/ln2 = k + r with integer k and |r| ≤ 1/2.
    let xd = f64::from(x);
    let z = inv_ln2_n.mul_add(xd, shift);
    let ki = z.to_bits();
    let r = inv_ln2_n.mul_add(xd, -(z - shift));
    // exp(x) = 2^(k/N) · 2^(r/N) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let s = f64::from_bits(EXP_TABLE[(ki & 31) as usize].wrapping_add(ki << 47));
    let y = (c0.mul_add(r, c1).mul_add(r * r, c2.mul_add(r, 1.0)) * s) as f32;
    // The scalar code's `|x| ≥ 88` branch, as selects.
    let bits = x.to_bits();
    let y = if x < f32::from_bits(0xc2cf_f1b4) {
        0.0
    } else {
        y
    };
    let y = if x > f32::from_bits(0x42b1_7217) {
        f32::INFINITY
    } else {
        y
    };
    let y = if bits & 0x7fff_ffff >= 0x7f80_0000 {
        x + x
    } else {
        y
    };
    if bits == f32::NEG_INFINITY.to_bits() {
        0.0
    } else {
        y
    }
}

/// `1.5 · 2²³`: adding it rounds an f32 of magnitude below `2²²` to an
/// integer held in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// `v` truncated toward zero — the `(int32_t)` cast fdlibm applies —
/// exactly for `|v| < 2²²`, in f32 operations only (a saturating
/// float-to-int cast per lane would not vectorize).
#[inline(always)]
fn trunc_small(v: f32) -> f32 {
    let r = (v + ROUND) - ROUND;
    let r = if v >= 0.0 && r > v { r - 1.0 } else { r };
    if v < 0.0 && r < v {
        r + 1.0
    } else {
        r
    }
}

/// One lane of fdlibm's `expm1f` over the arguments `tanhf` passes it:
/// finite, `|x| < 44`, so the overflow and `x < −27·ln2` early returns
/// never apply. Every reconstruction branch is computed and selected.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const Q1: f32 = -3.333_333_5e-2;
    const Q2: f32 = 1.587_301_6e-3;
    const Q3: f32 = -7.936_507_6e-5;
    const Q4: f32 = 4.008_217_7e-6;
    const Q5: f32 = -2.010_992_1e-7;
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.to_bits() >> 31 != 0;
    // Argument reduction x = k·ln2 + (hi − lo). `k = 0` (|x| ≤ ln2/2)
    // and `k = ±1` (|x| < 1.5·ln2) reduce exactly as the general formula
    // does with that `k`, so one formula serves all three.
    let sign = if neg { -1.0f32 } else { 1.0 };
    let t = trunc_small(INVLN2 * x + 0.5 * sign);
    let t = if hx < 0x3f85_1592 { sign } else { t };
    let t = if hx > 0x3eb1_7218 { t } else { 0.0 };
    let k = (t + ROUND).to_bits().wrapping_sub(ROUND.to_bits()) as i32;
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t3 = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t3) / (6.0 - x * t3));
    let y_k0 = x - (x * e - hxs);
    let e = (x * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (x - e) - 0.5;
    let y_k1 = if x < -0.25 {
        -2.0 * (e - (x + 0.5))
    } else {
        1.0 + 2.0 * (x - e)
    };
    // "Add k to y's exponent" is an integer add on the bits.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32).wrapping_shl(23)));
    let y_far = scale(1.0 - (e - x)) - 1.0;
    let one_minus =
        f32::from_bits(0x3f80_0000u32.wrapping_sub(0x0100_0000u32.wrapping_shr(k as u32)));
    let y_mid = scale(one_minus - (e - x));
    let two_pow_neg_k = f32::from_bits(0x7fu32.wrapping_sub(k as u32).wrapping_shl(23));
    let y_high = scale((x - (e + two_pow_neg_k)) + 1.0);
    let y = if k < 23 { y_mid } else { y_high };
    let y = if k <= -2 || k > 56 { y_far } else { y };
    let y = if k == 1 { y_k1 } else { y };
    let y = if k == -1 { y_km1 } else { y };
    let y = if k == 0 { y_k0 } else { y };
    // |x| < 2⁻²⁵ returns x itself.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// One lane of fdlibm's `tanhf`. Its three divisions (`2/(t+2)`,
/// `−t/(t+2)` and the `1/x` of the non-finite branch) share one, with the
/// operands selected per lane.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let neg = jx >> 31 != 0;
    let ax = f32::from_bits(ix);
    // |x| ≥ 1: 1 − 2/(t+2) with t = expm1(2|x|); else −t/(t+2) with
    // t = expm1(−2|x|).
    let big = ix >= 0x3f80_0000;
    let t = expm1_lane(if big { 2.0 * ax } else { -2.0 * ax });
    let nonfinite = ix >= 0x7f80_0000;
    let num = if big { 2.0 } else { -t };
    let num = if nonfinite { 1.0 } else { num };
    let den = if nonfinite { x } else { t + 2.0 };
    let q = num / den;
    let z = if big { 1.0 - q } else { q };
    // |x| ≥ 22: 1 − 1e-30, which rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = if neg { -z } else { z };
    // |x| < 2⁻⁵⁵ (±0 included): x·(1 + x).
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // ±∞ and NaN: 1/x ± 1.
    let one = if neg { -1.0 } else { 1.0 };
    if nonfinite {
        q + one
    } else {
        z
    }
}

impl F32x8 {
    /// Lane-wise `f32::tanh`, bitwise equal to glibc's `tanhf`.
    #[inline(always)]
    pub fn tanh(self) -> F32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            out[l] = tanh_lane(self.0[l]);
        }
        F32x8(out)
    }

    /// Lane-wise `f32::exp`, bitwise equal to glibc's `__expf_fma`.
    #[inline(always)]
    pub fn exp(self) -> F32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            out[l] = exp_lane(self.0[l]);
        }
        F32x8(out)
    }

    /// Lane-wise logistic sigmoid `1.0 / (1.0 + exp(-v))`.
    #[inline(always)]
    pub fn sigmoid(self) -> F32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            out[l] = 1.0 / (1.0 + exp_lane(-self.0[l]));
        }
        F32x8(out)
    }
}

simd::simd_dispatch!(
    /// `f32::exp` of every element, in place, eight lanes at a time (the
    /// tail through a partial vector); bitwise equal to the scalar loop.
    pub fn exp_in_place = exp_in_place_impl / exp_in_place_avx2(
    values: &mut [f32]
));

#[inline(always)]
fn exp_in_place_impl(values: &mut [f32]) {
    for chunk in values.chunks_mut(LANES) {
        let w = chunk.len();
        F32x8::load_partial(chunk, w).exp().store_partial(chunk, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which of the three lane functions a check runs.
    #[derive(Clone, Copy, Debug)]
    enum Func {
        Tanh,
        Exp,
        Sigmoid,
    }

    const FUNCS: [Func; 3] = [Func::Tanh, Func::Exp, Func::Sigmoid];

    fn libm(f: Func, x: f32) -> f32 {
        match f {
            Func::Tanh => x.tanh(),
            Func::Exp => x.exp(),
            Func::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// The AVX2+FMA compile of [`apply_impl`].
    ///
    /// # Safety
    /// The host must support AVX2 and FMA.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2,fma")]
    #[allow(unsafe_code)]
    unsafe fn apply_avx2(f: Func, xs: &[f32], out: &mut [f32]) {
        apply_impl(f, xs, out)
    }

    /// The lane functions over a slice.
    #[inline(always)]
    fn apply_impl(f: Func, xs: &[f32], out: &mut [f32]) {
        for (x, o) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let w = x.len();
            let v = F32x8::load_partial(x, w);
            let y = match f {
                Func::Tanh => v.tanh(),
                Func::Exp => v.exp(),
                Func::Sigmoid => v.sigmoid(),
            };
            y.store_partial(o, w);
        }
    }

    /// Both compiles of `f` over `xs`: the portable one, then the AVX2
    /// one where the host has AVX2 and FMA (else the portable one again).
    fn both_compiles(f: Func, xs: &[f32]) -> [Vec<f32>; 2] {
        let mut portable = vec![0.0; xs.len()];
        apply_impl(f, xs, &mut portable);
        let mut vector = vec![0.0; xs.len()];
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if simd::host_supported() {
            // SAFETY: the host has AVX2 and FMA, checked just above.
            #[allow(unsafe_code)]
            unsafe {
                apply_avx2(f, xs, &mut vector)
            };
            return [portable, vector];
        }
        apply_impl(f, xs, &mut vector);
        [portable, vector]
    }

    /// Counts inputs where the compiles disagree with each other (and, with
    /// `against_libm`, with the scalar libm expression), printing the first
    /// few.
    fn mismatches(f: Func, xs: &[f32], against_libm: bool) -> u64 {
        let [portable, vector] = both_compiles(f, xs);
        let mut bad = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            let want = if against_libm {
                libm(f, x).to_bits()
            } else {
                portable[i].to_bits()
            };
            let (p, v) = (portable[i].to_bits(), vector[i].to_bits());
            if p != want || v != want {
                if bad < 4 {
                    eprintln!(
                        "{f:?}({:#010x}): portable {p:#010x}, avx2 {v:#010x}, want {want:#010x}",
                        x.to_bits()
                    );
                }
                bad += 1;
            }
        }
        bad
    }

    /// Every branch threshold of the three algorithms, as f32 bit patterns
    /// of the function's input; each is checked at both signs.
    const THRESHOLDS: [u32; 15] = [
        0x41b0_0000, // tanhf: |x| ≥ 22
        0x3f80_0000, // tanhf: |x| ≥ 1
        0x2400_0000, // tanhf: |x| < 2⁻⁵⁵
        0x3e31_7218, // expm1f(2|x|): 2|x| > ln2/2
        0x3f05_1592, // expm1f(2|x|): 2|x| < 1.5·ln2
        0x3e80_0000, // expm1f(2|x|) with k = ±1: reduced x < −0.25
        0x3280_0000, // expm1f(2|x|): 2|x| < 2⁻²⁵
        0x40f9_8872, // expm1f(2|x|): k = 23
        0x4115_b844, // expm1f(2|x|): 2|x| ≥ 27·ln2
        0x419c_a6b9, // expm1f(2|x|): k = 57
        0x42b0_0000, // expf: |x| ≥ 88
        0x42b1_7217, // expf: overflow past it
        0x42cf_f1b4, // expf: underflow past it
        0x42b1_70a4, // 88.72
        0x42cf_f0a4, // 103.97
    ];

    /// Witness inputs: every 65 537th bit pattern; ±64 ulps around each
    /// threshold and around 0; ±0, ±∞, subnormals, and quiet and
    /// signalling NaNs with payloads.
    fn witnesses() -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(65_537).collect();
        for c in THRESHOLDS.into_iter().chain([0]) {
            for sign in [0, 0x8000_0000u32] {
                for d in -64i32..=64 {
                    bits.push((c | sign).wrapping_add_signed(d));
                }
            }
        }
        bits.extend([
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x807f_ffff,
            0x0040_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7fc1_2345,
            0xffd5_4321,
            0x7f80_0001,
            0xff80_0001,
            0x7fa0_beef,
            0xffbf_ffff,
        ]);
        bits.into_iter().map(f32::from_bits).collect()
    }

    #[test]
    fn lanes_equal_libm_and_each_other_on_the_witnesses() {
        let xs = witnesses();
        for f in FUNCS {
            assert_eq!(mismatches(f, &xs, true), 0, "{f:?}");
        }
    }

    #[test]
    fn exp_in_place_is_the_lane_exp() {
        // Lengths around one vector, so the partial tail is covered.
        for len in [0usize, 1, 7, 8, 9, 23] {
            let xs: Vec<f32> = (0..len).map(|i| i as f32 * 3.7 - 40.0).collect();
            let mut got = xs.clone();
            exp_in_place(&mut got);
            for (x, y) in xs.iter().zip(&got) {
                assert_eq!(y.to_bits(), x.exp().to_bits(), "exp({x})");
            }
        }
    }

    /// Runs `check` over all 2³² bit patterns, chunked over scoped worker
    /// threads, and returns the total count it reports.
    fn every_f32(check: impl Fn(&[f32]) -> u64 + Sync) -> u64 {
        const CHUNK: u64 = 1 << 16;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let start = std::time::Instant::now();
        let total = std::thread::scope(|s| {
            let check = &check;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut xs = vec![0.0f32; CHUNK as usize];
                        let mut bad = 0;
                        let mut lo = w * CHUNK;
                        while lo < 1 << 32 {
                            for (i, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits((lo + i as u64) as u32);
                            }
                            bad += check(&xs);
                            lo += workers * CHUNK;
                        }
                        bad
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .sum()
        });
        eprintln!(
            "{total} mismatches over 2^32 inputs in {:.1} s on {workers} threads",
            start.elapsed().as_secs_f64()
        );
        total
    }

    /// The AVX2+FMA compile against the portable compile on every input:
    /// holds on any host (run with `--release --ignored`).
    #[test]
    #[ignore = "exhaustive: 2^32 inputs per function"]
    fn lanes_agree_on_every_f32() {
        let bad = every_f32(|xs| FUNCS.iter().map(|&f| mismatches(f, xs, false)).sum());
        assert_eq!(bad, 0);
    }

    /// Both compiles against this host's libm on every input: the witness
    /// that the lane kernels left every training golden unchanged (run
    /// with `--release --ignored`).
    #[test]
    #[ignore = "exhaustive: 2^32 inputs per function"]
    fn lanes_equal_host_libm_on_every_f32() {
        let bad = every_f32(|xs| FUNCS.iter().map(|&f| mismatches(f, xs, true)).sum());
        assert_eq!(bad, 0);
    }
}
