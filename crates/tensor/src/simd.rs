//! Portable f32 SIMD shim: an 8-lane vector type with bit-exact per-lane
//! semantics, a runtime-dispatched AVX2+FMA compile of each hot kernel, and
//! a software-prefetch hint. Dependency-free; non-x86 targets and Miri take
//! the portable compile automatically.
//!
//! # Bit-identity by construction
//!
//! [`F32x8`] is a 32-byte-aligned `[f32; 8]` and every operation on it is a
//! per-lane scalar loop: one IEEE mul and one IEEE add per accumulation
//! step. Kernels written against the type are compiled twice — once at the
//! crate's baseline target features and once inside a
//! `#[target_feature(enable = "avx2,fma")]` wrapper, where LLVM lowers the
//! 8-lane loops to 256-bit vector ops — and both compiles perform the same
//! per-element arithmetic in the same order. The vectorized kernels
//! therefore inherit the workspace determinism contract (golden captures,
//! thread-count bit-equality) unchanged: lanes only ever span *different*
//! output elements — adjacent output columns of one row in the GEMM and
//! SpMM kernels, consecutive rows of one gate column in the fused LSTM
//! cell; no output element's serial k/nnz accumulation order is altered.
//!
//! The FMA feature does not fuse the f32 kernels. Rust never contracts
//! `acc + a * b` into a fused multiply-add (which rounds once instead of
//! twice and would change low-order bits), so the GEMM's mul-then-add
//! stays unfused in both compiles. The only fused operations are the
//! explicit f64 [`f64::mul_add`] calls of the lane `exp`
//! ([`crate::lanes`]), which are exact in both compiles: one instruction
//! here, a correctly rounded libm `fma` call in the portable compile.
//!
//! # Dispatch
//!
//! [`enabled`] resolves once per process: [`ENV_SIMD`]`=0` forces the
//! portable compile, otherwise x86_64 hosts with AVX2 and FMA take the
//! `#[target_feature]` compile. The choice never affects produced values —
//! CI runs the full equivalence suite under both settings against the same
//! golden captures, which is a transitive bitwise SIMD/scalar parity
//! assertion.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable: set `DGNN_SIMD=0` to force the portable
/// (baseline-feature) compile of every vectorized kernel. Any other value,
/// or unset, lets runtime feature detection decide.
pub const ENV_SIMD: &str = "DGNN_SIMD";

/// Lane count of [`F32x8`] — the column-group width of the vectorized
/// kernels. Micro-kernel tails cascade down through this to a partial
/// vector, so any output width is handled; `LANES` only sets the
/// fast-path granularity.
pub const LANES: usize = 8;

/// Tri-state process-wide override for [`enabled`]:
/// 0 = none, 1 = forced portable, 2 = forced AVX2 (when the host has it).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// True when the `#[target_feature(enable = "avx2,fma")]` compiles of the
/// vectorized kernels are dispatched. False on non-x86_64 targets, under
/// Miri, when the host lacks AVX2 or FMA, or when [`ENV_SIMD`] is `0`.
///
/// Dispatch never affects produced bits — both compiles run identical
/// per-element IEEE arithmetic — so this is purely a speed switch.
#[inline]
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => host_supported(),
        _ => {
            static CACHE: OnceLock<bool> = OnceLock::new();
            *CACHE.get_or_init(|| {
                std::env::var(ENV_SIMD).map_or(true, |v| v != "0") && host_supported()
            })
        }
    }
}

/// Forces [`enabled`] on or off process-wide; `None` restores the default
/// env + feature-detection resolution. `Some(true)` still requires host
/// support — it cannot conjure AVX2 or FMA on a host without them.
///
/// Test/bench hook for in-process SIMD-vs-scalar comparisons. Flipping it
/// mid-kernel is harmless for correctness (both compiles are bit-identical)
/// but comparative timings should serialize around it.
#[doc(hidden)]
pub fn force_enabled(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
pub(crate) fn host_supported() -> bool {
    // Caches internally; cheap after the first call.
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
pub(crate) fn host_supported() -> bool {
    false
}

/// Hints the CPU to pull the cache line holding `data[i]` toward L1/L2.
/// Out-of-range `i` is a silent no-op (callers clamp speculative prefetch
/// distances by construction, but the guard keeps the hint unconditionally
/// safe). No-op on non-x86_64 targets and under Miri.
#[inline(always)]
pub fn prefetch_read(data: &[f32], i: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if i < data.len() {
        // SAFETY: `i` is in bounds, so the pointer is derived from a live
        // allocation; PREFETCHT0 is architecturally a hint with no
        // side effects and is available in baseline x86_64 (SSE).
        unsafe {
            std::arch::x86_64::_mm_prefetch(
                data.as_ptr().add(i).cast::<i8>(),
                std::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = (data, i);
}

/// Eight f32 lanes with strictly per-lane scalar semantics.
///
/// Every operation is a plain `[f32; 8]` loop of IEEE single-precision
/// scalar ops; inside a `#[target_feature(enable = "avx2,fma")]` compile LLVM
/// turns each into one 256-bit vector instruction with identical per-lane
/// results. Loads from arbitrary `&[f32]` positions are unaligned and
/// remain correct (and near-free on every AVX2 part).
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes `+0.0` — the accumulation identity the kernels start
    /// from, matching the `fill(0.0)` the scalar loops used.
    pub const ZERO: F32x8 = F32x8([0.0; LANES]);

    /// Broadcasts `v` into all lanes.
    #[inline(always)]
    pub fn splat(v: f32) -> F32x8 {
        F32x8([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `src` (panics if shorter).
    #[inline(always)]
    pub fn load(src: &[f32]) -> F32x8 {
        let mut lanes = [0.0f32; LANES];
        lanes.copy_from_slice(&src[..LANES]);
        F32x8(lanes)
    }

    /// Stores all lanes into the first [`LANES`] elements of `dst`
    /// (panics if shorter).
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Loads the first `w < LANES` elements of `src` into the low lanes.
    /// The other lanes hold whatever follows in `src` (one full unaligned
    /// load) when the slice still has [`LANES`] elements, and `+0.0` at
    /// the end of a buffer — never a read past the slice. Callers discard
    /// them ([`F32x8::store_partial`]).
    #[inline(always)]
    pub fn load_partial(src: &[f32], w: usize) -> F32x8 {
        if src.len() >= LANES {
            return F32x8::load(src);
        }
        let mut lanes = [0.0f32; LANES];
        lanes[..w].copy_from_slice(&src[..w]);
        F32x8(lanes)
    }

    /// Stores the low `w` lanes into the first `w` elements of `dst`.
    #[inline(always)]
    pub fn store_partial(self, dst: &mut [f32], w: usize) {
        dst[..w].copy_from_slice(&self.0[..w]);
    }

    /// Lane-wise `self + a * b` with **two** roundings (an unfused mul
    /// then add per lane) — deliberately *not* a fused multiply-add, so
    /// the result is bitwise identical to the scalar `acc + a * b` the
    /// pre-SIMD kernels computed.
    #[inline(always)]
    pub fn add_mul(self, a: F32x8, b: F32x8) -> F32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            out[l] += a.0[l] * b.0[l];
        }
        F32x8(out)
    }
}

impl std::ops::Add for F32x8 {
    type Output = F32x8;

    /// Lane-wise sum.
    #[inline(always)]
    fn add(self, rhs: F32x8) -> F32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            out[l] += rhs.0[l];
        }
        F32x8(out)
    }
}

impl std::ops::Mul for F32x8 {
    type Output = F32x8;

    /// Lane-wise product.
    #[inline(always)]
    fn mul(self, rhs: F32x8) -> F32x8 {
        let mut out = self.0;
        for l in 0..LANES {
            out[l] *= rhs.0[l];
        }
        F32x8(out)
    }
}

/// Compiles a kernel body twice — portable and `#[target_feature(enable =
/// "avx2,fma")]` — and defines a dispatcher that picks at runtime via
/// [`enabled`]. The body must be an `#[inline(always)]` fn so the
/// target-feature wrapper actually recompiles it (rather than calling the
/// baseline object code), which is what lets LLVM lower the [`F32x8`]
/// loops to 256-bit instructions.
///
/// Usage: `simd_dispatch!(fn name = impl_fn / avx2_name(arg: Ty, ...));`,
/// optionally preceded by doc comments for the dispatcher.
///
/// The generated pair carries its own `#[allow(unsafe_code)]`, so the
/// `unsafe` it needs is written here, once, and nowhere at the call sites.
macro_rules! simd_dispatch {
    ($(#[$doc:meta])* $vis:vis fn $name:ident = $imp:ident / $avx:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        /// # Safety
        /// The host must support AVX2 and FMA (`enabled()` checked it).
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        #[target_feature(enable = "avx2,fma")]
        #[allow(clippy::too_many_arguments, unsafe_code)]
        unsafe fn $avx($($arg: $ty),*) {
            $imp($($arg),*)
        }

        $(#[$doc])*
        #[inline]
        #[allow(clippy::too_many_arguments, unsafe_code)]
        $vis fn $name($($arg: $ty),*) {
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            if $crate::simd::enabled() {
                // SAFETY: `enabled()` is true only after runtime feature
                // detection confirmed AVX2 and FMA on this host.
                unsafe { $avx($($arg),*) };
                return;
            }
            $imp($($arg),*)
        }
    };
}
pub(crate) use simd_dispatch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_mul_is_unfused() {
        // Operands where fused and unfused differ: a = 1 + 2^-23 squares
        // to 1 + 2^-22 + 2^-46, which rounds to 1 + 2^-22; adding
        // c = -(1 + 2^-22) then gives exactly 0.0 unfused, but the
        // single-rounded FMA keeps the 2^-46 term.
        let a = 1.0f32 + f32::powi(2.0, -23);
        let c = -1.0f32 - f32::powi(2.0, -22);
        let unfused = c + a * a;
        let fused = a.mul_add(a, c);
        assert_ne!(
            unfused.to_bits(),
            fused.to_bits(),
            "test operands degenerate"
        );
        let got = F32x8::splat(c).add_mul(F32x8::splat(a), F32x8::splat(a));
        for l in 0..LANES {
            assert_eq!(got.0[l].to_bits(), unfused.to_bits());
        }
    }

    #[test]
    fn load_store_roundtrip_and_specials() {
        let src = [
            1.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            2.5,
            -3.0,
            0.125,
            9.0,
        ];
        let v = F32x8::load(&src);
        let mut dst = [0.0f32; LANES];
        v.store(&mut dst);
        for l in 0..LANES {
            assert_eq!(src[l].to_bits(), dst[l].to_bits());
        }
    }

    #[test]
    fn prefetch_in_and_out_of_bounds_is_safe() {
        let data = [0.0f32; 16];
        prefetch_read(&data, 0);
        prefetch_read(&data, 15);
        prefetch_read(&data, 16);
        prefetch_read(&[], 0);
    }

    #[test]
    fn force_override_roundtrip() {
        // Not run concurrently with other override users in this crate's
        // unit-test binary; integration tests serialize with a mutex.
        let default = enabled();
        force_enabled(Some(false));
        assert!(!enabled());
        force_enabled(Some(true));
        assert_eq!(
            enabled(),
            cfg!(all(target_arch = "x86_64", not(miri))) && host_supported()
        );
        force_enabled(None);
        assert_eq!(enabled(), default);
    }
}
