//! x86-64 split-nibble `pshufb` kernels (SSSE3 and AVX2 widths).
//!
//! The product by a fixed multiplier `x` factors through the nibbles:
//! `b·x = LO[b & 0xf] ⊕ HI[b >> 4]` where `LO`/`HI` are the 16-entry
//! tables held in the caller's [`MulTable`]. One `_mm_shuffle_epi8`
//! (SSSE3, 16 bytes/step) or `_mm256_shuffle_epi8` (AVX2, 32
//! bytes/step) therefore performs 16/32 field multiplications. This
//! file binds those two products; the kernels over them are
//! `multi_kernels!` output, AVX2 handing what is left of a plane to
//! SSSE3 and SSSE3 to the 256-entry table row, so any length (and any
//! alignment — all loads/stores are unaligned) is handled.

#![cfg(target_arch = "x86_64")]

use crate::arch::generic::table;
use crate::simd::MulTable;
use crate::Gf256;
use core::arch::x86_64::{
    __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
    _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_xor_si256, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8,
    _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
};
use std::sync::OnceLock;

/// The x86 vector width the `simd` backend runs at on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    Ssse3,
    Avx2,
}

/// Detects (once) whether the host supports the `pshufb` path, and at
/// which width. `None` means `Backend::Simd` is unavailable.
pub(crate) fn level() -> Option<SimdLevel> {
    static LEVEL: OnceLock<Option<SimdLevel>> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if is_x86_feature_detected!("avx2") {
            Some(SimdLevel::Avx2)
        } else if is_x86_feature_detected!("ssse3") {
            Some(SimdLevel::Ssse3)
        } else {
            None
        }
    })
}

/// Calls kernel `$op` at the width [`level`] found.
macro_rules! dispatch {
    ($op:ident($($arg:expr),+)) => {
        match level().expect("Simd backend requires SSSE3") {
            // SAFETY: level() verified the feature at runtime.
            SimdLevel::Avx2 => unsafe { avx2::$op($($arg),+) },
            SimdLevel::Ssse3 => unsafe { ssse3::$op($($arg),+) },
        }
    };
}

pub(crate) fn scale_add(dst: &mut [u8], src: &[u8], t: &MulTable) {
    dispatch!(scale_add(dst, src, t))
}

pub(crate) fn add_scaled(dst: &mut [u8], src: &[u8], t: &MulTable) {
    dispatch!(add_scaled(dst, src, t))
}

pub(crate) fn scale(dst: &mut [u8], t: &MulTable) {
    dispatch!(scale(dst, t))
}

/// Evaluates `planes` at every `xs[j]` into `outs[j]` when there is a
/// kernel for that many planes (`1..=MAX_FUSED`) of that length (16
/// bytes or more); `false`, with nothing written, when there is not.
///
/// # Safety
///
/// Every plane and every output has the same length.
pub(crate) unsafe fn eval(outs: &mut [&mut [u8]], xs: &[Gf256], planes: &[&[u8]]) -> bool {
    let len = planes.first().map_or(0, |p| p.len());
    // SAFETY: level() verified the feature at runtime, each arm that
    // the operands are one of its vectors long; the lengths' equality
    // is the caller's.
    unsafe {
        match level().expect("Simd backend requires SSSE3") {
            _ if len < 16 => false,
            SimdLevel::Avx2 if len >= 32 => with_k!(planes => p, avx2::eval(outs, xs, p)),
            _ => with_k!(planes => p, ssse3::eval(outs, xs, p)),
        }
    }
}

/// Writes `Σ w·src` into `out` when there is a kernel for that many
/// sources (`1..=MAX_FUSED`) of that length (16 bytes or more);
/// `false`, with nothing written, when there is not.
///
/// # Safety
///
/// Every source is as long as `out`.
pub(crate) unsafe fn combine(out: &mut [u8], srcs: &[(Gf256, &[u8])]) -> bool {
    let len = out.len();
    // SAFETY: as in `eval`.
    unsafe {
        match level().expect("Simd backend requires SSSE3") {
            _ if len < 16 => false,
            SimdLevel::Avx2 if len >= 32 => with_k!(srcs => s, avx2::combine(out, s)),
            _ => with_k!(srcs => s, ssse3::combine(out, s)),
        }
    }
}

/// The nibble tables of `t`'s multiplier, low then high.
#[inline]
#[target_feature(enable = "ssse3")]
fn nibbles128(_: Gf256, t: &MulTable) -> (__m128i, __m128i) {
    // SAFETY: `lo` and `hi` are 16 bytes each.
    unsafe {
        (
            _mm_loadu_si128(t.lo.as_ptr().cast()),
            _mm_loadu_si128(t.hi.as_ptr().cast()),
        )
    }
}

/// [`nibbles128`] in both lanes of a 256-bit vector.
#[inline]
#[target_feature(enable = "avx2")]
fn nibbles256(x: Gf256, t: &MulTable) -> (__m256i, __m256i) {
    let (lo, hi) = nibbles128(x, t);
    (
        _mm256_broadcastsi128_si256(lo),
        _mm256_broadcastsi128_si256(hi),
    )
}

/// 16 field products at once: `LO[v & 0xf] ⊕ HI[v >> 4]`.
#[inline]
#[target_feature(enable = "ssse3")]
fn mul128(v: __m128i, (lo, hi): (__m128i, __m128i)) -> __m128i {
    let mask = _mm_set1_epi8(0x0f);
    let lo_n = _mm_and_si128(v, mask);
    let hi_n = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    _mm_xor_si128(_mm_shuffle_epi8(lo, lo_n), _mm_shuffle_epi8(hi, hi_n))
}

/// 32 field products at once (both 128-bit lanes use the same
/// broadcast tables — `vpshufb` shuffles within lanes, which is
/// exactly what the 16-entry tables need).
#[inline]
#[target_feature(enable = "avx2")]
fn mul256(v: __m256i, (lo, hi): (__m256i, __m256i)) -> __m256i {
    let mask = _mm256_set1_epi8(0x0f);
    let lo_n = _mm256_and_si256(v, mask);
    let hi_n = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    _mm256_xor_si256(_mm256_shuffle_epi8(lo, lo_n), _mm256_shuffle_epi8(hi, hi_n))
}

multi_kernels! {
    mod ssse3, features: "ssse3", width: 16,
    load: _mm_loadu_si128, store: _mm_storeu_si128, xor: _mm_xor_si128,
    mult: nibbles128, mul: mul128, then: table,
}

multi_kernels! {
    mod avx2, features: "avx2", width: 32,
    load: _mm256_loadu_si256, store: _mm256_storeu_si256, xor: _mm256_xor_si256,
    mult: nibbles256, mul: mul256, then: ssse3,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Backend;

    /// Detection settles on one width per host, so the dispatched tests
    /// never run the `eval` and `combine` kernels of the width it
    /// passed over: both, called directly, against the scalar backend.
    #[test]
    fn many_operand_kernels_agree_at_every_width_the_host_has() {
        crate::arch::check_widths! { many_operand:
            (16, is_x86_feature_detected!("ssse3"), ssse3),
            (32, is_x86_feature_detected!("avx2"), avx2),
        }
    }

    /// Nor the in-place SSSE3 kernels of an AVX2 host, except on what
    /// its own leave over.
    #[test]
    fn in_place_kernels_agree_at_every_width_the_host_has() {
        crate::arch::check_widths! { in_place:
            (16, is_x86_feature_detected!("ssse3"), ssse3),
            (32, is_x86_feature_detected!("avx2"), avx2),
        }
    }
}
