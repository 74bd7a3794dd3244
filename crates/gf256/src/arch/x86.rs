//! x86-64 split-nibble `pshufb` kernels (SSSE3 and AVX2 widths).
//!
//! The product by a fixed multiplier `x` factors through the nibbles:
//! `b·x = LO[b & 0xf] ⊕ HI[b >> 4]` where `LO`/`HI` are the 16-entry
//! tables held in the caller's [`MulTable`]. One `_mm_shuffle_epi8`
//! (SSSE3, 16 bytes/step) or `_mm256_shuffle_epi8` (AVX2, 32
//! bytes/step) therefore performs 16/32 field multiplications. Ragged
//! tails fall back to the 256-entry table row, so any length (and any
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

/// The nibble tables as 128-bit lanes plus the low-nibble mask.
///
/// # Safety
///
/// Requires SSSE3 (guaranteed by the callers' `target_feature`).
#[inline]
pub(crate) unsafe fn tables128(t: &MulTable) -> (__m128i, __m128i, __m128i) {
    let lo = unsafe { _mm_loadu_si128(t.lo.as_ptr().cast()) };
    let hi = unsafe { _mm_loadu_si128(t.hi.as_ptr().cast()) };
    (lo, hi, _mm_set1_epi8(0x0f))
}

/// 16 field products at once: `LO[v & 0xf] ⊕ HI[v >> 4]`.
#[inline]
#[target_feature(enable = "ssse3")]
pub(crate) unsafe fn mul128(v: __m128i, lo: __m128i, hi: __m128i, mask: __m128i) -> __m128i {
    let lo_n = _mm_and_si128(v, mask);
    let hi_n = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    _mm_xor_si128(_mm_shuffle_epi8(lo, lo_n), _mm_shuffle_epi8(hi, hi_n))
}

/// 32 field products at once (both 128-bit lanes use the same
/// broadcast tables — `vpshufb` shuffles within lanes, which is
/// exactly what the 16-entry tables need).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul256(v: __m256i, lo: __m256i, hi: __m256i, mask: __m256i) -> __m256i {
    let lo_n = _mm256_and_si256(v, mask);
    let hi_n = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    _mm256_xor_si256(_mm256_shuffle_epi8(lo, lo_n), _mm256_shuffle_epi8(hi, hi_n))
}

macro_rules! dispatch {
    ($avx2:ident, $ssse3:ident, $($arg:expr),+) => {
        match level().expect("Simd backend requires SSSE3") {
            // SAFETY: level() verified the feature at runtime.
            SimdLevel::Avx2 => unsafe { $avx2($($arg),+) },
            SimdLevel::Ssse3 => unsafe { $ssse3($($arg),+) },
        }
    };
}

pub(crate) fn scale_add(dst: &mut [u8], src: &[u8], t: &MulTable) {
    dispatch!(scale_add_avx2, scale_add_ssse3, dst, src, t)
}

pub(crate) fn add_scaled(dst: &mut [u8], src: &[u8], t: &MulTable) {
    dispatch!(add_scaled_avx2, add_scaled_ssse3, dst, src, t)
}

pub(crate) fn scale(dst: &mut [u8], t: &MulTable) {
    dispatch!(scale_avx2, scale_ssse3, dst, t)
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
            SimdLevel::Avx2 if len >= 32 => with_k!(planes => p, eval_avx2(outs, xs, p)),
            _ => with_k!(planes => p, eval_ssse3(outs, xs, p)),
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
            SimdLevel::Avx2 if len >= 32 => with_k!(srcs => s, combine_avx2(out, s)),
            _ => with_k!(srcs => s, combine_ssse3(out, s)),
        }
    }
}

/// The nibble tables of multiplier `x`, low then high.
#[inline]
#[target_feature(enable = "ssse3")]
fn nibbles128(x: Gf256) -> (__m128i, __m128i) {
    // SAFETY: SSSE3 is enabled on this function.
    let (lo, hi, _) = unsafe { tables128(MulTable::of(x)) };
    (lo, hi)
}

/// [`nibbles128`] in both lanes of a 256-bit vector.
#[inline]
#[target_feature(enable = "avx2")]
fn nibbles256(x: Gf256) -> (__m256i, __m256i) {
    let (lo, hi) = nibbles128(x);
    (
        _mm256_broadcastsi128_si256(lo),
        _mm256_broadcastsi128_si256(hi),
    )
}

#[inline]
#[target_feature(enable = "ssse3")]
fn mul_by128(v: __m128i, (lo, hi): (__m128i, __m128i)) -> __m128i {
    // SAFETY: SSSE3 is enabled on this function.
    unsafe { mul128(v, lo, hi, _mm_set1_epi8(0x0f)) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn mul_by256(v: __m256i, (lo, hi): (__m256i, __m256i)) -> __m256i {
    // SAFETY: AVX2 is enabled on this function.
    unsafe { mul256(v, lo, hi, _mm256_set1_epi8(0x0f)) }
}

multi_kernels! {
    features: "ssse3", width: 16,
    load: _mm_loadu_si128, store: _mm_storeu_si128, xor: _mm_xor_si128,
    mult: nibbles128, mul: mul_by128,
    eval: eval_ssse3, combine: combine_ssse3,
}

multi_kernels! {
    features: "avx2", width: 32,
    load: _mm256_loadu_si256, store: _mm256_storeu_si256, xor: _mm256_xor_si256,
    mult: nibbles256, mul: mul_by256,
    eval: eval_avx2, combine: combine_avx2,
}

/// SSSE3 16-byte mid-tail shared with the wider x86 backends: runs
/// `dst[i..] ← dst·x ⊕ src` over whole 16-byte chunks starting at `i`,
/// returning the new offset; the last `< 16` bytes stay for the table
/// row.
///
/// # Safety
///
/// Requires SSSE3; `dst.len() == src.len()`.
#[target_feature(enable = "ssse3")]
pub(crate) unsafe fn scale_add_tail128(dst: &mut [u8], src: &[u8], t: &MulTable, mut i: usize) {
    let (lo, hi, mask) = unsafe { tables128(t) };
    let main = dst.len() & !15;
    while i < main {
        // SAFETY: i + 16 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let v = _mm_xor_si128(mul128(d, lo, hi, mask), s);
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), v);
        }
        i += 16;
    }
    table::scale_add(&mut dst[main..], &src[main..], t);
}

/// SSSE3 16-byte mid-tail of `add_scaled` from offset `i` (see
/// [`scale_add_tail128`]).
///
/// # Safety
///
/// Requires SSSE3; `dst.len() == src.len()`.
#[target_feature(enable = "ssse3")]
pub(crate) unsafe fn add_scaled_tail128(dst: &mut [u8], src: &[u8], t: &MulTable, mut i: usize) {
    let (lo, hi, mask) = unsafe { tables128(t) };
    let main = dst.len() & !15;
    while i < main {
        // SAFETY: i + 16 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let v = _mm_xor_si128(d, mul128(s, lo, hi, mask));
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), v);
        }
        i += 16;
    }
    table::add_scaled(&mut dst[main..], &src[main..], t);
}

/// SSSE3 16-byte mid-tail of `scale` from offset `i` (see
/// [`scale_add_tail128`]).
///
/// # Safety
///
/// Requires SSSE3.
#[target_feature(enable = "ssse3")]
pub(crate) unsafe fn scale_tail128(dst: &mut [u8], t: &MulTable, mut i: usize) {
    let (lo, hi, mask) = unsafe { tables128(t) };
    let main = dst.len() & !15;
    while i < main {
        // SAFETY: i + 16 ≤ main ≤ dst.len().
        unsafe {
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), mul128(d, lo, hi, mask));
        }
        i += 16;
    }
    table::scale(&mut dst[main..], t);
}

#[target_feature(enable = "ssse3")]
unsafe fn scale_add_ssse3(dst: &mut [u8], src: &[u8], t: &MulTable) {
    unsafe { scale_add_tail128(dst, src, t, 0) }
}

#[target_feature(enable = "avx2")]
unsafe fn scale_add_avx2(dst: &mut [u8], src: &[u8], t: &MulTable) {
    let lo = unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())) };
    let hi = unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())) };
    let mask = _mm256_set1_epi8(0x0f);
    let main = dst.len() & !31;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 32 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let v = _mm256_xor_si256(mul256(d, lo, hi, mask), s);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), v);
        }
        i += 32;
    }
    table::scale_add(&mut dst[main..], &src[main..], t);
}

#[target_feature(enable = "ssse3")]
unsafe fn add_scaled_ssse3(dst: &mut [u8], src: &[u8], t: &MulTable) {
    unsafe { add_scaled_tail128(dst, src, t, 0) }
}

#[target_feature(enable = "avx2")]
unsafe fn add_scaled_avx2(dst: &mut [u8], src: &[u8], t: &MulTable) {
    let lo = unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())) };
    let hi = unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())) };
    let mask = _mm256_set1_epi8(0x0f);
    let main = dst.len() & !31;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 32 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let v = _mm256_xor_si256(d, mul256(s, lo, hi, mask));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), v);
        }
        i += 32;
    }
    table::add_scaled(&mut dst[main..], &src[main..], t);
}

#[target_feature(enable = "ssse3")]
unsafe fn scale_ssse3(dst: &mut [u8], t: &MulTable) {
    unsafe { scale_tail128(dst, t, 0) }
}

#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(dst: &mut [u8], t: &MulTable) {
    let lo = unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())) };
    let hi = unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())) };
    let mask = _mm256_set1_epi8(0x0f);
    let main = dst.len() & !31;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 32 ≤ main ≤ dst.len().
        unsafe {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), mul256(d, lo, hi, mask));
        }
        i += 32;
    }
    table::scale(&mut dst[main..], t);
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
        crate::arch::check_widths! {
            (16, is_x86_feature_detected!("ssse3"), eval_ssse3, combine_ssse3),
            (32, is_x86_feature_detected!("avx2"), eval_avx2, combine_avx2),
        }
    }
}
