//! AVX-512 VBMI 64-byte split-nibble kernels.
//!
//! Same algebra as the [`x86`](crate::arch::x86) `pshufb` path —
//! `b·x = LO[b & 0xf] ⊕ HI[b >> 4]` — but a `vpermb`
//! (`_mm512_permutexvar_epi8`) step translates 64 bytes at once. The
//! 16-entry nibble tables are broadcast to all four 128-bit lanes with
//! `vbroadcasti32x4`; nibble indices are < 16, so every lane of the
//! broadcast sees the same table regardless of which copy `vpermb`
//! reads. Lengths past the last 64-byte chunk finish on the SSSE3
//! 16-byte mid-tail (always present on an AVX-512 host) and then the
//! 256-entry table row.

#![cfg(target_arch = "x86_64")]

use crate::arch::x86;
use crate::simd::MulTable;
use core::arch::x86_64::{
    __m512i, _mm512_and_si512, _mm512_broadcast_i32x4, _mm512_loadu_si512, _mm512_permutexvar_epi8,
    _mm512_set1_epi8, _mm512_srli_epi64, _mm512_storeu_si512, _mm512_xor_si512, _mm_loadu_si128,
};
use std::sync::OnceLock;

/// Whether the host supports the `vpermb` path (AVX-512BW + VBMI),
/// cached after the first probe.
pub(crate) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vbmi")
    })
}

/// The broadcast nibble tables and low-nibble mask as 512-bit vectors.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the callers' `target_feature`).
#[inline]
unsafe fn tables512(t: &MulTable) -> (__m512i, __m512i, __m512i) {
    let lo = unsafe { _mm512_broadcast_i32x4(_mm_loadu_si128(t.lo.as_ptr().cast())) };
    let hi = unsafe { _mm512_broadcast_i32x4(_mm_loadu_si128(t.hi.as_ptr().cast())) };
    (lo, hi, _mm512_set1_epi8(0x0f))
}

/// 64 field products at once: `LO[v & 0xf] ⊕ HI[v >> 4]` via `vpermb`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn mul512(v: __m512i, lo: __m512i, hi: __m512i, mask: __m512i) -> __m512i {
    let lo_n = _mm512_and_si512(v, mask);
    let hi_n = _mm512_and_si512(_mm512_srli_epi64::<4>(v), mask);
    _mm512_xor_si512(
        _mm512_permutexvar_epi8(lo_n, lo),
        _mm512_permutexvar_epi8(hi_n, hi),
    )
}

pub(crate) fn scale_add(dst: &mut [u8], src: &[u8], t: &MulTable) {
    debug_assert!(available());
    // SAFETY: available() verified AVX-512BW/VBMI at runtime.
    unsafe { scale_add_512(dst, src, t) }
}

pub(crate) fn add_scaled(dst: &mut [u8], src: &[u8], t: &MulTable) {
    debug_assert!(available());
    // SAFETY: available() verified AVX-512BW/VBMI at runtime.
    unsafe { add_scaled_512(dst, src, t) }
}

pub(crate) fn scale(dst: &mut [u8], t: &MulTable) {
    debug_assert!(available());
    // SAFETY: available() verified AVX-512BW/VBMI at runtime.
    unsafe { scale_512(dst, t) }
}

#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn scale_add_512(dst: &mut [u8], src: &[u8], t: &MulTable) {
    let (lo, hi, mask) = unsafe { tables512(t) };
    let main = dst.len() & !63;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 64 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
            let s = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            let v = _mm512_xor_si512(mul512(d, lo, hi, mask), s);
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), v);
        }
        i += 64;
    }
    // SAFETY: AVX-512 implies SSSE3.
    unsafe { x86::scale_add_tail128(dst, src, t, main) }
}

#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn add_scaled_512(dst: &mut [u8], src: &[u8], t: &MulTable) {
    let (lo, hi, mask) = unsafe { tables512(t) };
    let main = dst.len() & !63;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 64 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
            let s = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            let v = _mm512_xor_si512(d, mul512(s, lo, hi, mask));
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), v);
        }
        i += 64;
    }
    // SAFETY: AVX-512 implies SSSE3.
    unsafe { x86::add_scaled_tail128(dst, src, t, main) }
}

#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
unsafe fn scale_512(dst: &mut [u8], t: &MulTable) {
    let (lo, hi, mask) = unsafe { tables512(t) };
    let main = dst.len() & !63;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 64 ≤ main ≤ dst.len().
        unsafe {
            let d = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), mul512(d, lo, hi, mask));
        }
        i += 64;
    }
    // SAFETY: AVX-512 implies SSSE3.
    unsafe { x86::scale_tail128(dst, t, main) }
}
