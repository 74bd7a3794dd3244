//! aarch64 NEON split-nibble kernels: the `pshufb` algebra on
//! `vqtbl1q_u8`.
//!
//! Identical decomposition to the [`x86`](crate::arch::x86) path —
//! `b·x = LO[b & 0xf] ⊕ HI[b >> 4]` with the 16-entry nibble tables
//! from the caller's [`MulTable`] — expressed with the AArch64 table
//! lookup: `vqtbl1q_u8(table, idx)` selects 16 bytes from a 16-byte
//! table, exactly the shuffle the nibble tables need (indices are
//! masked below 16, so the out-of-range-yields-zero semantics of
//! `TBL` never fire). 16 bytes per step; ragged tails finish on the
//! 256-entry table row, so all lengths and alignments are handled.

#![cfg(target_arch = "aarch64")]

use crate::arch::generic::table;
use crate::simd::MulTable;
use core::arch::aarch64::{
    uint8x16_t, vandq_u8, vdupq_n_u8, veorq_u8, vld1q_u8, vqtbl1q_u8, vshrq_n_u8, vst1q_u8,
};
use std::sync::OnceLock;

/// Whether the host supports the NEON path, cached after the first
/// probe. (Linux aarch64 targets bake NEON into the baseline, but the
/// probe keeps the contract explicit and covers exotic targets.)
pub(crate) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::arch::is_aarch64_feature_detected!("neon"))
}

/// The nibble tables as 128-bit vectors plus the low-nibble mask.
///
/// # Safety
///
/// Requires NEON (guaranteed by the callers' `target_feature`).
#[inline]
unsafe fn tables(t: &MulTable) -> (uint8x16_t, uint8x16_t, uint8x16_t) {
    let lo = unsafe { vld1q_u8(t.lo.as_ptr()) };
    let hi = unsafe { vld1q_u8(t.hi.as_ptr()) };
    (lo, hi, unsafe { vdupq_n_u8(0x0f) })
}

/// 16 field products at once: `LO[v & 0xf] ⊕ HI[v >> 4]`.
#[inline]
#[target_feature(enable = "neon")]
unsafe fn mul16(v: uint8x16_t, lo: uint8x16_t, hi: uint8x16_t, mask: uint8x16_t) -> uint8x16_t {
    let lo_n = vandq_u8(v, mask);
    let hi_n = vshrq_n_u8::<4>(v);
    veorq_u8(vqtbl1q_u8(lo, lo_n), vqtbl1q_u8(hi, hi_n))
}

pub(crate) fn scale_add(dst: &mut [u8], src: &[u8], t: &MulTable) {
    debug_assert!(available());
    // SAFETY: available() verified NEON at runtime.
    unsafe { scale_add_neon(dst, src, t) }
}

pub(crate) fn add_scaled(dst: &mut [u8], src: &[u8], t: &MulTable) {
    debug_assert!(available());
    // SAFETY: available() verified NEON at runtime.
    unsafe { add_scaled_neon(dst, src, t) }
}

pub(crate) fn scale(dst: &mut [u8], t: &MulTable) {
    debug_assert!(available());
    // SAFETY: available() verified NEON at runtime.
    unsafe { scale_neon(dst, t) }
}

#[target_feature(enable = "neon")]
unsafe fn scale_add_neon(dst: &mut [u8], src: &[u8], t: &MulTable) {
    let (lo, hi, mask) = unsafe { tables(t) };
    let main = dst.len() & !15;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 16 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = vld1q_u8(dst.as_ptr().add(i));
            let s = vld1q_u8(src.as_ptr().add(i));
            let v = veorq_u8(mul16(d, lo, hi, mask), s);
            vst1q_u8(dst.as_mut_ptr().add(i), v);
        }
        i += 16;
    }
    table::scale_add(&mut dst[main..], &src[main..], t);
}

#[target_feature(enable = "neon")]
unsafe fn add_scaled_neon(dst: &mut [u8], src: &[u8], t: &MulTable) {
    let (lo, hi, mask) = unsafe { tables(t) };
    let main = dst.len() & !15;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 16 ≤ main ≤ dst.len() == src.len().
        unsafe {
            let d = vld1q_u8(dst.as_ptr().add(i));
            let s = vld1q_u8(src.as_ptr().add(i));
            let v = veorq_u8(d, mul16(s, lo, hi, mask));
            vst1q_u8(dst.as_mut_ptr().add(i), v);
        }
        i += 16;
    }
    table::add_scaled(&mut dst[main..], &src[main..], t);
}

#[target_feature(enable = "neon")]
unsafe fn scale_neon(dst: &mut [u8], t: &MulTable) {
    let (lo, hi, mask) = unsafe { tables(t) };
    let main = dst.len() & !15;
    let mut i = 0;
    while i < main {
        // SAFETY: i + 16 ≤ main ≤ dst.len().
        unsafe {
            let d = vld1q_u8(dst.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), mul16(d, lo, hi, mask));
        }
        i += 16;
    }
    table::scale(&mut dst[main..], t);
}
