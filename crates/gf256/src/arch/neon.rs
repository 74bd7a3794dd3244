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
//!
//! The AES-128 counter-mode keystream runs here too, on the ARMv8 AES
//! instructions (`AESE` + `AESMC`), eight blocks in flight; a short
//! tail is one more group of eight.

#![cfg(target_arch = "aarch64")]

use crate::aes::{counter_block, Aes128, BLOCK};
use crate::arch::generic::table;
use crate::simd::MulTable;
use core::arch::aarch64::{
    uint8x16_t, vaeseq_u8, vaesmcq_u8, vandq_u8, vdupq_n_u8, veorq_u8, vld1q_u8, vqtbl1q_u8,
    vshrq_n_u8, vst1q_u8,
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

/// Whether the host has the ARMv8 AES instructions, cached.
pub(crate) fn aes_available() -> bool {
    static AES: OnceLock<bool> = OnceLock::new();
    *AES.get_or_init(|| std::arch::is_aarch64_feature_detected!("aes"))
}

/// `out` ← the AES-128 keystream from block `first` on.
pub(crate) fn keystream(aes: &Aes128, nonce: &[u8; 12], first: u32, out: &mut [u8]) {
    assert!(aes_available());
    // SAFETY: the assertion above checked the features at runtime.
    unsafe { keystream_aes(aes, nonce, first, out) }
}

/// Blocks in flight.
const AES_LANES: usize = 8;

#[target_feature(enable = "neon,aes")]
fn keystream_aes(aes: &Aes128, nonce: &[u8; 12], first: u32, out: &mut [u8]) {
    let mut keys = [vdupq_n_u8(0); 11];
    for (v, key) in keys.iter_mut().zip(aes.round_keys()) {
        // SAFETY: a round key is 16 bytes.
        *v = unsafe { vld1q_u8(key.as_ptr()) };
    }
    let mut counter = first;
    for group in out.chunks_mut(AES_LANES * BLOCK) {
        let mut bytes = [[0u8; BLOCK]; AES_LANES];
        let mut s = [vdupq_n_u8(0); AES_LANES];
        for (v, b) in s.iter_mut().zip(&mut bytes) {
            *b = counter_block(nonce, counter);
            counter = counter.wrapping_add(1);
            // SAFETY: a block is 16 bytes.
            *v = unsafe { vld1q_u8(b.as_ptr()) };
        }
        for key in &keys[..9] {
            for v in &mut s {
                *v = vaesmcq_u8(vaeseq_u8(*v, *key));
            }
        }
        for (v, b) in s.iter().zip(&mut bytes) {
            // SAFETY: a block is 16 bytes.
            unsafe { vst1q_u8(b.as_mut_ptr(), veorq_u8(vaeseq_u8(*v, keys[9]), keys[10])) };
        }
        for (chunk, b) in group.chunks_mut(BLOCK).zip(&bytes) {
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }
}
