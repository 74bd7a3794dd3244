//! GFNI kernels: `gf2p8mulb` computes GF(2⁸) products **natively**.
//!
//! The Galois Field New Instructions define multiplication in exactly
//! this crate's field — GF(2)[x] mod x⁸ + x⁴ + x³ + x + 1 (0x11B, the
//! AES/Rijndael polynomial) — so one `_mm_gf2p8mul_epi8` against a
//! broadcast multiplier replaces the whole split-nibble dance: no
//! nibble tables, no shuffles, one instruction per 16 or 32 bytes
//! depending on width. (The companion `gf2p8affineqb` applies an
//! arbitrary 8×8 GF(2) bit-matrix — any *fixed*-multiplier product is
//! such a linear map — but since the field polynomial matches, the
//! direct multiply needs no per-multiplier matrix at all.)
//!
//! Width is chosen once per process: 256-bit with AVX2, else the
//! 128-bit SSE form every GFNI host supports. No wider: a width stays
//! when it wins on the five `BENCHMARK.json` workloads in alternated
//! pairs, and the 512-bit one read higher on all of them. This file
//! binds the broadcast at each width; the kernels are `multi_kernels!`
//! output, the 256-bit in-place ones handing what is left of a plane to
//! the 128-bit ones and those the last `< 16` bytes to the table row.

#![cfg(target_arch = "x86_64")]

use crate::arch::generic::table;
use crate::simd::MulTable;
use crate::Gf256;
use core::arch::x86_64::{
    __m128i, __m256i, _mm256_gf2p8mul_epi8, _mm256_loadu_si256, _mm256_set1_epi8,
    _mm256_storeu_si256, _mm256_xor_si256, _mm_gf2p8mul_epi8, _mm_loadu_si128, _mm_set1_epi8,
    _mm_storeu_si128, _mm_xor_si128,
};
use std::sync::OnceLock;

/// The vector width the GFNI backend runs at on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GfniLevel {
    /// SSE encoding, 16 bytes per `gf2p8mulb`.
    G128,
    /// VEX encoding (AVX2 host), 32 bytes.
    G256,
}

/// Detects (once) whether the host has GFNI, and at which width.
/// `None` means `Backend::Gfni` is unavailable.
fn level() -> Option<GfniLevel> {
    static LEVEL: OnceLock<Option<GfniLevel>> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if !is_x86_feature_detected!("gfni") {
            None
        } else if is_x86_feature_detected!("avx2") {
            Some(GfniLevel::G256)
        } else {
            Some(GfniLevel::G128)
        }
    })
}

/// Whether the host supports any GFNI width, cached.
pub(crate) fn available() -> bool {
    level().is_some()
}

/// Calls kernel `$op` at the width [`level`] found.
macro_rules! dispatch {
    ($op:ident($($arg:expr),+)) => {
        match level().expect("Gfni backend requires GFNI") {
            // SAFETY: level() verified the features at runtime.
            GfniLevel::G256 => unsafe { g256::$op($($arg),+) },
            GfniLevel::G128 => unsafe { g128::$op($($arg),+) },
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
    // SAFETY: level() verified the features at runtime, each arm that
    // the operands are one of its vectors long; the lengths' equality
    // is the caller's.
    unsafe {
        match level().expect("Gfni backend requires GFNI") {
            _ if len < 16 => false,
            GfniLevel::G256 if len >= 32 => with_k!(planes => p, g256::eval(outs, xs, p)),
            _ => with_k!(planes => p, g128::eval(outs, xs, p)),
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
        match level().expect("Gfni backend requires GFNI") {
            _ if len < 16 => false,
            GfniLevel::G256 if len >= 32 => with_k!(srcs => s, g256::combine(out, s)),
            _ => with_k!(srcs => s, g128::combine(out, s)),
        }
    }
}

/// The multiplier broadcast to all 16 lanes of a 128-bit vector.
#[inline]
#[target_feature(enable = "gfni")]
fn mult128(x: Gf256, _: &MulTable) -> __m128i {
    _mm_set1_epi8(x.value() as i8)
}

#[inline]
#[target_feature(enable = "avx2")]
fn mult256(x: Gf256, _: &MulTable) -> __m256i {
    _mm256_set1_epi8(x.value() as i8)
}

multi_kernels! {
    mod g128, features: "gfni", width: 16,
    load: _mm_loadu_si128, store: _mm_storeu_si128, xor: _mm_xor_si128,
    mult: mult128, mul: _mm_gf2p8mul_epi8, then: table,
}

multi_kernels! {
    mod g256, features: "gfni,avx2", width: 32,
    load: _mm256_loadu_si256, store: _mm256_storeu_si256, xor: _mm256_xor_si256,
    mult: mult256, mul: _mm256_gf2p8mul_epi8, then: g128,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Backend;

    /// Detection settles on one width per host, so the dispatched tests
    /// never run the `eval` and `combine` kernels of the widths it
    /// passed over: every width this host has, called directly, against
    /// the scalar backend.
    #[test]
    fn many_operand_kernels_agree_at_every_width_the_host_has() {
        if !is_x86_feature_detected!("gfni") {
            eprintln!("[skip] no GFNI on this host");
            return;
        }
        crate::arch::check_widths! { many_operand:
            (16, true, g128),
            (32, is_x86_feature_detected!("avx2"), g256),
        }
    }

    /// Nor the narrower in-place kernels, except on what the widest
    /// leave over.
    #[test]
    fn in_place_kernels_agree_at_every_width_the_host_has() {
        if !is_x86_feature_detected!("gfni") {
            eprintln!("[skip] no GFNI on this host");
            return;
        }
        crate::arch::check_widths! { in_place:
            (16, true, g128),
            (32, is_x86_feature_detected!("avx2"), g256),
        }
    }
}
