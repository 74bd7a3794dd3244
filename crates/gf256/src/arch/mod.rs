//! Per-architecture kernel implementations behind the [`Backend`]
//! dispatch layer in [`crate::simd`].
//!
//! Each submodule implements the same four-kernel contract —
//! `scale_add`, `add_scaled`, `scale`, and the fused multi-plane
//! `horner` — over caller-owned byte slices and a caller-built
//! [`MulTable`](crate::simd::MulTable):
//!
//! * [`generic`] — the portable implementations every target gets:
//!   `scalar` (log/exp reference) and `table` (256-entry row).
//! * [`x86`] — SSSE3/AVX2 split-nibble `pshufb` (16/32 bytes per step).
//! * [`x86_avx512`] — AVX-512 VBMI `vpermb` split-nibble (64 bytes per
//!   step, SSSE3 mid-tail).
//! * [`x86_gfni`] — GFNI `gf2p8mulb` native GF(2⁸) products at 128-,
//!   256-, or 512-bit width, whichever the host offers.
//! * [`neon`] — aarch64 `vqtbl1q_u8` split-nibble (16 bytes per step).
//!
//! Every kernel is total over all lengths and alignments: vector main
//! loops use unaligned loads/stores and finish ragged tails on the
//! 256-entry table row, so byte-identity across backends holds for
//! length 0 upward (pinned by `tests/backend_diff.rs`). Modules for
//! other architectures still compile everywhere; on the wrong target
//! their entry points degrade to the portable table path so the
//! [`Backend`](crate::simd::Backend) enum stays total without
//! `cfg`-dependent variants.

pub(crate) mod generic;
pub(crate) mod neon;
pub(crate) mod x86;
pub(crate) mod x86_avx512;
pub(crate) mod x86_gfni;

/// Shared `x = 1` path: `dst ^= src` at the widest vector width the
/// host offers. The baseline build only auto-vectorizes the byte loop
/// to 16-byte SSE2, so on AVX hosts a runtime-dispatched wide loop is
/// 2–4× faster — which matters to the XOR codec, whose whole encode is
/// this operation.
#[inline]
pub(crate) fn xor_assign(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    match xor_x86::width() {
        xor_x86::Width::V512 => {
            // SAFETY: width() verified AVX-512F at runtime.
            unsafe { xor_x86::xor_assign_512(dst, src) }
        }
        xor_x86::Width::V256 => {
            // SAFETY: width() verified AVX2 at runtime.
            unsafe { xor_x86::xor_assign_256(dst, src) }
        }
        xor_x86::Width::Scalar => xor_assign_scalar(dst, src),
    }
    #[cfg(not(target_arch = "x86_64"))]
    xor_assign_scalar(dst, src)
}

/// Three-operand fused XOR: `dst[i] = a[i] ^ b[i]`. The slices must not
/// alias (enforced by `&mut` for `dst`; `a`/`b` may alias each other).
/// One pass instead of copy-then-`xor_assign` — the XOR codec's split
/// hot loop.
#[inline]
pub(crate) fn xor_into(dst: &mut [u8], a: &[u8], b: &[u8]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    match xor_x86::width() {
        xor_x86::Width::V512 => {
            // SAFETY: width() verified AVX-512F at runtime.
            unsafe { xor_x86::xor_into_512(dst, a, b) }
        }
        xor_x86::Width::V256 => {
            // SAFETY: width() verified AVX2 at runtime.
            unsafe { xor_x86::xor_into_256(dst, a, b) }
        }
        xor_x86::Width::Scalar => xor_into_scalar(dst, a, b),
    }
    #[cfg(not(target_arch = "x86_64"))]
    xor_into_scalar(dst, a, b)
}

/// Portable fallback (and non-x86 main path, where the plain loop
/// auto-vectorizes to the target's native width, e.g. NEON).
#[inline]
fn xor_assign_scalar(dst: &mut [u8], src: &[u8]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

#[inline]
fn xor_into_scalar(dst: &mut [u8], a: &[u8], b: &[u8]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x ^ y;
    }
}

/// Runtime-dispatched wide XOR loops for x86-64, following the same
/// probe-once pattern as the multiply kernels. Pure XOR is bit-exact at
/// every width, so unlike the multiply backends there is no forced-leg
/// or byte-identity concern here.
#[cfg(target_arch = "x86_64")]
mod xor_x86 {
    use core::arch::x86_64::{
        __m256i, __m512i, _mm256_loadu_si256, _mm256_storeu_si256, _mm256_xor_si256,
        _mm512_loadu_si512, _mm512_storeu_si512, _mm512_xor_si512,
    };
    use std::sync::OnceLock;

    #[derive(Clone, Copy, Debug)]
    pub(super) enum Width {
        V512,
        V256,
        Scalar,
    }

    /// Widest XOR the host supports, probed once.
    pub(super) fn width() -> Width {
        static WIDTH: OnceLock<Width> = OnceLock::new();
        *WIDTH.get_or_init(|| {
            if is_x86_feature_detected!("avx512f") {
                Width::V512
            } else if is_x86_feature_detected!("avx2") {
                Width::V256
            } else {
                Width::Scalar
            }
        })
    }

    /// Sub-vector tail shared by every width: `u64` chunks, then bytes.
    #[inline]
    fn tail_into(dst: &mut [u8], a: &[u8], b: &[u8], mut i: usize) {
        let n = dst.len();
        while i + 8 <= n {
            let x = u64::from_ne_bytes(a[i..i + 8].try_into().expect("8 bytes"));
            let y = u64::from_ne_bytes(b[i..i + 8].try_into().expect("8 bytes"));
            dst[i..i + 8].copy_from_slice(&(x ^ y).to_ne_bytes());
            i += 8;
        }
        while i < n {
            dst[i] = a[i] ^ b[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn xor_into_512(dst: &mut [u8], a: &[u8], b: &[u8]) {
        let n = dst.len();
        let mut i = 0;
        while i + 64 <= n {
            // SAFETY: i + 64 <= n and all slices have length n.
            unsafe {
                let x: __m512i = _mm512_loadu_si512(a.as_ptr().add(i).cast());
                let y: __m512i = _mm512_loadu_si512(b.as_ptr().add(i).cast());
                _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), _mm512_xor_si512(x, y));
            }
            i += 64;
        }
        tail_into(dst, a, b, i);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_into_256(dst: &mut [u8], a: &[u8], b: &[u8]) {
        let n = dst.len();
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: i + 32 <= n and all slices have length n.
            unsafe {
                let x: __m256i = _mm256_loadu_si256(a.as_ptr().add(i).cast());
                let y: __m256i = _mm256_loadu_si256(b.as_ptr().add(i).cast());
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(x, y));
            }
            i += 32;
        }
        tail_into(dst, a, b, i);
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn xor_assign_512(dst: &mut [u8], src: &[u8]) {
        let n = dst.len();
        let mut i = 0;
        while i + 64 <= n {
            // SAFETY: i + 64 <= n and both slices have length n.
            unsafe {
                let d: __m512i = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
                let s: __m512i = _mm512_loadu_si512(src.as_ptr().add(i).cast());
                _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), _mm512_xor_si512(d, s));
            }
            i += 64;
        }
        tail_assign(dst, src, i);
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_assign_256(dst: &mut [u8], src: &[u8]) {
        let n = dst.len();
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: i + 32 <= n and both slices have length n.
            unsafe {
                let d: __m256i = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                let s: __m256i = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, s));
            }
            i += 32;
        }
        tail_assign(dst, src, i);
    }

    #[inline]
    fn tail_assign(dst: &mut [u8], src: &[u8], mut i: usize) {
        let n = dst.len();
        while i + 8 <= n {
            let d = u64::from_ne_bytes(dst[i..i + 8].try_into().expect("8 bytes"));
            let s = u64::from_ne_bytes(src[i..i + 8].try_into().expect("8 bytes"));
            dst[i..i + 8].copy_from_slice(&(d ^ s).to_ne_bytes());
            i += 8;
        }
        while i < n {
            dst[i] ^= src[i];
            i += 1;
        }
    }
}

#[cfg(test)]
mod xor_tests {
    use super::{xor_assign, xor_into};

    #[test]
    fn xor_matches_reference_at_every_ragged_length() {
        for n in 0..300usize {
            let a: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();
            let b: Vec<u8> = (0..n).map(|i| (i * 13 + 5) as u8).collect();
            let want: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
            let mut dst = vec![0xEEu8; n];
            xor_into(&mut dst, &a, &b);
            assert_eq!(dst, want, "xor_into at n={n}");
            let mut acc = a.clone();
            xor_assign(&mut acc, &b);
            assert_eq!(acc, want, "xor_assign at n={n}");
        }
    }
}
