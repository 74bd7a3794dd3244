//! Bulk field operations on byte slices.
//!
//! Shamir sharing of packet-sized secrets evaluates one polynomial per
//! byte. Doing that byte-by-byte walks the log/exp tables with a data
//! dependency per step; the slice forms here process whole coefficient
//! *planes* at once (all bytes' i-th coefficients together).
//! [`mcss_shamir`](https://docs.rs/mcss-shamir) evaluates all the
//! shares of a symbol from its planes in one [`eval_into`] and rebuilds
//! the secret from `k` shares in one [`combine_into`]; the
//! one-multiplier steps they are made of ([`scale_add_assign`],
//! [`add_scaled_assign`], [`scale_assign`]) are here too.
//!
//! Every multiplying op borrows the multiplier's compile-time
//! [`MulTable`] ([`MulTable::of`], an index) and goes to
//! [`Backend::active`] at every length — the runtime-detected vector
//! path (GFNI / `pshufb` on x86_64, NEON on aarch64; see
//! [`crate::simd`]), or the one `MCSS_GF256_BACKEND` names.

use crate::arch;
use crate::simd::{Backend, MulTable};
use crate::Gf256;

/// `dst[i] ← dst[i] · x  ⊕  src[i]` for every `i` — one Horner step over
/// a coefficient plane.
///
/// With `x = 0` this reduces to copying `src` into `dst`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use mcss_gf256::{slice, Gf256};
///
/// let mut acc = [0x02, 0x03];
/// slice::scale_add_assign(&mut acc, &[0x01, 0x00], Gf256::new(2));
/// assert_eq!(acc, [0x04 ^ 0x01, 0x06]);
/// ```
pub fn scale_add_assign(dst: &mut [u8], src: &[u8], x: Gf256) {
    Backend::active().scale_add_assign(dst, src, MulTable::of(x));
}

/// `dst[i] ← dst[i] ⊕ src[i] · x` for every `i` — the accumulation step
/// of Lagrange reconstruction.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use mcss_gf256::{slice, Gf256};
///
/// let mut acc = [0x01u8, 0x00];
/// slice::add_scaled_assign(&mut acc, &[0x02, 0x02], Gf256::new(3));
/// assert_eq!(acc, [0x01 ^ 0x06, 0x06]);
/// ```
pub fn add_scaled_assign(dst: &mut [u8], src: &[u8], x: Gf256) {
    Backend::active().add_scaled_assign(dst, src, MulTable::of(x));
}

/// `dst[i] ← a[i] ⊕ b[i]` for every `i` — fused GF(2⁸) addition of two
/// planes into a third: one pass of the plain auto-vectorised loop
/// instead of copy-then-[`add_scaled_assign`] with [`Gf256::ONE`]; the
/// XOR codec's encode is built from this.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use mcss_gf256::slice;
///
/// let mut dst = [0u8; 2];
/// slice::xor_into(&mut dst, &[0x0f, 0xf0], &[0x01, 0x10]);
/// assert_eq!(dst, [0x0e, 0xe0]);
/// ```
pub fn xor_into(dst: &mut [u8], a: &[u8], b: &[u8]) {
    assert_eq!(dst.len(), a.len(), "plane lengths must match");
    assert_eq!(dst.len(), b.len(), "plane lengths must match");
    arch::xor_into(dst, a, b);
}

/// Multiplies every byte in place by the scalar `x`.
///
/// # Examples
///
/// ```
/// use mcss_gf256::{slice, Gf256};
///
/// let mut v = [1u8, 2, 4];
/// slice::scale_assign(&mut v, Gf256::new(2));
/// assert_eq!(v, [2, 4, 8]);
/// ```
pub fn scale_assign(dst: &mut [u8], x: Gf256) {
    Backend::active().scale_assign(dst, MulTable::of(x));
}

/// Evaluates the polynomial whose coefficients are `planes` (highest
/// first, one polynomial per byte position) at every `x` of `outs`,
/// overwriting the slice paired with it: every share of a Shamir symbol
/// from one pass over its coefficient planes. Equivalent to one
/// [`horner_into`] per output. The outputs' prior contents are ignored.
///
/// # Panics
///
/// Panics if the planes and outputs are not all of one length.
///
/// # Examples
///
/// ```
/// use mcss_gf256::{slice, Gf256};
///
/// // p(y) = 2·y + 3 at y = 1 and y = 4, per byte.
/// let (mut at1, mut at4) = ([0u8; 2], [0u8; 2]);
/// let outs = [(Gf256::new(1), &mut at1[..]), (Gf256::new(4), &mut at4[..])];
/// slice::eval_into(outs, &[&[2, 2], &[3, 3]]);
/// assert_eq!(at1, [2 ^ 3, 2 ^ 3]);
/// let want = (Gf256::new(2) * Gf256::new(4) + Gf256::new(3)).value();
/// assert_eq!(at4, [want, want]);
/// ```
pub fn eval_into<'a>(outs: impl IntoIterator<Item = (Gf256, &'a mut [u8])>, planes: &[&[u8]]) {
    Backend::active().eval_into(outs, planes);
}

/// [`eval_into`] at one point: overwrites `acc` with
/// `Σᵢ planes[i] · x^(n−1−i)` (planes ordered highest coefficient
/// first) — what zeroing `acc` and calling [`scale_add_assign`] once
/// per plane leaves in it. `acc`'s prior contents are ignored.
///
/// # Panics
///
/// Panics if any plane's length differs from `acc`'s.
///
/// # Examples
///
/// ```
/// use mcss_gf256::{slice, Gf256};
///
/// // p(y) = 2·y + 3 at y = 4, per byte.
/// let mut acc = [0u8; 2];
/// slice::horner_into(&mut acc, &[&[2, 2], &[3, 3]], Gf256::new(4));
/// let want = (Gf256::new(2) * Gf256::new(4) + Gf256::new(3)).value();
/// assert_eq!(acc, [want, want]);
/// ```
pub fn horner_into(acc: &mut [u8], planes: &[&[u8]], x: Gf256) {
    Backend::active().horner_into(acc, planes, MulTable::of(x));
}

/// Overwrites `out` with `Σ w · src` over `srcs`: a Shamir secret from
/// `k` shares and their Lagrange weights, `out` written once.
/// Equivalent to zeroing `out` and calling [`add_scaled_assign`] once
/// per source. `out`'s prior contents are ignored.
///
/// # Panics
///
/// Panics if a source's length differs from `out`'s.
///
/// # Examples
///
/// ```
/// use mcss_gf256::{slice, Gf256};
///
/// let mut out = [0xffu8; 2];
/// slice::combine_into(&mut out, [(Gf256::new(2), &[1, 2][..]), (Gf256::new(3), &[1, 0][..])]);
/// assert_eq!(out, [2 ^ 3, 4]);
/// ```
pub fn combine_into<'a>(out: &mut [u8], srcs: impl IntoIterator<Item = (Gf256, &'a [u8])>) {
    Backend::active().combine_into(out, srcs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scale_add_matches_scalar_ops() {
        let dst0 = [0u8, 1, 2, 0xff, 0x80];
        let src = [9u8, 0, 0xaa, 1, 0x7f];
        for x in [0u8, 1, 2, 3, 0x53, 0xff] {
            let x = Gf256::new(x);
            let mut dst = dst0;
            scale_add_assign(&mut dst, &src, x);
            for i in 0..dst0.len() {
                let want = Gf256::new(dst0[i]) * x + Gf256::new(src[i]);
                assert_eq!(dst[i], want.value(), "x={x} i={i}");
            }
        }
    }

    #[test]
    fn add_scaled_matches_scalar_ops() {
        let dst0 = [0u8, 1, 2, 0xff, 0x80];
        let src = [9u8, 0, 0xaa, 1, 0x7f];
        for x in [0u8, 1, 2, 3, 0x53, 0xff] {
            let x = Gf256::new(x);
            let mut dst = dst0;
            add_scaled_assign(&mut dst, &src, x);
            for i in 0..dst0.len() {
                let want = Gf256::new(dst0[i]) + Gf256::new(src[i]) * x;
                assert_eq!(dst[i], want.value(), "x={x} i={i}");
            }
        }
    }

    #[test]
    fn scale_assign_matches_scalar_ops() {
        let v0 = [0u8, 1, 2, 0xff, 0x80];
        for x in [0u8, 1, 2, 0x53, 0xff] {
            let x = Gf256::new(x);
            let mut v = v0;
            scale_assign(&mut v, x);
            for i in 0..v0.len() {
                assert_eq!(v[i], (Gf256::new(v0[i]) * x).value(), "x={x} i={i}");
            }
        }
    }

    #[test]
    fn dispatched_path_matches_scalar_path() {
        // Every length dispatches, so every short length (empty, below
        // and across each vector width, ragged tails) and one long
        // ragged plane must agree with the scalar reference backend.
        for len in (0..=130).chain([549]) {
            let dst0: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let src: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            for x in [0u8, 1, 2, 0x53, 0xff] {
                let x = Gf256::new(x);
                let t = MulTable::of(x);
                let (mut got, mut want) = (dst0.clone(), dst0.clone());
                scale_add_assign(&mut got, &src, x);
                Backend::Scalar.scale_add_assign(&mut want, &src, t);
                assert_eq!(got, want, "scale_add len={len} x={x}");
                add_scaled_assign(&mut got, &src, x);
                Backend::Scalar.add_scaled_assign(&mut want, &src, t);
                assert_eq!(got, want, "add_scaled len={len} x={x}");
                scale_assign(&mut got, x);
                Backend::Scalar.scale_assign(&mut want, t);
                assert_eq!(got, want, "scale len={len} x={x}");
                horner_into(&mut got, &[&dst0, &src], x);
                Backend::Scalar.horner_into(&mut want, &[&dst0, &src], t);
                assert_eq!(got, want, "horner len={len} x={x}");
            }
        }
    }

    #[test]
    fn horner_into_matches_per_plane_steps() {
        for len in [0usize, 5, 130, 1000] {
            let planes: Vec<Vec<u8>> = (0..3)
                .map(|p| (0..len).map(|i| (i * 11 + p * 29 + 1) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = planes.iter().map(Vec::as_slice).collect();
            for x in [0u8, 1, 5, 0x9d] {
                let x = Gf256::new(x);
                let mut want = vec![0u8; len];
                for p in &refs {
                    scale_add_assign(&mut want, p, x);
                }
                let mut got = vec![0x77u8; len];
                horner_into(&mut got, &refs, x);
                assert_eq!(got, want, "len={len} x={x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "plane lengths")]
    fn mismatched_lengths_panic() {
        let mut d = [0u8; 2];
        scale_add_assign(&mut d, &[0u8; 3], Gf256::ONE);
    }

    proptest! {
        #[test]
        fn horner_over_planes_equals_pointwise_eval(
            planes in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 8), 1..6),
            x in any::<u8>(),
        ) {
            // Evaluate, for every byte position b, the polynomial whose
            // coefficients are planes[*][b] at the point x — once with
            // the slice Horner, once with Poly::eval.
            let x = Gf256::new(x);
            let len = planes[0].len();
            let mut acc = vec![0u8; len];
            for plane in planes.iter().rev() {
                scale_add_assign(&mut acc, plane, x);
            }
            let refs: Vec<&[u8]> = planes.iter().rev().map(Vec::as_slice).collect();
            let mut fused = vec![0u8; len];
            horner_into(&mut fused, &refs, x);
            prop_assert_eq!(&fused, &acc);
            for b in 0..len {
                let coeffs: Vec<Gf256> =
                    planes.iter().map(|p| Gf256::new(p[b])).collect();
                let poly = crate::Poly::new(coeffs);
                prop_assert_eq!(acc[b], poly.eval(x).value());
            }
        }

        #[test]
        fn add_scaled_linearity(
            a in proptest::collection::vec(any::<u8>(), 16),
            b in proptest::collection::vec(any::<u8>(), 16),
            x in any::<u8>(),
        ) {
            // acc ⊕ b·x computed bulk equals scalar fold.
            let x = Gf256::new(x);
            let mut acc = a.clone();
            add_scaled_assign(&mut acc, &b, x);
            for i in 0..16 {
                let want = Gf256::new(a[i]) + Gf256::new(b[i]) * x;
                prop_assert_eq!(acc[i], want.value());
            }
        }
    }
}
