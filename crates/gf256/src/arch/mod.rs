//! Per-architecture kernel implementations behind the [`Backend`]
//! dispatch layer in [`crate::simd`].
//!
//! There are five kernels over caller-owned byte slices. Three take one
//! multiplier, as a caller-built [`MulTable`](crate::simd::MulTable),
//! and work in place: `scale_add`, `add_scaled`, `scale`. Two take many
//! operands and write what they do not read: `eval` (`K` coefficient
//! planes in, one Horner evaluation out per abscissa, the planes read
//! once) and `combine` (`out = Σ wᵢ·srcᵢ`, `out` written once). On
//! x86-64 all five come out of one generator, `multi_kernels!`, once per
//! vector width; a module there is intrinsic bindings, invocations and
//! the choice of width. A backend without `eval` and `combine`, and the
//! x86 ones for more than `MAX_FUSED` operands or fewer than 16 bytes,
//! answer both through the one-multiplier kernels, one output and one
//! operand at a time (`Backend::eval_into`, `Backend::combine_into`):
//!
//! * [`generic`] — the portable implementations every target gets:
//!   `scalar` (log/exp reference) and `table` (256-entry row).
//! * [`x86`] — SSSE3/AVX2 split-nibble `pshufb` (16/32 bytes per step).
//! * [`x86_gfni`] — GFNI `gf2p8mulb` native GF(2⁸) products, 256-bit
//!   with AVX2, else 128-bit.
//! * [`neon`] — aarch64 `vqtbl1q_u8` split-nibble (16 bytes per step),
//!   the three one-multiplier kernels written out, and the ARMv8 AES
//!   keystream.
//! * [`x86_aes`] — the AES-128 counter-mode keystream on AES-NI and
//!   VAES, one kernel body at both widths (`Backend::keystream`; the
//!   portable cipher is [`crate::aes`]).
//!
//! Every kernel is total over all lengths and alignments: loads and
//! stores are unaligned, an in-place kernel hands the bytes past its
//! last whole vector to the next narrower one and the last of them to
//! the 256-entry table row, and the many-operand kernels, which do not
//! read what they write, finish on one last overlapping vector; so
//! byte-identity across backends holds for length 0 upward (pinned by
//! `tests/backend_diff.rs`). Modules for other architectures still
//! compile everywhere; on the wrong target their entry points degrade
//! to the portable table path so the [`Backend`](crate::simd::Backend)
//! enum stays total without `cfg`-dependent variants.

/// Operands a many-operand kernel holds in registers at once: the
/// coefficient planes of `eval`, the sources of `combine` (the kernels
/// are monomorphised on `1..=MAX_FUSED`, the protocol's range of `k`),
/// and the outputs of one `eval` call.
pub(crate) const MAX_FUSED: usize = 8;

/// Generates module `$name`: the five kernels at one vector width.
/// `$mult` turns a multiplier into whatever `$mul` wants beside the
/// vector; it is handed the multiplier both ways, as the field element
/// and as its table, and reads the one it needs (`gf2p8mulb` a
/// broadcast of the element, `pshufb` the table's two nibble rows), so
/// that neither pays a load to get from one to the other.
///
/// An in-place kernel runs over the whole vectors of its operands and
/// hands the rest, less than one vector, to the same kernel of module
/// `$then`: the next narrower width, whose features this one's include,
/// or `generic::table`, where every chain ends.
///
/// `eval` and `combine` do not read what they write, so bytes past the
/// last whole vector need no narrower kernel: the last step is one more
/// whole vector, ending where the operands end and rewriting, to the
/// same values, some bytes the step before it wrote. The operands must
/// therefore be at least one vector long; a module's entry point picks
/// the widest kernel they are, and has none for fewer than 16 bytes.
#[cfg(target_arch = "x86_64")]
macro_rules! multi_kernels {
    (
        mod $name:ident, features: $feat:literal, width: $w:literal,
        load: $load:ident, store: $store:ident, xor: $xor:ident,
        mult: $mult:ident, mul: $mul:ident, then: $then:ident $(,)?
    ) => {
        mod $name {
            use super::*;

            /// Overwrites each `outs[j]` with the Horner evaluation of
            /// `planes`, highest coefficient first, at `xs[j]`.
            ///
            /// # Safety
            ///
            /// Requires the CPU features named on the function; every
            /// plane and every output has the same length, at least one
            /// vector.
            #[target_feature(enable = $feat)]
            #[allow(clippy::needless_range_loop)] // iterator adaptors do not inline here
            pub(super) unsafe fn eval<const K: usize>(
                outs: &mut [&mut [u8]],
                xs: &[Gf256],
                planes: &[&[u8]; K],
            ) {
                let n = outs.len().min(xs.len());
                let len = planes[0].len();
                debug_assert!(len >= $w);
                let mut i = 0;
                while i < len {
                    // The last vector ends with the planes.
                    i = i.min(len - $w);
                    // SAFETY: i + width ≤ len, the length of every plane
                    // and every output.
                    unsafe {
                        let mut p = [$load(planes[0].as_ptr().add(i).cast()); K];
                        for c in 1..K {
                            p[c] = $load(planes[c].as_ptr().add(i).cast());
                        }
                        for j in 0..n {
                            let m = $mult(xs[j], MulTable::of(xs[j]));
                            let mut a = p[0];
                            for c in 1..K {
                                a = $xor($mul(a, m), p[c]);
                            }
                            $store(outs[j].as_mut_ptr().add(i).cast(), a);
                        }
                    }
                    i += $w;
                }
            }

            /// Overwrites `out` with `Σ w·src` over `srcs`.
            ///
            /// # Safety
            ///
            /// Requires the CPU features named on the function; every
            /// source is as long as `out`, at least one vector.
            #[target_feature(enable = $feat)]
            #[allow(clippy::needless_range_loop)]
            pub(super) unsafe fn combine<const K: usize>(
                out: &mut [u8],
                srcs: &[(Gf256, &[u8]); K],
            ) {
                let len = out.len();
                debug_assert!(len >= $w);
                let mut ws = [$mult(srcs[0].0, MulTable::of(srcs[0].0)); K];
                for c in 1..K {
                    ws[c] = $mult(srcs[c].0, MulTable::of(srcs[c].0));
                }
                let mut i = 0;
                while i < len {
                    i = i.min(len - $w);
                    // SAFETY: i + width ≤ len, the length of `out` and
                    // of every source.
                    unsafe {
                        let mut a = $mul($load(srcs[0].1.as_ptr().add(i).cast()), ws[0]);
                        for c in 1..K {
                            a = $xor(a, $mul($load(srcs[c].1.as_ptr().add(i).cast()), ws[c]));
                        }
                        $store(out.as_mut_ptr().add(i).cast(), a);
                    }
                    i += $w;
                }
            }

            /// `dst ← dst·x ⊕ src`, one Horner step.
            #[inline]
            #[target_feature(enable = $feat)]
            pub(super) fn scale_add(dst: &mut [u8], src: &[u8], t: &MulTable) {
                assert_eq!(dst.len(), src.len(), "plane lengths must match");
                let m = $mult(t.x(), t);
                let whole = dst.len() & !($w - 1);
                let mut i = 0;
                while i < whole {
                    // SAFETY: i + width ≤ whole ≤ dst.len() = src.len().
                    unsafe {
                        let d = $load(dst.as_ptr().add(i).cast());
                        let s = $load(src.as_ptr().add(i).cast());
                        $store(dst.as_mut_ptr().add(i).cast(), $xor($mul(d, m), s));
                    }
                    i += $w;
                }
                $then::scale_add(&mut dst[whole..], &src[whole..], t)
            }

            /// `dst ← dst ⊕ src·x`, one Lagrange step.
            #[inline]
            #[target_feature(enable = $feat)]
            pub(super) fn add_scaled(dst: &mut [u8], src: &[u8], t: &MulTable) {
                assert_eq!(dst.len(), src.len(), "plane lengths must match");
                let m = $mult(t.x(), t);
                let whole = dst.len() & !($w - 1);
                let mut i = 0;
                while i < whole {
                    // SAFETY: i + width ≤ whole ≤ dst.len() = src.len().
                    unsafe {
                        let d = $load(dst.as_ptr().add(i).cast());
                        let s = $load(src.as_ptr().add(i).cast());
                        $store(dst.as_mut_ptr().add(i).cast(), $xor(d, $mul(s, m)));
                    }
                    i += $w;
                }
                $then::add_scaled(&mut dst[whole..], &src[whole..], t)
            }

            /// `dst ← dst·x`.
            #[inline]
            #[target_feature(enable = $feat)]
            pub(super) fn scale(dst: &mut [u8], t: &MulTable) {
                let m = $mult(t.x(), t);
                let whole = dst.len() & !($w - 1);
                let mut i = 0;
                while i < whole {
                    // SAFETY: i + width ≤ whole ≤ dst.len().
                    unsafe {
                        let d = $load(dst.as_ptr().add(i).cast());
                        $store(dst.as_mut_ptr().add(i).cast(), $mul(d, m));
                    }
                    i += $w;
                }
                $then::scale(&mut dst[whole..], t)
            }
        }
    };
}

/// Runs `$call` with `$p` bound to `$operands` as an array of its own
/// length, which picks the kernel's `K`, for the operand counts
/// `1..=MAX_FUSED` the kernels exist for; whether it was one of them.
#[cfg(target_arch = "x86_64")]
macro_rules! with_k {
    ($operands:expr => $p:ident, $call:expr) => {
        with_k!(@arms $operands => $p, $call; 1 2 3 4 5 6 7 8)
    };
    (@arms $operands:expr => $p:ident, $call:expr; $($k:literal)*) => {
        match $operands.len() {
            $($k => {
                let $p: &[_; $k] = $operands.try_into().expect("the length matched");
                $call;
                true
            })*
            _ => false,
        }
    };
}

/// Test bodies shared by the x86 kernel modules: call the kernels of
/// each listed `(width, detected, module)` the host has, directly, and
/// compare with the scalar backend's one-operand ops. `many_operand`:
/// `eval` and `combine` at lengths from one vector up (whole vectors,
/// ragged ends) for every `K` and three outputs. `in_place`: the other
/// three at every length up to two vectors and a ragged end, so that
/// each hand-off is seen with nothing and with something left, and at
/// the multipliers 0 and 1 too, which `Backend` answers without a
/// kernel.
#[cfg(all(test, target_arch = "x86_64"))]
macro_rules! check_widths {
    (many_operand: $(($w:literal, $detected:expr, $m:ident)),* $(,)?) => {$(
        if $detected {
            for len in [$w, $w + 1, 2 * $w - 1, 2 * $w, 3 * $w + 5, 1250] {
                let bufs: Vec<Vec<u8>> = (0..$crate::arch::MAX_FUSED)
                    .map(|c| (0..len).map(|i| (i * 37 + c * 101 + 11) as u8).collect())
                    .collect();
                let all: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
                let xs = [1u8, 0x53, 0].map(Gf256::new);
                for k in 1..=$crate::arch::MAX_FUSED {
                    let planes = &all[..k];
                    let mut got = vec![vec![0xa5u8; len]; xs.len()];
                    let mut outs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                    // SAFETY: the features were detected; every buffer
                    // is `len ≥ width` bytes.
                    assert!(unsafe { with_k!(planes => p, $m::eval(&mut outs, &xs, p)) });
                    for (got, x) in got.iter().zip(xs) {
                        let mut want = vec![0u8; len];
                        Backend::Scalar.horner_into(&mut want, planes, MulTable::of(x));
                        assert_eq!(got, &want, "eval width {} len={len} k={k} x={x}", $w);
                    }
                    let srcs: Vec<(Gf256, &[u8])> =
                        planes.iter().zip(1..).map(|(&s, w)| (Gf256::new(w), s)).collect();
                    let srcs = &srcs[..];
                    let (mut got, mut want) = (vec![0xa5u8; len], vec![0u8; len]);
                    // SAFETY: as above.
                    assert!(unsafe { with_k!(srcs => s, $m::combine(&mut got, s)) });
                    for &(w, s) in srcs {
                        Backend::Scalar.add_scaled_assign(&mut want, s, MulTable::of(w));
                    }
                    assert_eq!(got, want, "combine width {} len={len} k={k}", $w);
                }
            }
        } else {
            eprintln!("[skip] no {}-byte vectors on this host", $w);
        }
    )*};
    (in_place: $(($w:literal, $detected:expr, $m:ident)),* $(,)?) => {$(
        if $detected {
            for len in 0..=2 * $w + 17 {
                let dst0: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                let src: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
                for x in [0u8, 1, 0x53] {
                    let t = MulTable::of(Gf256::new(x));
                    let mut want = dst0.clone();
                    Backend::Scalar.scale_add_assign(&mut want, &src, t);
                    let mut got = dst0.clone();
                    // SAFETY: the features were detected.
                    unsafe { $m::scale_add(&mut got, &src, t) };
                    assert_eq!(got, want, "scale_add width {} len={len} x={x}", $w);
                    let mut want = dst0.clone();
                    Backend::Scalar.add_scaled_assign(&mut want, &src, t);
                    let mut got = dst0.clone();
                    // SAFETY: as above.
                    unsafe { $m::add_scaled(&mut got, &src, t) };
                    assert_eq!(got, want, "add_scaled width {} len={len} x={x}", $w);
                    let mut want = dst0.clone();
                    Backend::Scalar.scale_assign(&mut want, t);
                    let mut got = dst0.clone();
                    // SAFETY: as above.
                    unsafe { $m::scale(&mut got, t) };
                    assert_eq!(got, want, "scale width {} len={len} x={x}", $w);
                }
            }
        } else {
            eprintln!("[skip] no {}-byte vectors on this host", $w);
        }
    )*};
}
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) use check_widths;

pub(crate) mod generic;
pub(crate) mod neon;
pub(crate) mod x86;
pub(crate) mod x86_aes;
pub(crate) mod x86_gfni;

/// Shared `x = 1` path: `dst ^= src`, the XOR codec's whole
/// reconstruct. The plain loop on every target: it is memory-safe at
/// any lengths and auto-vectorises to the build's baseline width, and
/// a CPUID-dispatched wider one won on no workload of the benchmark.
#[inline]
pub(crate) fn xor_assign(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Three-operand fused XOR: `dst[i] = a[i] ^ b[i]`, one pass instead of
/// copy-then-`xor_assign` — the XOR codec's split loop.
#[inline]
pub(crate) fn xor_into(dst: &mut [u8], a: &[u8], b: &[u8]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x ^ y;
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
