//! Runtime-dispatched vector kernels for the bulk GF(2⁸) slice ops.
//!
//! The [`slice`](crate::slice) functions are the single hottest loop in
//! the workspace: every byte a ReMICSS session moves passes through
//! them `k − 1` times per share on the way out and once on the way in.
//! This module is the **dispatch layer** over the per-architecture
//! kernels in `crate::arch`. Each backend implements the three
//! one-multiplier ops (a Horner step, a Lagrange step, a scaling);
//! `simd` and `gfni`, whose kernels one generator writes at every
//! width, also implement the two many-operand ops a Shamir symbol is
//! made of — [`eval_into`](Backend::eval_into), all `m` shares from
//! the `k` coefficient planes in one pass, and
//! [`combine_into`](Backend::combine_into), the secret from `k` shares
//! in one — which the other backends answer one output and one operand
//! at a time through their one-multiplier ops. All of it byte-identical:
//!
//! * [`Backend::Scalar`] — two log/exp table hops per byte, the
//!   reference implementation.
//! * [`Backend::Table`] — one 256-entry multiplication-table hop per
//!   byte; the table is the [`MulTable`] the caller passes.
//! * [`Backend::Simd`] — x86-64 split-nibble `pshufb`
//!   (`arch/x86.rs`): 16 (SSSE3) or 32 (AVX2) field products per
//!   shuffle pair.
//! * [`Backend::Neon`] — the same split-nibble algebra on aarch64
//!   `vqtbl1q_u8` (`arch/neon.rs`), 16 bytes per step.
//! * [`Backend::Gfni`] — native GF(2⁸) products via `gf2p8mulb`
//!   (`arch/x86_gfni.rs`), 256-bit with AVX2, else 128-bit; no nibble
//!   tables at all.
//!
//! Dispatch is by **host feature** alone. [`Backend::active`] picks the
//! best available backend once per process (`gfni → simd` on x86-64,
//! `neon` on aarch64, `table` otherwise) and every length goes to it: a
//! vector backend's kernels give a plane shorter than one vector to the
//! table row themselves. `MCSS_GF256_BACKEND`
//! (`scalar` | `table` | `simd` | `neon` | `gfni`) names the backend
//! instead, for testing and benchmarking. Naming an unavailable or
//! unknown one falls back to the best available with a warning on
//! stderr, so a test matrix can set `MCSS_GF256_BACKEND`
//! unconditionally.
//!
//! All per-multiplier state lives in the [`MulTable`] passed in (289
//! bytes of plain `Copy` data; [`MulTable::of`] borrows the one built at
//! compile time for each of the 256 multipliers), so the kernels perform
//! **zero heap allocations** — a property the workspace pins with a
//! counting-allocator test.
//!
//! # Examples
//!
//! ```
//! use mcss_gf256::simd::{Backend, MulTable};
//! use mcss_gf256::Gf256;
//!
//! let t = MulTable::of(Gf256::new(0x53));
//! let mut dst = vec![1u8; 64];
//! let src = vec![0xaau8; 64];
//! // dst[i] ← dst[i]·0x53 ⊕ src[i], on the best backend for this host.
//! Backend::active().scale_add_assign(&mut dst, &src, t);
//! assert_eq!(dst[0], (Gf256::new(1) * Gf256::new(0x53) + Gf256::new(0xaa)).value());
//! ```

use crate::aes::Aes128;
use crate::arch::generic::{scalar, table};
use crate::arch::{xor_assign, MAX_FUSED};
use crate::{Gf256, EXP, LOG};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use crate::arch::{x86 as simd_impl, x86_gfni as gfni_impl};
// On the wrong architecture a directly-constructed vector variant
// (never returned by detection) degrades to the portable table path
// rather than aborting, keeping the enum total without cfg variants.
#[cfg(not(target_arch = "x86_64"))]
use crate::arch::generic::{table as gfni_impl, table as simd_impl};

#[cfg(not(target_arch = "aarch64"))]
use crate::arch::generic::table as neon_impl;
#[cfg(target_arch = "aarch64")]
use crate::arch::neon as neon_impl;

/// Precomputed multiplication tables for one fixed multiplier `x`.
///
/// Holds the full 256-entry row `b ↦ b·x` (used by the table backend
/// and for ragged tails) and the two 16-entry nibble tables
/// `LO[n] = n·x`, `HI[n] = (n << 4)·x` used by the split-nibble
/// shuffle paths (`b·x = LO[b & 0xf] ⊕ HI[b >> 4]`, by linearity of
/// the field over GF(2)). All 256 of them are built at compile time
/// into one read-only array; [`MulTable::of`] borrows the one for `x`,
/// which is what [`slice`](crate::slice) and `mcss_shamir` do on every
/// call. The GFNI backend needs none of this state — the multiplier
/// byte itself is broadcast — but takes the same argument so every
/// backend shares one signature (and the row still serves its
/// sub-16-byte tail).
#[derive(Debug, Clone, Copy)]
pub struct MulTable {
    x: Gf256,
    pub(crate) row: [u8; 256],
    pub(crate) lo: [u8; 16],
    pub(crate) hi: [u8; 16],
}

/// Every multiplier's tables, indexed by the multiplier: 256 × 289 B
/// ≈ 74 KB of `.rodata`, built by the compiler. A `static`, not a
/// `const`, so there is one copy and `of` hands out addresses into it.
static TABLES: [MulTable; 256] = {
    let mut tables = [MulTable::new(Gf256::ZERO); 256];
    let mut x = 1;
    while x < 256 {
        tables[x] = MulTable::new(Gf256::new(x as u8));
        x += 1;
    }
    tables
};

impl MulTable {
    /// The tables for multiplier `x`, borrowed from the compile-time
    /// array: an index, no construction.
    #[inline]
    #[must_use]
    pub fn of(x: Gf256) -> &'static MulTable {
        &TABLES[x.value() as usize]
    }

    /// Builds the tables for multiplier `x` (any value, including 0
    /// and 1) — 255 log/exp hops. This is what fills the compile-time
    /// array behind [`of`](MulTable::of); at run time it is for callers
    /// that want an owned copy (tests that compare against `of`, the
    /// kernel microbenchmarks).
    #[must_use]
    pub const fn new(x: Gf256) -> MulTable {
        let mut row = [0u8; 256];
        match x.value() {
            0 => {}
            1 => {
                let mut b = 0;
                while b < 256 {
                    row[b] = b as u8;
                    b += 1;
                }
            }
            v => {
                let log_x = LOG[v as usize] as usize;
                let mut b = 1;
                while b < 256 {
                    row[b] = EXP[LOG[b] as usize + log_x];
                    b += 1;
                }
            }
        }
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        let mut n = 0;
        while n < 16 {
            lo[n] = row[n];
            hi[n] = row[n << 4];
            n += 1;
        }
        MulTable { x, row, lo, hi }
    }

    /// The multiplier the tables were built for.
    #[inline]
    #[must_use]
    pub fn x(&self) -> Gf256 {
        self.x
    }

    /// Table-driven product `b · x`.
    #[inline]
    #[must_use]
    pub fn mul(&self, b: u8) -> u8 {
        self.row[b as usize]
    }
}

/// One implementation of the bulk GF(2⁸) kernels.
///
/// All backends produce byte-identical results for every input length
/// (pinned by differential property tests); they differ only in speed
/// and portability. [`Backend::active`] returns the process-wide
/// selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Two log/exp lookups per byte — the reference path.
    Scalar,
    /// One 256-entry table lookup per byte.
    Table,
    /// x86-64 split-nibble `pshufb` (AVX2 when available, else SSSE3).
    Simd,
    /// aarch64 split-nibble `vqtbl1q_u8`, 16 bytes per step.
    Neon,
    /// x86-64 GFNI `gf2p8mulb` native field products (256-bit with
    /// AVX2, else 128-bit).
    Gfni,
}

impl Backend {
    /// Every backend, in roughly slowest-first order (portable paths,
    /// then the vector paths by width/generation).
    pub const ALL: [Backend; 5] = [
        Backend::Scalar,
        Backend::Table,
        Backend::Simd,
        Backend::Neon,
        Backend::Gfni,
    ];

    /// The backend's `MCSS_GF256_BACKEND` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Table => "table",
            Backend::Simd => "simd",
            Backend::Neon => "neon",
            Backend::Gfni => "gfni",
        }
    }

    /// Parses an `MCSS_GF256_BACKEND` name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Backend> {
        Backend::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Whether this backend can run on the current host.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar | Backend::Table => true,
            Backend::Simd => simd_available(),
            Backend::Neon => neon_available(),
            Backend::Gfni => gfni_available(),
        }
    }

    /// The process-wide active backend, used at every length: the
    /// `MCSS_GF256_BACKEND` override if set and available, else the
    /// fastest available path. Detected once and cached for the life of
    /// the process.
    #[must_use]
    pub fn active() -> Backend {
        static ACTIVE: OnceLock<Backend> = OnceLock::new();
        *ACTIVE.get_or_init(Backend::detect)
    }

    fn detect() -> Backend {
        let best = [Backend::Gfni, Backend::Simd, Backend::Neon, Backend::Table]
            .into_iter()
            .find(|b| b.is_available())
            .expect("table is always available");
        let Ok(name) = std::env::var("MCSS_GF256_BACKEND") else {
            return best;
        };
        match Backend::from_name(&name) {
            Some(b) if b.is_available() => return b,
            Some(b) => eprintln!(
                "[gf256] MCSS_GF256_BACKEND={} unavailable on this host; using {}",
                b.name(),
                best.name()
            ),
            None => eprintln!(
                "[gf256] unknown MCSS_GF256_BACKEND={name:?} \
                 (expected scalar|table|simd|neon|gfni); using {}",
                best.name()
            ),
        }
        best
    }

    /// `dst[i] ← dst[i] · x ⊕ src[i]` — one Horner step.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn scale_add_assign(self, dst: &mut [u8], src: &[u8], t: &MulTable) {
        assert_eq!(dst.len(), src.len(), "plane lengths must match");
        if t.x.is_zero() {
            dst.copy_from_slice(src);
            return;
        }
        if t.x == Gf256::ONE {
            xor_assign(dst, src);
            return;
        }
        match self {
            Backend::Scalar => scalar::scale_add(dst, src, t),
            Backend::Table => table::scale_add(dst, src, t),
            Backend::Simd => simd_impl::scale_add(dst, src, t),
            Backend::Neon => neon_impl::scale_add(dst, src, t),
            Backend::Gfni => gfni_impl::scale_add(dst, src, t),
        }
    }

    /// `dst[i] ← dst[i] ⊕ src[i] · x` — one Lagrange accumulation step.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn add_scaled_assign(self, dst: &mut [u8], src: &[u8], t: &MulTable) {
        assert_eq!(dst.len(), src.len(), "plane lengths must match");
        if t.x.is_zero() {
            return;
        }
        if t.x == Gf256::ONE {
            xor_assign(dst, src);
            return;
        }
        match self {
            Backend::Scalar => scalar::add_scaled(dst, src, t),
            Backend::Table => table::add_scaled(dst, src, t),
            Backend::Simd => simd_impl::add_scaled(dst, src, t),
            Backend::Neon => neon_impl::add_scaled(dst, src, t),
            Backend::Gfni => gfni_impl::add_scaled(dst, src, t),
        }
    }

    /// `dst[i] ← dst[i] · x` for every `i`.
    pub fn scale_assign(self, dst: &mut [u8], t: &MulTable) {
        if t.x.is_zero() {
            dst.fill(0);
            return;
        }
        if t.x == Gf256::ONE {
            return;
        }
        match self {
            Backend::Scalar => scalar::scale(dst, t),
            Backend::Table => table::scale(dst, t),
            Backend::Simd => simd_impl::scale(dst, t),
            Backend::Neon => neon_impl::scale(dst, t),
            Backend::Gfni => gfni_impl::scale(dst, t),
        }
    }

    /// Evaluates the polynomial whose coefficients are `planes`
    /// (highest first, one polynomial per byte position) at every `x`
    /// of `outs`, overwriting the slice paired with it — all the shares
    /// of a Shamir symbol from its `k` coefficient planes. On the
    /// `simd` and `gfni` backends with at most 8 planes, each chunk of
    /// the planes is loaded once for up to 8 outputs at a time; any
    /// other case runs [`scale_add_assign`](Backend::scale_add_assign)
    /// per output and plane, to the same bytes. With no planes the
    /// polynomial is zero. The outputs' prior contents are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the planes and outputs are not all of one length.
    pub fn eval_into<'a>(
        self,
        outs: impl IntoIterator<Item = (Gf256, &'a mut [u8])>,
        planes: &[&[u8]],
    ) {
        let len = planes.first().map_or(0, |p| p.len());
        for p in planes {
            assert_eq!(p.len(), len, "plane lengths must match");
        }
        let mut batch: [&mut [u8]; MAX_FUSED] = Default::default();
        let mut xs = [Gf256::ZERO; MAX_FUSED];
        let mut n = 0;
        for (x, out) in outs {
            if planes.is_empty() {
                out.fill(0);
                continue;
            }
            assert_eq!(out.len(), len, "plane lengths must match");
            (xs[n], batch[n]) = (x, out);
            n += 1;
            if n == MAX_FUSED {
                self.eval_batch(&mut batch, &xs, planes);
                n = 0;
            }
        }
        if n > 0 {
            self.eval_batch(&mut batch[..n], &xs[..n], planes);
        }
    }

    /// [`eval_into`](Backend::eval_into) for at most [`MAX_FUSED`]
    /// outputs and at least one plane, lengths checked.
    fn eval_batch(self, outs: &mut [&mut [u8]], xs: &[Gf256], planes: &[&[u8]]) {
        // SAFETY: `eval_into` compared every plane's and every output's
        // length, and hands over at most MAX_FUSED outputs.
        let fused = match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Simd => unsafe { simd_impl::eval(outs, xs, planes) },
            #[cfg(target_arch = "x86_64")]
            Backend::Gfni => unsafe { gfni_impl::eval(outs, xs, planes) },
            _ => false,
        };
        if !fused {
            for (out, &x) in outs.iter_mut().zip(xs) {
                out.copy_from_slice(planes[0]);
                for p in &planes[1..] {
                    self.scale_add_assign(out, p, MulTable::of(x));
                }
            }
        }
    }

    /// [`eval_into`](Backend::eval_into) at the one point `t.x()`:
    /// overwrites `acc` with `Σᵢ planes[i] · x^(n−1−i)`, zero without
    /// planes.
    ///
    /// # Panics
    ///
    /// Panics if any plane's length differs from `acc`'s.
    pub fn horner_into(self, acc: &mut [u8], planes: &[&[u8]], t: &MulTable) {
        for p in planes {
            assert_eq!(acc.len(), p.len(), "plane lengths must match");
        }
        if planes.is_empty() {
            acc.fill(0);
        } else {
            self.eval_batch(&mut [acc], &[t.x], planes);
        }
    }

    /// Overwrites `out` with `Σ w · src` over `srcs` (zero without
    /// any) — a Shamir secret from `k` shares and their Lagrange
    /// weights. On the `simd` and `gfni` backends the first 8 sources
    /// are combined in one pass that writes `out` once; sources beyond
    /// them, and every source on the other backends, are added by
    /// [`add_scaled_assign`](Backend::add_scaled_assign), to the same
    /// bytes. `out`'s prior contents are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a source's length differs from `out`'s.
    pub fn combine_into<'a>(
        self,
        out: &mut [u8],
        srcs: impl IntoIterator<Item = (Gf256, &'a [u8])>,
    ) {
        let len = out.len();
        let mut srcs = srcs
            .into_iter()
            .inspect(|(_, s)| assert_eq!(s.len(), len, "plane lengths must match"));
        let mut first = [(Gf256::ZERO, &[][..]); MAX_FUSED];
        let mut n = 0;
        for src in srcs.by_ref().take(MAX_FUSED) {
            first[n] = src;
            n += 1;
        }
        let Some((&(w0, s0), rest)) = first[..n].split_first() else {
            out.fill(0);
            return;
        };
        // SAFETY: every source yielded so far is `out.len()` long.
        let fused = match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Simd => unsafe { simd_impl::combine(out, &first[..n]) },
            #[cfg(target_arch = "x86_64")]
            Backend::Gfni => unsafe { gfni_impl::combine(out, &first[..n]) },
            _ => false,
        };
        if !fused {
            out.copy_from_slice(s0);
            self.scale_assign(out, MulTable::of(w0));
            for &(w, s) in rest {
                self.add_scaled_assign(out, s, MulTable::of(w));
            }
        }
        for (w, s) in srcs {
            self.add_scaled_assign(out, s, MulTable::of(w));
        }
    }

    /// Overwrites `out` with the AES-128 counter-mode keystream under
    /// `aes`: `E(nonce ‖ first)`, `E(nonce ‖ first + 1)`, … (the block
    /// counter big-endian, modulo 2³²), truncated to `out`'s length.
    /// Where the host has the instructions, `simd` runs it on AES-NI,
    /// `gfni` on VAES (AES-NI without), and `neon` on the ARMv8 AES
    /// instructions ([`has_aes`](Backend::has_aes)); every other case
    /// runs the portable constant-time cipher of [`aes`](crate::aes).
    /// The bytes are the same either way.
    pub fn keystream(self, aes: &Aes128, nonce: &[u8; 12], first: u32, out: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        {
            use crate::arch::x86_aes::{self, AesLevel};
            let width = match (self, x86_aes::level()) {
                (Backend::Simd, Some(_)) => Some(AesLevel::Ni),
                (Backend::Gfni, found) => found,
                _ => None,
            };
            if let Some(width) = width {
                return x86_aes::keystream(width, aes, nonce, first, out);
            }
        }
        #[cfg(target_arch = "aarch64")]
        if self == Backend::Neon && crate::arch::neon::aes_available() {
            return crate::arch::neon::keystream(aes, nonce, first, out);
        }
        crate::aes::keystream(aes, nonce, first, out);
    }

    /// Whether [`keystream`](Backend::keystream) runs on AES
    /// instructions on this host, rather than on the portable cipher.
    #[must_use]
    pub fn has_aes(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Simd | Backend::Gfni => crate::arch::x86_aes::level().is_some(),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => crate::arch::neon::aes_available(),
            _ => false,
        }
    }
}

fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::arch::x86::level().is_some()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn gfni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        crate::arch::x86_gfni::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn neon_available() -> bool {
    #[cfg(target_arch = "aarch64")]
    {
        crate::arch::neon::available()
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_table_matches_field_multiplication() {
        for x in [0u8, 1, 2, 3, 0x53, 0x8e, 0xff] {
            let t = MulTable::new(Gf256::new(x));
            for b in 0..=255u8 {
                assert_eq!(
                    t.mul(b),
                    (Gf256::new(b) * Gf256::new(x)).value(),
                    "x={x} b={b}"
                );
            }
            // Nibble decomposition: b·x == LO[b&0xf] ⊕ HI[b>>4].
            for b in 0..=255u8 {
                assert_eq!(
                    t.mul(b),
                    t.lo[(b & 0xf) as usize] ^ t.hi[(b >> 4) as usize],
                    "x={x} b={b}"
                );
            }
        }
    }

    /// The compile-time array holds exactly what `new` builds.
    #[test]
    fn of_equals_new_for_every_multiplier() {
        for x in 0..=255u8 {
            let x = Gf256::new(x);
            let (built, stored) = (MulTable::new(x), MulTable::of(x));
            assert_eq!(stored.x(), x);
            assert_eq!(stored.x(), built.x());
            assert_eq!(stored.row, built.row, "x={x}");
            assert_eq!(stored.lo, built.lo, "x={x}");
            assert_eq!(stored.hi, built.hi, "x={x}");
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        // Unknown names, a retired backend's included, fall back with a
        // warning in `detect` instead of selecting anything.
        assert_eq!(Backend::from_name("avx9000"), None);
        assert_eq!(Backend::from_name("swar"), None);
    }

    #[test]
    fn active_backend_is_available() {
        let active = Backend::active();
        assert!(active.is_available());
        // Detection never settles on the reference; only the
        // environment can name it.
        if std::env::var("MCSS_GF256_BACKEND").is_err() {
            assert_ne!(active, Backend::Scalar);
        }
    }

    #[test]
    fn portable_backends_always_available() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::Table.is_available());
    }

    #[test]
    fn backends_agree_on_fixed_vectors() {
        // Cheap smoke check; the exhaustive differential coverage lives
        // in tests/backend_diff.rs.
        let dst0: Vec<u8> = (0..777).map(|i| (i * 31 + 7) as u8).collect();
        let src: Vec<u8> = (0..777).map(|i| (i * 13 + 1) as u8).collect();
        for x in [0u8, 1, 2, 0x53, 0xff] {
            let t = MulTable::new(Gf256::new(x));
            let mut want = dst0.clone();
            Backend::Scalar.scale_add_assign(&mut want, &src, &t);
            for b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                let mut got = dst0.clone();
                b.scale_add_assign(&mut got, &src, &t);
                assert_eq!(got, want, "backend {} x={x}", b.name());
            }
        }
    }

    #[test]
    fn horner_matches_unfused_steps() {
        let planes: Vec<Vec<u8>> = (0..4)
            .map(|p| (0..333).map(|i| (i * 7 + p * 11 + 3) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = planes.iter().map(Vec::as_slice).collect();
        for x in [0u8, 1, 2, 0x53] {
            let t = MulTable::new(Gf256::new(x));
            let mut want = vec![0u8; 333];
            for p in &refs {
                let mut stepped = want.clone();
                Backend::Scalar.scale_add_assign(&mut stepped, p, &t);
                want = stepped;
            }
            for b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                let mut got = vec![0xeeu8; 333]; // prior contents ignored
                b.horner_into(&mut got, &refs, &t);
                assert_eq!(got, want, "backend {} x={x}", b.name());
            }
        }
    }

    #[test]
    fn horner_empty_planes_zeroes_acc() {
        let t = MulTable::new(Gf256::new(7));
        for b in Backend::ALL {
            if !b.is_available() {
                continue;
            }
            let mut acc = vec![0xffu8; 40];
            b.horner_into(&mut acc, &[], &t);
            assert_eq!(acc, vec![0u8; 40], "backend {}", b.name());
        }
    }
}
