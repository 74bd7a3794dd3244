//! XOR/2D-layered share codec.
//!
//! A replication-based XOR scheme in the spirit of Chan & Chou's
//! *Two-Dimensional XOR-Based Secret Sharing for Layered Multipath
//! Communication*: the secret is cut into `k` equal fragments, every
//! fragment is masked with one shared random pad, and the `k + 1`
//! resulting *pieces* (masked fragments plus the pad itself) are
//! replicated across the `m` shares in a two-dimensional layout —
//! piece index along one axis, replica slot along the other. Encoding
//! is one RNG fill of `len/k` bytes plus memcpy/XOR passes; there is
//! no field arithmetic beyond XOR (`GF(2⁸)` addition), which rides the
//! same vectorized slice kernels as the Shamir hot path.
//!
//! # Layout
//!
//! For a secret of `len` bytes split `k`-of-`m` (`k ≥ 2`):
//!
//! * fragment length `L = ⌈len / k⌉`; fragment `p` is bytes
//!   `[p·L, (p+1)·L)` of the secret, zero-padded at the tail,
//! * pieces `0..k` are `fragment(p) ⊕ pad`, piece `k` is `pad`,
//! * each piece gets `w = m − k + 1` replicas, placed on the `w`
//!   consecutive shares `(p·w + i) mod m` for `i in 0..w`,
//! * within a share, replicas stack in placement order (first-fit
//!   slots); every share is padded to the same slot count `c`, so all
//!   `m` share payloads have identical length `2 + c·L` (a 2-byte LE
//!   secret-length prefix precedes the slots — `L` is not recoverable
//!   from the share length alone).
//!
//! `k = 1` degenerates to replication: one piece, the secret itself,
//! on every share, and **no** RNG draw.
//!
//! # Guarantees — read this before choosing the codec
//!
//! *Availability* matches Shamir: the `w` replicas of a piece land on
//! `w` distinct shares, and the complement of any `k`-subset has only
//! `m − k = w − 1` shares, so **any `k` distinct shares cover every
//! piece** and reconstruct the secret. The engine's `k`-of-`m`
//! reassembly threshold, the schedule model's loss/delay math, and the
//! wire format are all unchanged.
//!
//! *Privacy* is strictly weaker than Shamir's and is **combinatorial,
//! not information-theoretic**: an adversary recovers the secret
//! exactly when its captured share set jointly covers all `k + 1`
//! pieces, and recovers fragment `p` alone when it covers piece `p`
//! and the pad. Because pieces are replicated `w = m − k + 1` times,
//! piece sets overlap on shares; for small `k` and large `m` a single
//! share can carry every piece (e.g. `k = 2, m = 5` places
//! `(k+1)·w = 12` replicas on 5 shares, so some share holds all 3
//! pieces by pigeonhole). The codec's true exposure is the closed form
//! [`recovery_probability`], which always satisfies
//! `recovery_probability ≥ Z(p)` — never reuse the Shamir
//! Poisson-binomial `Z(p)` for this codec. The eavesdropper soak and
//! the privacy-vs-throughput bench sweep both measure against this
//! function.

use rand::{Rng, RngExt as _};

use mcss_gf256::slice as gf_slice;

use crate::{CodecError, MAX_SHARES};

/// Bytes of secret-length prefix at the head of every share payload.
pub const LEN_PREFIX: usize = 2;

/// The placement geometry for one `(k, m, secret_len)` triple.
///
/// Cheap to compute (one pass over the `(k+1)·(m−k+1)` replicas, no
/// allocation) and entirely deterministic, so encoder and decoder
/// derive it independently from the share header alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    k: u8,
    m: u8,
    secret_len: usize,
    /// Fragment length `L`.
    fragment_len: usize,
    /// Piece count: `k + 1`, or 1 when `k == 1`.
    pieces: usize,
    /// Replicas per piece, `w = m − k + 1`.
    width: usize,
    /// Slots per share, `c = max` per-share replica count.
    slots: usize,
}

impl Layout {
    /// Computes the layout, validating `1 ≤ k ≤ m ≤ MAX_SHARES` and
    /// the `u16` secret-length bound.
    pub fn new(k: u8, m: u8, secret_len: usize) -> Result<Layout, CodecError> {
        if k == 0 || m < k || m as usize > MAX_SHARES {
            return Err(CodecError::InvalidParams { k, m });
        }
        if secret_len > u16::MAX as usize {
            return Err(CodecError::PayloadTooLarge { len: secret_len });
        }
        let (kk, mm) = (k as usize, m as usize);
        let (pieces, fragment_len) = if kk == 1 {
            (1, secret_len)
        } else {
            (kk + 1, secret_len.div_ceil(kk))
        };
        let width = mm - kk + 1;
        let mut fill = [0u16; 256];
        let mut slots = 0u16;
        for p in 0..pieces {
            for i in 0..width {
                let j = (p * width + i) % mm;
                fill[j] += 1;
                slots = slots.max(fill[j]);
            }
        }
        Ok(Layout {
            k,
            m,
            secret_len,
            fragment_len,
            pieces,
            width,
            slots: slots as usize,
        })
    }

    /// Uniform per-share payload length: prefix + `c` slots.
    #[must_use]
    pub fn share_len(&self) -> usize {
        LEN_PREFIX + self.slots * self.fragment_len
    }

    /// Fragment length `L`.
    #[must_use]
    pub fn fragment_len(&self) -> usize {
        self.fragment_len
    }

    /// Number of distinct pieces.
    #[must_use]
    pub fn pieces(&self) -> usize {
        self.pieces
    }

    /// Replicas per piece.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Slots per share.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Visits every replica as `(piece, share, slot)` in the canonical
    /// placement order both encoder and decoder use.
    fn for_each_replica(&self, mut f: impl FnMut(usize, usize, usize)) {
        let mm = self.m as usize;
        let mut fill = [0u16; 256];
        for p in 0..self.pieces {
            for i in 0..self.width {
                let j = (p * self.width + i) % mm;
                let s = fill[j] as usize;
                fill[j] += 1;
                f(p, j, s);
            }
        }
    }
}

/// Splits `secret` into `m` share payloads, appending each to the
/// corresponding `outs[j]` after whatever the caller already wrote
/// there (frame headers). Draws exactly one `rng.fill` of `L` bytes
/// into `pad` (and none at all for `k == 1`). Allocation-free once
/// `pad` and `outs` have reached capacity.
pub fn split_into<R: Rng + ?Sized>(
    secret: &[u8],
    k: u8,
    m: u8,
    rng: &mut R,
    pad: &mut Vec<u8>,
    outs: &mut [Vec<u8>],
) -> Result<(), CodecError> {
    let layout = Layout::new(k, m, secret.len())?;
    if outs.len() != m as usize {
        return Err(CodecError::WrongShareCount {
            expected: m as usize,
            got: outs.len(),
        });
    }
    let l = layout.fragment_len;
    let prefix = (secret.len() as u16).to_le_bytes();
    let mut base = [0usize; 256];
    for (j, out) in outs.iter_mut().enumerate() {
        let start = out.len();
        base[j] = start + LEN_PREFIX;
        out.extend_from_slice(&prefix);
        out.resize(start + layout.share_len(), 0);
    }
    if k == 1 {
        for (j, out) in outs.iter_mut().enumerate() {
            out[base[j]..base[j] + l].copy_from_slice(secret);
        }
        return Ok(());
    }
    pad.clear();
    pad.resize(l, 0);
    rng.fill(pad.as_mut_slice());
    let kk = k as usize;
    layout.for_each_replica(|p, j, s| {
        let at = base[j] + s * l;
        let dst = &mut outs[j][at..at + l];
        if p == kk {
            dst.copy_from_slice(pad);
        } else {
            // The last fragment may start at or beyond the secret's
            // end when `len < k·L`; its missing (zero) tail XORs to
            // the bare pad. One fused XOR pass — the split's hot
            // loop — instead of copy-then-XOR.
            let f0 = (p * l).min(secret.len());
            let f1 = (f0 + l).min(secret.len());
            let n = f1 - f0;
            gf_slice::xor_into(&mut dst[..n], &secret[f0..f1], &pad[..n]);
            dst[n..].copy_from_slice(&pad[n..]);
        }
    });
    Ok(())
}

/// Reconstructs the secret from shares presented through accessor
/// closures — `x_of(i)` the abscissa (`1..=m`) and `data_of(i)` the
/// payload of the `i`-th provided share — so pooled storage
/// (handle-indexed buffers) decodes without collecting a slice of
/// references. Allocation-free beyond growing `out`.
///
/// Succeeds exactly when the provided shares jointly cover every
/// piece; any `k` distinct shares always do.
pub fn reconstruct_with<'a>(
    k: u8,
    m: u8,
    n: usize,
    x_of: impl Fn(usize) -> u8,
    data_of: impl Fn(usize) -> &'a [u8],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    if k == 0 || m < k || m as usize > MAX_SHARES {
        return Err(CodecError::InvalidParams { k, m });
    }
    if n == 0 {
        return Err(CodecError::NoShares);
    }
    let mm = m as usize;
    let mut present = [usize::MAX; 256];
    let mut share_len = usize::MAX;
    for i in 0..n {
        let x = x_of(i);
        if x == 0 || x as usize > mm {
            return Err(CodecError::InvalidAbscissa { x });
        }
        let j = (x - 1) as usize;
        if present[j] != usize::MAX {
            return Err(CodecError::DuplicateShare { x });
        }
        present[j] = i;
        let len = data_of(i).len();
        if share_len == usize::MAX {
            share_len = len;
        } else if len != share_len {
            return Err(CodecError::Malformed);
        }
    }
    if share_len < LEN_PREFIX {
        return Err(CodecError::Malformed);
    }
    let head = data_of(0);
    let secret_len = u16::from_le_bytes([head[0], head[1]]) as usize;
    let layout = Layout::new(k, m, secret_len)?;
    if share_len != layout.share_len() {
        return Err(CodecError::Malformed);
    }
    let l = layout.fragment_len;

    // One replay of the placement picks the first present replica of
    // each piece: (provided index, slot).
    const NONE: (u16, u16) = (u16::MAX, u16::MAX);
    let mut src = [NONE; 256];
    let mut found = 0usize;
    layout.for_each_replica(|p, j, s| {
        if src[p] == NONE && present[j] != usize::MAX {
            src[p] = (present[j] as u16, s as u16);
            found += 1;
        }
    });
    if found < layout.pieces {
        return Err(CodecError::Unrecoverable);
    }

    let piece = |p: usize| -> &'a [u8] {
        let (i, s) = src[p];
        &data_of(i as usize)[LEN_PREFIX + s as usize * l..][..l]
    };
    out.clear();
    if k == 1 {
        out.extend_from_slice(piece(0));
        return Ok(());
    }
    let kk = k as usize;
    out.resize(kk * l, 0);
    let pad = piece(kk);
    for p in 0..kk {
        gf_slice::xor_into(&mut out[p * l..(p + 1) * l], piece(p), pad);
    }
    out.truncate(secret_len);
    Ok(())
}

/// Whether an adversary holding exactly the shares in `captured`
/// (bit `j` = share with abscissa `j + 1`) recovers the **whole**
/// secret: true iff the set covers every piece. This is the codec's
/// combinatorial guarantee — compare `captured.count_ones() >= k`,
/// which is Shamir's. Placement does not depend on the secret length,
/// so neither does this predicate.
///
/// # Panics
///
/// Panics on invalid `(k, m)` or `m > 16` (enumeration helper, sized
/// for the paper's ≤ 16-channel setups).
#[must_use]
pub fn recoverable(k: u8, m: u8, captured: u32) -> bool {
    assert!(
        k >= 1 && k <= m && m <= 16,
        "recoverable: need 1 ≤ k ≤ m ≤ 16"
    );
    let layout = Layout::new(k, m, k as usize).expect("params validated");
    let mm = m as usize;
    'pieces: for p in 0..layout.pieces {
        for i in 0..layout.width {
            if captured >> ((p * layout.width + i) % mm) & 1 == 1 {
                continue 'pieces;
            }
        }
        return false;
    }
    true
}

/// Closed-form probability that independent per-share capture with
/// probabilities `risks` (`risks[j]` for abscissa `j + 1`) recovers
/// the whole secret — the XOR analogue of the Poisson-binomial
/// `Z(p)`, by exhaustive enumeration of the `2^m` capture sets.
///
/// Always ≥ the Shamir `Z(p)` on the same risks: every ≥ `k`-subset
/// recovers here too, plus the sub-`k` covering sets.
///
/// # Panics
///
/// Panics on invalid `(k, m)`, `m > 16`, or `risks.len() != m`.
#[must_use]
pub fn recovery_probability(k: u8, m: u8, risks: &[f64]) -> f64 {
    assert_eq!(risks.len(), m as usize, "one risk per share");
    let mm = m as usize;
    let mut total = 0.0;
    for mask in 0u32..1 << mm {
        if !recoverable(k, m, mask) {
            continue;
        }
        let mut prob = 1.0;
        for (j, &r) in risks.iter().enumerate() {
            prob *= if mask >> j & 1 == 1 { r } else { 1.0 - r };
        }
        total += prob;
    }
    total
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn split(secret: &[u8], k: u8, m: u8, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pad = Vec::new();
        let mut outs: Vec<Vec<u8>> = (0..m).map(|_| Vec::new()).collect();
        split_into(secret, k, m, &mut rng, &mut pad, &mut outs).unwrap();
        outs
    }

    /// [`reconstruct_with`] over a slice of `(abscissa, payload)` pairs.
    fn reconstruct_into(
        k: u8,
        m: u8,
        shares: &[(u8, &[u8])],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        reconstruct_with(k, m, shares.len(), |i| shares[i].0, |i| shares[i].1, out)
    }

    #[test]
    fn round_trips_any_k_subset() {
        let secret: Vec<u8> = (0..1017u32).map(|i| (i * 31 + 5) as u8).collect();
        for m in 1..=6u8 {
            for k in 1..=m {
                let outs = split(&secret, k, m, 99);
                assert!(outs.iter().all(|o| o.len() == outs[0].len()));
                // Every k-subset reconstructs.
                for mask in 0u32..1 << m {
                    if mask.count_ones() != u32::from(k) {
                        continue;
                    }
                    let shares: Vec<(u8, &[u8])> = (0..m)
                        .filter(|&j| mask >> j & 1 == 1)
                        .map(|j| (j + 1, outs[j as usize].as_slice()))
                        .collect();
                    let mut out = Vec::new();
                    reconstruct_into(k, m, &shares, &mut out)
                        .unwrap_or_else(|e| panic!("(k={k}, m={m}, mask={mask:b}): {e}"));
                    assert_eq!(out, secret, "(k={k}, m={m}, mask={mask:b})");
                }
            }
        }
    }

    #[test]
    fn decode_success_matches_recoverable_predicate() {
        let secret = b"combinatorial guarantee".to_vec();
        for m in 1..=6u8 {
            for k in 1..=m {
                let outs = split(&secret, k, m, 7);
                for mask in 1u32..1 << m {
                    let shares: Vec<(u8, &[u8])> = (0..m)
                        .filter(|&j| mask >> j & 1 == 1)
                        .map(|j| (j + 1, outs[j as usize].as_slice()))
                        .collect();
                    let mut out = Vec::new();
                    let got = reconstruct_into(k, m, &shares, &mut out);
                    if recoverable(k, m, mask) {
                        assert_eq!(got, Ok(()), "(k={k}, m={m}, mask={mask:b})");
                        assert_eq!(out, secret);
                    } else {
                        assert_eq!(
                            got,
                            Err(CodecError::Unrecoverable),
                            "(k={k}, m={m}, mask={mask:b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn k1_is_plain_replication_with_no_rng_draw() {
        let secret = b"broadcast".to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pad = Vec::new();
        let mut outs: Vec<Vec<u8>> = (0..3).map(|_| Vec::new()).collect();
        split_into(&secret, 1, 3, &mut rng, &mut pad, &mut outs).unwrap();
        let mut untouched = StdRng::seed_from_u64(5);
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        rng.fill(&mut a);
        untouched.fill(&mut b);
        assert_eq!(a, b, "k=1 split consumed RNG");
        for out in &outs {
            assert_eq!(&out[LEN_PREFIX..], secret.as_slice());
        }
    }

    #[test]
    fn length_prefix_survives_ragged_tails() {
        // Lengths that don't divide by k exercise the zero-padded tail.
        for len in [0usize, 1, 2, 3, 7, 16, 17, 255, 1000] {
            let secret: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let outs = split(&secret, 3, 5, 11);
            let shares: Vec<(u8, &[u8])> = [2u8, 4, 5]
                .iter()
                .map(|&x| (x, outs[x as usize - 1].as_slice()))
                .collect();
            let mut out = Vec::new();
            reconstruct_into(3, 5, &shares, &mut out).unwrap();
            assert_eq!(out, secret, "len={len}");
        }
    }

    #[test]
    fn malformed_shares_are_rejected_not_panicked() {
        let secret = b"some secret material here".to_vec();
        let outs = split(&secret, 2, 3, 3);
        let mut out = Vec::new();

        // Truncated payload (shorter than the prefix).
        let short: &[u8] = &outs[0][..1];
        assert_eq!(
            reconstruct_into(2, 3, &[(1, short), (2, short)], &mut out),
            Err(CodecError::Malformed)
        );

        // Mismatched sibling lengths.
        assert_eq!(
            reconstruct_into(2, 3, &[(1, &outs[0]), (2, &outs[1][..4])], &mut out),
            Err(CodecError::Malformed)
        );

        // Garbled length prefix: consistent share lengths, impossible
        // recorded secret length.
        let mut a = outs[0].clone();
        let mut b = outs[1].clone();
        a[0] = 0xFF;
        a[1] = 0xFF;
        b[0] = 0xFF;
        b[1] = 0xFF;
        assert_eq!(
            reconstruct_into(2, 3, &[(1, &a), (2, &b)], &mut out),
            Err(CodecError::Malformed)
        );

        // Bad abscissae.
        assert_eq!(
            reconstruct_into(2, 3, &[(0, &outs[0]), (2, &outs[1])], &mut out),
            Err(CodecError::InvalidAbscissa { x: 0 })
        );
        assert_eq!(
            reconstruct_into(2, 3, &[(1, &outs[0]), (1, &outs[0])], &mut out),
            Err(CodecError::DuplicateShare { x: 1 })
        );
    }

    #[test]
    fn recovery_probability_dominates_shamir_z() {
        // Z(p) for Shamir = P(≥ k of m captured), Poisson binomial by
        // the same enumeration.
        fn z_shamir(k: u8, m: u8, risks: &[f64]) -> f64 {
            let mut total = 0.0;
            for mask in 0u32..1 << m {
                if mask.count_ones() < u32::from(k) {
                    continue;
                }
                let mut prob = 1.0;
                for (j, &r) in risks.iter().enumerate() {
                    prob *= if mask >> j & 1 == 1 { r } else { 1.0 - r };
                }
                total += prob;
            }
            total
        }
        let risks5 = [0.05, 0.10, 0.20, 0.25, 0.40];
        for m in 1..=5u8 {
            for k in 1..=m {
                let r = &risks5[..m as usize];
                let xor = recovery_probability(k, m, r);
                let shamir = z_shamir(k, m, r);
                assert!(
                    xor >= shamir - 1e-12,
                    "(k={k}, m={m}): xor {xor} < shamir Z {shamir}"
                );
                assert!((0.0..=1.0 + 1e-12).contains(&xor));
            }
        }
        // k == m: covering all pieces needs all m shares on both
        // schemes, so the guarantees coincide.
        for m in 1..=5u8 {
            let r = &risks5[..m as usize];
            let xor = recovery_probability(m, m, r);
            let shamir = z_shamir(m, m, r);
            assert!((xor - shamir).abs() < 1e-12, "k=m={m}: {xor} vs {shamir}");
        }
    }

    #[test]
    fn share_len_is_uniform_and_matches_layout() {
        for m in 1..=8u8 {
            for k in 1..=m {
                for len in [0usize, 1, 64, 1250] {
                    let layout = Layout::new(k, m, len).unwrap();
                    let secret: Vec<u8> = (0..len).map(|i| i as u8).collect();
                    let outs = split(&secret, k, m, 1);
                    for out in &outs {
                        assert_eq!(out.len(), layout.share_len(), "(k={k}, m={m}, len={len})");
                    }
                }
            }
        }
    }

    #[test]
    fn split_appends_after_existing_header_bytes() {
        let secret = b"header discipline".to_vec();
        let mut rng = StdRng::seed_from_u64(21);
        let mut pad = Vec::new();
        let mut outs: Vec<Vec<u8>> = (0..3).map(|j| vec![0xA0 | j as u8; 4]).collect();
        split_into(&secret, 2, 3, &mut rng, &mut pad, &mut outs).unwrap();
        let layout = Layout::new(2, 3, secret.len()).unwrap();
        for (j, out) in outs.iter().enumerate() {
            assert_eq!(&out[..4], &[0xA0 | j as u8; 4], "header clobbered");
            assert_eq!(out.len(), 4 + layout.share_len());
        }
    }

    #[test]
    fn oversized_secret_is_rejected() {
        let secret = vec![0u8; u16::MAX as usize + 1];
        let mut rng = StdRng::seed_from_u64(1);
        let mut pad = Vec::new();
        let mut outs: Vec<Vec<u8>> = (0..3).map(|_| Vec::new()).collect();
        assert_eq!(
            split_into(&secret, 2, 3, &mut rng, &mut pad, &mut outs),
            Err(CodecError::PayloadTooLarge {
                len: u16::MAX as usize + 1
            })
        );
    }
}
