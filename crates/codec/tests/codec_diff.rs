//! Differential tests across the share codecs, modeled on the GF(2⁸)
//! `backend_diff.rs` suite: the same secret pushed through every
//! [`CodecId`] must round-trip through every erasure pattern the
//! codec's guarantee covers, with the Shamir backend's RNG stream
//! byte-identical to the pre-refactor `mcss_shamir` entry points.
//!
//! The exhaustive sweep walks every `(k, m)` with `m ≤ 6` crossed with
//! secret lengths around the fragment-boundary edges (empty, one byte,
//! `k·L` exact multiples ±1, and a misaligned kilobyte), and for each
//! point enumerates **all 2^m − 1 share subsets**: subsets of size ≥ k
//! must reconstruct for both codecs, and any subset that reconstructs
//! must yield the original secret (the XOR codec may legitimately
//! succeed below `k` — its documented weaker guarantee — but it must
//! never succeed with wrong bytes). Every subset is rebuilt three ways
//! that must agree: `reconstruct_into` over a slice,
//! `reconstruct_with` over accessors presenting the same shares in the
//! opposite order, and (Shamir) the owned `mcss_shamir::reconstruct`.

use mcss_codec::{xor2d, CodecError, CodecId, CodecScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Splits `secret` with `codec`, returning the `m` share payloads.
fn split(codec: CodecId, secret: &[u8], k: u8, m: u8, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = CodecScratch::new();
    let mut outs = vec![Vec::new(); m as usize];
    codec
        .split_into(secret, k, m, &mut rng, &mut scratch, &mut outs)
        .expect("split succeeds");
    outs
}

/// Reconstructs from the subset of shares selected by `mask` (bit `j`
/// set ⇒ share with abscissa `j + 1` is available) through the slice
/// form, checking on the way that the accessor form over the same
/// shares in reverse order — and, for a Shamir subset that reaches `k`,
/// the owned reference — give the same answer.
fn reconstruct_subset(
    codec: CodecId,
    k: u8,
    m: u8,
    shares: &[Vec<u8>],
    mask: u32,
) -> Result<Vec<u8>, CodecError> {
    let picked: Vec<(u8, &[u8])> = (0..m as usize)
        .filter(|j| mask & (1 << j) != 0)
        .map(|j| ((j + 1) as u8, shares[j].as_slice()))
        .collect();
    let mut out = Vec::new();
    let got = codec
        .reconstruct_into(k, m, &picked, &mut out)
        .map(|()| out);

    let n = picked.len();
    let mut reversed = Vec::new();
    let with = codec
        .reconstruct_with(
            k,
            m,
            n,
            |i| picked[n - 1 - i].0,
            |i| picked[n - 1 - i].1,
            &mut reversed,
        )
        .map(|()| reversed);
    assert_eq!(
        with, got,
        "{codec} (k={k}, m={m}, mask={mask:b}): accessor and slice forms disagree"
    );
    if codec == CodecId::Shamir && n >= k as usize {
        let owned: Vec<mcss_shamir::Share> = picked
            .iter()
            .map(|&(x, data)| mcss_shamir::Share::new(x, k, data.to_vec()))
            .collect();
        assert_eq!(
            mcss_shamir::reconstruct(&owned).ok(),
            got.clone().ok(),
            "(k={k}, m={m}, mask={mask:b}): codec and mcss_shamir::reconstruct disagree"
        );
    }
    got
}

/// Secret lengths that hit the XOR layout's edges for every `k ≤ 6`:
/// empty, single byte, around each small multiple, and a misaligned
/// kilobyte (1021 is prime, so `⌈len/k⌉·k − len` is nonzero for all
/// `k` in range — the zero-tail path).
const LENGTHS: [usize; 12] = [0, 1, 2, 3, 5, 6, 7, 12, 13, 30, 31, 1021];

#[test]
fn exhaustive_small_parameter_round_trip_all_erasure_patterns() {
    for m in 1u8..=6 {
        for k in 1u8..=m {
            for &len in &LENGTHS {
                let secret: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
                for codec in CodecId::ALL {
                    let shares = split(codec, &secret, k, m, 0xD1FF ^ u64::from(k));
                    for s in &shares {
                        assert_eq!(
                            s.len(),
                            codec.share_len(len, k, m),
                            "{codec} (k={k}, m={m}, len={len}): share_len mismatch"
                        );
                    }
                    for mask in 1u32..(1 << m) {
                        let have = mask.count_ones() as usize;
                        let got = reconstruct_subset(codec, k, m, &shares, mask);
                        if have >= k as usize {
                            assert_eq!(
                                got.as_deref(),
                                Ok(secret.as_slice()),
                                "{codec} (k={k}, m={m}, len={len}, mask={mask:b}): \
                                 ≥k shares must reconstruct exactly"
                            );
                        } else if let Ok(out) = got {
                            // Sub-threshold success is only ever the XOR
                            // codec's covering-set case — and even then
                            // the bytes must be right.
                            assert_eq!(
                                codec,
                                CodecId::Xor2d,
                                "(k={k}, m={m}, mask={mask:b}): Shamir \
                                 reconstructed from {have} < k shares"
                            );
                            assert_eq!(
                                out, secret,
                                "xor (k={k}, m={m}, len={len}, mask={mask:b}): \
                                 covering subset returned wrong bytes"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The XOR codec's guarantee is *piece cover*: a subset reconstructs
/// exactly when replaying the placement over the captured shares
/// reaches every piece. Diff the actual decode outcome against that
/// predicate for every subset, so the combinatorial privacy model in
/// [`xor2d::recovery_probability`] provably matches the decoder.
#[test]
fn xor_decode_success_matches_cover_predicate() {
    for m in 1u8..=6 {
        for k in 1u8..=m {
            let secret: Vec<u8> = (0..29).map(|i| (i * 7 + 1) as u8).collect();
            let shares = split(CodecId::Xor2d, &secret, k, m, 99);
            for mask in 1u32..(1 << m) {
                let covers = xor2d::recoverable(k, m, mask);
                let got = reconstruct_subset(CodecId::Xor2d, k, m, &shares, mask);
                assert_eq!(
                    got.is_ok(),
                    covers,
                    "(k={k}, m={m}, mask={mask:b}): decoder and cover \
                     predicate disagree"
                );
            }
        }
    }
}

/// `CodecId::Shamir` must be the *same function* as the original
/// `mcss_shamir` entry points: same RNG draws in the same order, same
/// output bytes, so the engine-trace pins survive the codec seam.
#[test]
fn shamir_codec_rng_stream_is_byte_identical_to_direct_split() {
    for (k, m, len) in [(1u8, 1u8, 16usize), (2, 3, 33), (3, 5, 1024), (5, 5, 7)] {
        let secret: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
        let params = mcss_shamir::Params::new(k, m).expect("valid params");

        let mut direct_rng = StdRng::seed_from_u64(0xBEEF);
        let mut direct_scratch = mcss_shamir::BatchScratch::default();
        let mut direct = vec![Vec::new(); m as usize];
        mcss_shamir::split_into(
            &secret,
            params,
            &mut direct_rng,
            &mut direct_scratch,
            &mut direct,
        )
        .expect("direct split");

        let codec = split(CodecId::Shamir, &secret, k, m, 0xBEEF);
        assert_eq!(
            codec, direct,
            "(k={k}, m={m}, len={len}): share bytes diverged"
        );

        // The RNG must land in the same state too — equal output with
        // extra draws would still desync every later symbol.
        let mut codec_rng = StdRng::seed_from_u64(0xBEEF);
        let mut scratch = CodecScratch::new();
        let mut outs = vec![Vec::new(); m as usize];
        CodecId::Shamir
            .split_into(&secret, k, m, &mut codec_rng, &mut scratch, &mut outs)
            .expect("codec split");
        use rand::RngExt as _;
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        direct_rng.fill(&mut a);
        codec_rng.fill(&mut b);
        assert_eq!(a, b, "(k={k}, m={m}, len={len}): RNG streams desynced");
    }
}

/// Splitting appends after caller-written bytes (headers) for both
/// codecs, leaving the prefix untouched.
#[test]
fn split_appends_after_existing_header_bytes() {
    let secret = [7u8; 50];
    for codec in CodecId::ALL {
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = CodecScratch::new();
        let mut outs: Vec<Vec<u8>> = (0..5).map(|j| vec![0xC0, j as u8]).collect();
        codec
            .split_into(&secret, 2, 5, &mut rng, &mut scratch, &mut outs)
            .expect("split succeeds");
        for (j, out) in outs.iter().enumerate() {
            assert_eq!(&out[..2], &[0xC0, j as u8], "{codec}: header clobbered");
            assert_eq!(
                out.len(),
                2 + codec.share_len(50, 2, 5),
                "{codec}: appended length"
            );
        }
    }
}

/// Splitting is a function of `(codec, secret, k, m, RNG stream)` alone:
/// a second split from the same seed, through a scratch another codec
/// has already used, yields the same shares.
#[test]
fn split_is_deterministic_for_every_codec() {
    let secret = [0x42u8; 77];
    let mut scratch = CodecScratch::new();
    for codec in CodecId::ALL {
        let mut again = vec![Vec::new(); 5];
        codec
            .split_into(
                &secret,
                3,
                5,
                &mut StdRng::seed_from_u64(11),
                &mut scratch,
                &mut again,
            )
            .expect("split succeeds");
        assert_eq!(again, split(codec, &secret, 3, 5, 11), "{codec}");
    }
}

proptest! {
    /// Random secrets and parameters round-trip through both codecs
    /// with a random ≥k subset, including large payloads that span
    /// many vector-width boundaries in the XOR kernels.
    #[test]
    fn random_round_trip_with_random_threshold_subset(
        secret in proptest::collection::vec(any::<u8>(), 0..2048),
        k in 1u8..=8,
        extra in 0u8..=4,
        subset_seed in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let m = k + extra;
        for codec in CodecId::ALL {
            let shares = split(codec, &secret, k, m, seed);
            // A pseudo-random mask with at least k bits set.
            let mut mask = subset_seed & ((1 << m) - 1);
            let mut j = 0u32;
            while mask.count_ones() < u32::from(k) {
                mask |= 1 << (j % u32::from(m));
                j += 1;
            }
            let got = reconstruct_subset(codec, k, m, &shares, mask);
            prop_assert_eq!(
                got.as_deref(),
                Ok(secret.as_slice()),
                "{} (k={}, m={}, mask={:b})", codec, k, m, mask
            );
        }
    }

    /// Sibling shares always have the codec's advertised uniform
    /// length, whatever the secret length's alignment.
    #[test]
    fn share_lengths_are_uniform_and_advertised(
        len in 0usize..1500,
        k in 1u8..=8,
        extra in 0u8..=4,
    ) {
        let m = k + extra;
        let secret = vec![0xABu8; len];
        for codec in CodecId::ALL {
            let shares = split(codec, &secret, k, m, 1);
            for s in &shares {
                prop_assert_eq!(s.len(), codec.share_len(len, k, m));
            }
        }
    }
}
