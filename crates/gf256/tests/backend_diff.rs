//! Differential property tests for the GF(2⁸) kernel backends.
//!
//! Every backend available on the host (scalar, table, and the
//! vector paths — `pshufb`/`gf2p8mulb` on x86_64, NEON on
//! aarch64) must produce byte-identical results for all three slice ops
//! and the many-operand `eval` and `combine` entry points (and `horner`,
//! the one-output `eval`), for random lengths in 0..4096 including
//! misaligned heads (the kernels are run on sub-slices starting at a
//! random offset, so the vector loads start off any natural alignment)
//! and ragged tails (lengths that are not a multiple of any vector
//! width). The proptests sweep whichever backends the host offers; the
//! per-backend `*_exhaustive_boundaries` tests additionally pin every
//! chunk-edge length for each named vector backend and *skip loudly*
//! (an `[skip]` line on stderr) rather than silently pass when the host
//! lacks the feature, so a green run on a non-GFNI host is
//! distinguishable from actual coverage.
//!
//! The AES-128 counter-mode keystream is pinned the same way: known
//! answers from FIPS-197 and NIST SP 800-38A on every backend, and each
//! backend against the portable cipher at every length up to 300 from
//! every head below 16, guard bytes checked. `simd` runs it at AES-NI's
//! width and `gfni` at VAES's, so both widths are diffed on a host that
//! has both.

use mcss_gf256::aes::Aes128;
use mcss_gf256::simd::{Backend, MulTable};
use mcss_gf256::Gf256;
use proptest::prelude::*;

/// Backends to diff on this host; scalar is the reference.
fn available() -> impl Iterator<Item = Backend> {
    Backend::ALL.into_iter().filter(|b| b.is_available())
}

/// A buffer plus a misalignment offset: tests run on `buf[head..]`.
fn plane() -> impl Strategy<Value = (Vec<u8>, usize)> {
    (proptest::collection::vec(any::<u8>(), 0..4096), 0usize..64)
}

fn sub(buf: &[u8], head: usize, len: usize) -> &[u8] {
    &buf[head.min(buf.len())..][..len]
}

/// `count` planes of `len` bytes, plane `c` starting `c` bytes into its
/// allocation so that no two share an alignment.
fn skewed_planes(count: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..count)
        .map(|c| {
            (0..c + len)
                .map(|i| {
                    let at = (c * 8192 + i) as u64;
                    (seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(at.wrapping_mul(1442695040888963407))
                        >> 33) as u8
                })
                .collect()
        })
        .collect()
}

/// Abscissae and weights of the many-operand legs: 1 first (share 1 of
/// every split), 0 among them, more of them than one kernel call takes.
const POINTS: [u8; 10] = [1, 2, 3, 4, 5, 0x53, 0xff, 0, 0x8e, 9];

proptest! {
    #[test]
    fn scale_add_assign_is_backend_independent(
        (dst0, head) in plane(),
        src0 in proptest::collection::vec(any::<u8>(), 4096),
        x in any::<u8>(),
    ) {
        let head = head.min(dst0.len());
        let len = dst0.len() - head;
        let src = sub(&src0, head, len);
        let t = MulTable::new(Gf256::new(x));
        let mut want = dst0.clone();
        Backend::Scalar.scale_add_assign(&mut want[head..], src, &t);
        for backend in available() {
            let mut got = dst0.clone();
            backend.scale_add_assign(&mut got[head..], src, &t);
            prop_assert_eq!(
                &got, &want,
                "backend {} x={} len={} head={}", backend.name(), x, len, head
            );
        }
    }

    #[test]
    fn add_scaled_assign_is_backend_independent(
        (dst0, head) in plane(),
        src0 in proptest::collection::vec(any::<u8>(), 4096),
        x in any::<u8>(),
    ) {
        let head = head.min(dst0.len());
        let len = dst0.len() - head;
        let src = sub(&src0, head, len);
        let t = MulTable::new(Gf256::new(x));
        let mut want = dst0.clone();
        Backend::Scalar.add_scaled_assign(&mut want[head..], src, &t);
        for backend in available() {
            let mut got = dst0.clone();
            backend.add_scaled_assign(&mut got[head..], src, &t);
            prop_assert_eq!(
                &got, &want,
                "backend {} x={} len={} head={}", backend.name(), x, len, head
            );
        }
    }

    #[test]
    fn scale_assign_is_backend_independent(
        (dst0, head) in plane(),
        x in any::<u8>(),
    ) {
        let head = head.min(dst0.len());
        let t = MulTable::new(Gf256::new(x));
        let mut want = dst0.clone();
        Backend::Scalar.scale_assign(&mut want[head..], &t);
        for backend in available() {
            let mut got = dst0.clone();
            backend.scale_assign(&mut got[head..], &t);
            prop_assert_eq!(
                &got, &want,
                "backend {} x={} len={} head={}",
                backend.name(), x, dst0.len() - head, head
            );
        }
    }

    #[test]
    fn fused_horner_is_backend_independent(
        len in 0usize..4096,
        head in 0usize..64,
        n_planes in 1usize..6,
        seed in any::<u64>(),
        x in any::<u8>(),
    ) {
        // Planes are derived deterministically from the seed; what
        // matters here is the backend diff, not the value distribution.
        let head = head.min(len);
        let planes = skewed_planes(n_planes, len, seed);
        let refs: Vec<&[u8]> = planes.iter().enumerate().map(|(c, p)| &p[c + head..]).collect();
        let t = MulTable::new(Gf256::new(x));
        let mut want = vec![0u8; len - head];
        Backend::Scalar.horner_into(&mut want, &refs, &t);
        for backend in available() {
            // Pre-poison: prior acc contents must be ignored.
            let mut got = vec![0x5au8; len - head];
            backend.horner_into(&mut got, &refs, &t);
            prop_assert_eq!(
                &got, &want,
                "backend {} x={} len={} head={} planes={}",
                backend.name(), x, len - head, head, n_planes
            );
        }
    }
}

proptest! {
    #[test]
    fn eval_and_combine_are_backend_independent(
        len in 0usize..4096,
        head in 0usize..64,
        operands in 0usize..=10,
        outputs in 0usize..=10,
        seed in any::<u64>(),
    ) {
        let bufs = skewed_planes(operands, len, seed);
        let planes: Vec<&[u8]> = bufs.iter().enumerate().map(|(c, p)| &p[c..]).collect();
        let xs = || POINTS.iter().map(|&x| Gf256::new(x));
        let mut want = vec![vec![0u8; len]; outputs];
        for (out, x) in want.iter_mut().zip(xs()) {
            Backend::Scalar.horner_into(out, &planes, &MulTable::new(x));
        }
        let mut sum = vec![0u8; len];
        for (&src, w) in planes.iter().zip(xs()) {
            Backend::Scalar.add_scaled_assign(&mut sum, src, &MulTable::new(w));
        }
        for backend in available() {
            // Pre-poison: prior contents must be ignored, and nothing
            // before an output's first byte touched.
            let mut got = vec![vec![0x5au8; head + len]; outputs];
            backend.eval_into(got.iter_mut().zip(xs()).map(|(o, x)| (x, &mut o[head..])), &planes);
            for (j, (got, want)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    &got[head..], &want[..],
                    "eval backend {} len={} head={} planes={} output {} of {}",
                    backend.name(), len, head, operands, j, outputs
                );
                prop_assert!(got[..head].iter().all(|&b| b == 0x5a));
            }
            let mut got = vec![0xa5u8; head + len];
            backend.combine_into(&mut got[head..], planes.iter().copied().zip(xs()).map(|(s, w)| (w, s)));
            prop_assert_eq!(
                &got[head..], &sum[..],
                "combine backend {} len={} head={} sources={}",
                backend.name(), len, head, operands
            );
            prop_assert!(got[..head].iter().all(|&b| b == 0xa5));
        }
    }
}

/// The scalar backend is what every other is compared to: its `eval`
/// and `combine` against the field's own arithmetic, byte by byte.
#[test]
fn scalar_eval_and_combine_match_field_arithmetic() {
    for len in [0usize, 1, 15, 16, 17, 70] {
        for operands in 0..=9usize {
            let bufs = skewed_planes(operands, len, 0x5ca1a);
            let planes: Vec<&[u8]> = bufs.iter().enumerate().map(|(c, p)| &p[c..]).collect();
            let xs = POINTS.map(Gf256::new);
            let mut outs = vec![vec![0xeeu8; len]; xs.len()];
            let paired = outs.iter_mut().zip(xs);
            Backend::Scalar.eval_into(paired.map(|(o, x)| (x, &mut o[..])), &planes);
            let mut sum = vec![0xeeu8; len];
            let weighted = planes.iter().zip(xs).map(|(&s, w)| (w, s));
            Backend::Scalar.combine_into(&mut sum, weighted);
            for i in 0..len {
                for (out, x) in outs.iter().zip(xs) {
                    let horner = planes
                        .iter()
                        .fold(Gf256::ZERO, |a, p| a * x + Gf256::new(p[i]));
                    assert_eq!(out[i], horner.value(), "eval len={len} k={operands} x={x}");
                }
                let dot = planes.iter().zip(xs).map(|(p, w)| Gf256::new(p[i]) * w);
                let dot = dot.fold(Gf256::ZERO, |a, b| a + b);
                assert_eq!(sum[i], dot.value(), "combine len={len} k={operands}");
            }
        }
    }
}

/// The backend diff above samples lengths; the vector-width boundaries
/// themselves (0..=65: every SSSE3/AVX2 chunk edge ±1) are checked
/// exhaustively for every backend.
#[test]
fn all_chunk_boundary_lengths_agree() {
    let dst0: Vec<u8> = (0..80).map(|i| (i * 37 + 11) as u8).collect();
    let src: Vec<u8> = (0..80).map(|i| (i * 101 + 3) as u8).collect();
    for x in [0u8, 1, 2, 0x53, 0xff] {
        let t = MulTable::new(Gf256::new(x));
        for len in 0..=65usize {
            let mut want = dst0[..len].to_vec();
            Backend::Scalar.scale_add_assign(&mut want, &src[..len], &t);
            for backend in available() {
                let mut got = dst0[..len].to_vec();
                backend.scale_add_assign(&mut got, &src[..len], &t);
                assert_eq!(got, want, "backend {} x={x} len={len}", backend.name());
            }
        }
    }
}

/// The `slice` entry points dispatch at every length, so on a forced
/// backend the short lengths reach that backend's kernels: each op,
/// through the plain form, against the scalar reference.
#[test]
fn plain_entry_points_agree_at_short_lengths() {
    use mcss_gf256::slice;
    let dst0: Vec<u8> = (0..130).map(|i| (i * 37 + 11) as u8).collect();
    let src: Vec<u8> = (0..130).map(|i| (i * 101 + 3) as u8).collect();
    for x in [0u8, 1, 2, 0x53, 0xff] {
        let x = Gf256::new(x);
        let t = MulTable::of(x);
        for len in 0..=130usize {
            let (d0, s) = (&dst0[..len], &src[..len]);
            let (mut got, mut want) = (d0.to_vec(), d0.to_vec());
            slice::scale_add_assign(&mut got, s, x);
            Backend::Scalar.scale_add_assign(&mut want, s, t);
            assert_eq!(got, want, "scale_add x={x} len={len}");
            slice::add_scaled_assign(&mut got, s, x);
            Backend::Scalar.add_scaled_assign(&mut want, s, t);
            assert_eq!(got, want, "add_scaled x={x} len={len}");
            slice::scale_assign(&mut got, x);
            Backend::Scalar.scale_assign(&mut want, t);
            assert_eq!(got, want, "scale x={x} len={len}");
            slice::horner_into(&mut got, &[d0, s], x);
            Backend::Scalar.horner_into(&mut want, &[d0, s], t);
            assert_eq!(got, want, "horner x={x} len={len}");
        }
    }
}

/// Exhaustive chunk-edge diff for one named backend: every length in
/// 0..=193 (covering six 32-byte AVX2/GFNI vectors, the 16-byte
/// mid-tails, and the scalar table tail, each ±1) crossed with
/// misaligned heads 0..16, for the three one-multiplier ops and
/// `horner`, then [`exhaustive_many_operand`]. Returns `false` — after
/// printing a loud `[skip]` line — when the backend is unavailable, so
/// the callers' `assert!(ran || !must_run(..))` keeps CI forced legs
/// honest without failing on hosts that lack the feature.
fn exhaustive_boundaries(backend: Backend) -> bool {
    if !backend.is_available() {
        eprintln!(
            "[skip] backend `{}` unavailable on this host; exhaustive boundary diff not run",
            backend.name()
        );
        return false;
    }
    let dst0: Vec<u8> = (0..224).map(|i| (i * 37 + 11) as u8).collect();
    let src: Vec<u8> = (0..224).map(|i| (i * 101 + 3) as u8).collect();
    let plane_b: Vec<u8> = (0..224).map(|i| (i * 59 + 7) as u8).collect();
    for x in [0u8, 1, 2, 0x53, 0xff] {
        let t = MulTable::new(Gf256::new(x));
        for head in 0..16usize {
            for len in 0..=193usize {
                let d0 = &dst0[head..head + len];
                let s = &src[head..head + len];

                let mut want = d0.to_vec();
                Backend::Scalar.scale_add_assign(&mut want, s, &t);
                let mut got = d0.to_vec();
                backend.scale_add_assign(&mut got, s, &t);
                assert_eq!(
                    got,
                    want,
                    "scale_add backend {} x={x} len={len} head={head}",
                    backend.name()
                );

                let mut want = d0.to_vec();
                Backend::Scalar.add_scaled_assign(&mut want, s, &t);
                let mut got = d0.to_vec();
                backend.add_scaled_assign(&mut got, s, &t);
                assert_eq!(
                    got,
                    want,
                    "add_scaled backend {} x={x} len={len} head={head}",
                    backend.name()
                );

                let mut want = d0.to_vec();
                Backend::Scalar.scale_assign(&mut want, &t);
                let mut got = d0.to_vec();
                backend.scale_assign(&mut got, &t);
                assert_eq!(
                    got,
                    want,
                    "scale backend {} x={x} len={len} head={head}",
                    backend.name()
                );

                let planes = [s, &plane_b[head..head + len]];
                let mut want = vec![0u8; len];
                Backend::Scalar.horner_into(&mut want, &planes, &t);
                let mut got = vec![0xa5u8; len];
                backend.horner_into(&mut got, &planes, &t);
                assert_eq!(
                    got,
                    want,
                    "horner backend {} x={x} len={len} head={head}",
                    backend.name()
                );
            }
        }
    }
    exhaustive_many_operand(backend);
    true
}

/// Exhaustive diff of the two many-operand entry points for one named
/// backend (already known to be available): every length in 0..=193 ×
/// output heads 0..16 and 31 (where a frame's header leaves a share) ×
/// every operand and output count in 0..=9 — the register-held
/// `1..=8`, none, and one more than a kernel call takes — with the
/// abscissae and weights of [`POINTS`]. Each result is compared to the
/// scalar backend's and to the same backend's one-operand calls: one
/// `horner_into` per output, one `add_scaled_assign` per source.
fn exhaustive_many_operand(backend: Backend) {
    const MOST: usize = 9;
    let xs = POINTS.map(Gf256::new);
    for len in 0..=193usize {
        let bufs = skewed_planes(MOST, len, len as u64);
        let planes: Vec<&[u8]> = bufs.iter().enumerate().map(|(c, p)| &p[c..]).collect();
        for operands in 0..=MOST {
            let planes = &planes[..operands];
            // What each output and the sum must be, whatever the head
            // and however many outputs share the call.
            let mut want = vec![vec![0u8; len]; MOST];
            for (out, x) in want.iter_mut().zip(xs) {
                Backend::Scalar.horner_into(out, planes, MulTable::of(x));
                let mut single = vec![0xa5u8; len];
                backend.horner_into(&mut single, planes, MulTable::of(x));
                assert_eq!(
                    &single,
                    out,
                    "horner backend {} x={x} len={len} planes={operands}",
                    backend.name()
                );
            }
            let mut sum = vec![0u8; len];
            let mut stepped = vec![0u8; len];
            for (&src, w) in planes.iter().zip(xs) {
                Backend::Scalar.add_scaled_assign(&mut sum, src, MulTable::of(w));
                backend.add_scaled_assign(&mut stepped, src, MulTable::of(w));
            }
            assert_eq!(stepped, sum, "add_scaled backend {}", backend.name());

            for head in (0..16usize).chain([31]) {
                for outputs in 0..=MOST {
                    let mut got = vec![vec![0xa5u8; head + len + 1]; outputs];
                    let paired = got.iter_mut().zip(xs);
                    backend.eval_into(paired.map(|(o, x)| (x, &mut o[head..head + len])), planes);
                    for (j, (got, want)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            got[head..head + len] == want[..]
                                && got[..head].iter().all(|&b| b == 0xa5)
                                && got[head + len] == 0xa5,
                            "eval backend {} len={len} head={head} planes={operands} \
                             output {j} of {outputs}",
                            backend.name()
                        );
                    }
                }
                let mut got = vec![0xa5u8; head + len + 1];
                let weighted = planes.iter().zip(xs).map(|(&s, w)| (w, s));
                backend.combine_into(&mut got[head..head + len], weighted);
                assert!(
                    got[head..head + len] == sum[..]
                        && got[..head].iter().all(|&b| b == 0xa5)
                        && got[head + len] == 0xa5,
                    "combine backend {} len={len} head={head} sources={operands}",
                    backend.name()
                );
            }
        }
    }
}

/// Whether `backend` is forced via `MCSS_GF256_BACKEND` *and* the host
/// can actually run it — only then must its exhaustive diff run rather
/// than skip. CI runner pools are a hardware lottery (not every host
/// has GFNI, and NEON never exists on x86-64), so a
/// forced-but-unavailable backend mirrors the dispatch layer's fallback:
/// it skips loudly with a distinct `[skip-forced]` marker instead of
/// failing the leg.
fn must_run(backend: Backend) -> bool {
    let forced = std::env::var("MCSS_GF256_BACKEND").is_ok_and(|n| n == backend.name());
    if forced && !backend.is_available() {
        eprintln!(
            "[skip-forced] MCSS_GF256_BACKEND={} forced but the host lacks the feature; \
             exhaustive boundary diff not run",
            backend.name()
        );
        return false;
    }
    forced
}

#[test]
fn simd_exhaustive_boundaries() {
    let ran = exhaustive_boundaries(Backend::Simd);
    assert!(ran || !must_run(Backend::Simd));
}

#[test]
fn gfni_exhaustive_boundaries() {
    let ran = exhaustive_boundaries(Backend::Gfni);
    assert!(ran || !must_run(Backend::Gfni));
}

#[test]
fn neon_exhaustive_boundaries() {
    let ran = exhaustive_boundaries(Backend::Neon);
    assert!(ran || !must_run(Backend::Neon));
}

#[test]
fn table_exhaustive_boundaries() {
    assert!(exhaustive_boundaries(Backend::Table));
}

/// A hex string's bytes.
fn hex<const N: usize>(s: &str) -> [u8; N] {
    core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex"))
}

/// FIPS-197 Appendix C.1 (one block: the keystream of a counter block
/// is its encryption) and NIST SP 800-38A F.5.1, CTR-AES128.Encrypt
/// (four blocks from one initial counter), on every backend the host
/// runs.
#[test]
fn keystream_known_answers() {
    let fips = Aes128::new(&hex("000102030405060708090a0b0c0d0e0f"));
    let plain: [u8; 16] = hex("00112233445566778899aabbccddeeff");
    let cipher: [u8; 16] = hex("69c4e0d86a7b0430d8cdb78070b4c55a");
    let nonce: [u8; 12] = plain[..12].try_into().unwrap();
    let counter = u32::from_be_bytes(plain[12..].try_into().unwrap());

    let ctr = Aes128::new(&hex("2b7e151628aed2a6abf7158809cf4f3c"));
    let initial: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    let message: [u8; 64] = hex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ));
    let encrypted: [u8; 64] = hex(concat!(
        "874d6191b620e3261bef6864990db6ce",
        "9806f66b7970fdff8617187bb9fffdff",
        "5ae4df3edbd5d35e5b4f09020db03eab",
        "1e031dda2fbe03d1792170a0f3009cee",
    ));
    let ctr_nonce: [u8; 12] = initial[..12].try_into().unwrap();
    let ctr_first = u32::from_be_bytes(initial[12..].try_into().unwrap());

    for backend in available() {
        let mut block = [0u8; 16];
        backend.keystream(&fips, &nonce, counter, &mut block);
        assert_eq!(block, cipher, "FIPS-197 C.1 on {}", backend.name());

        let mut stream = [0u8; 64];
        backend.keystream(&ctr, &ctr_nonce, ctr_first, &mut stream);
        for (s, m) in stream.iter_mut().zip(message) {
            *s ^= m;
        }
        assert_eq!(stream, encrypted, "SP 800-38A F.5.1 on {}", backend.name());
    }
}

/// `backend`'s keystream against the portable cipher's (the scalar
/// backend's) at every length 0..=300 from every head 0..16 of a
/// guarded buffer: the bytes in range equal, every guard byte intact.
/// The counter starts close enough to 2³² to wrap on the longer runs.
/// Returns `false`, after a loud `[skip]` line, when the backend is
/// unavailable.
fn keystream_diff(backend: Backend) -> bool {
    if !backend.is_available() {
        eprintln!(
            "[skip] backend `{}` unavailable on this host; keystream diff not run",
            backend.name()
        );
        return false;
    }
    const GUARD: u8 = 0xa5;
    let aes = Aes128::new(&hex("000102030405060708090a0b0c0d0e0f"));
    let nonce = hex("a0a1a2a3a4a5a6a7a8a9aaab");
    let first = u32::MAX - 9;
    for len in 0..=300usize {
        let mut want = vec![0u8; len];
        Backend::Scalar.keystream(&aes, &nonce, first, &mut want);
        for head in 0..16usize {
            let mut buf = vec![GUARD; head + len + 16];
            backend.keystream(&aes, &nonce, first, &mut buf[head..head + len]);
            let (name, (lead, rest)) = (backend.name(), buf.split_at(head));
            let (got, trail) = rest.split_at(len);
            assert_eq!(got, want, "{name} len={len} head={head}");
            assert!(
                lead.iter().chain(trail).all(|&b| b == GUARD),
                "{name} wrote outside"
            );
        }
    }
    true
}

#[test]
fn simd_keystream_matches_portable() {
    let ran = keystream_diff(Backend::Simd);
    assert!(ran || !must_run(Backend::Simd));
}

#[test]
fn gfni_keystream_matches_portable() {
    let ran = keystream_diff(Backend::Gfni);
    assert!(ran || !must_run(Backend::Gfni));
}

#[test]
fn neon_keystream_matches_portable() {
    let ran = keystream_diff(Backend::Neon);
    assert!(ran || !must_run(Backend::Neon));
}

#[test]
fn table_keystream_matches_portable() {
    assert!(keystream_diff(Backend::Table));
}
