//! Pluggable share-coding backends.
//!
//! The tradeoff model upstream of this crate — `Z(p)`, `(κ, μ)`, the
//! schedule LP — is codec-agnostic: it reasons about *which channels
//! carry how many shares*, not about how the shares are produced. This
//! crate makes the coding layer itself swappable behind one seam,
//! [`CodecId`]: the closed enum of built-in backends, used for wire
//! identification and for dispatch. Its inherent methods are the whole
//! contract — [`share_len`](CodecId::share_len) (per-share payload
//! sizing), [`split_into`](CodecId::split_into) over caller-owned output
//! buffers (appending after any caller-written headers), and
//! [`reconstruct_with`](CodecId::reconstruct_with) from any sufficient
//! subset of shares, with [`reconstruct_into`](CodecId::reconstruct_into)
//! as its slice form. No caller outside this crate matches on a variant
//! to code or decode a share.
//!
//! * [`CodecId::Shamir`] — delegates splitting to `mcss-shamir`
//!   verbatim: RNG consumption, share bytes, and scratch behaviour are
//!   byte-identical to calling `mcss_shamir::split_into` directly, so
//!   every engine-trace and RNG-stream pin made before this crate
//!   existed still holds. Reconstruction validates here, in this crate's
//!   error type, and combines in `mcss_shamir::reconstruct_with` — the
//!   routine `mcss_shamir::reconstruct` runs over the same shares.
//! * [`CodecId::Xor2d`] ([`xor2d`]) — an XOR/2D-layered codec in the spirit of Chan & Chou's
//!   two-dimensional XOR schemes: near-memcpy encode speed in exchange
//!   for a *weaker, combinatorial* privacy guarantee (see the module
//!   docs for the exact statement — it is **not** the `k−1`-collusion
//!   guarantee Shamir gives, and for small `k` with large `m` a
//!   sub-`k` capture set can recover the secret).
//!
//! # Choosing a codec
//!
//! The engine reads its default from [`CodecId::from_env`]: set
//! `MCSS_CODEC=shamir|xor` (mirroring `MCSS_GF256_BACKEND`) or override
//! per-session via `ProtocolConfig::with_codec`.

#![forbid(unsafe_code)]

pub mod xor2d;

use std::fmt;
use std::sync::OnceLock;

use rand::Rng;

use mcss_shamir::{BatchScratch, Params};

/// Hard cap on shares per symbol, shared with `mcss-shamir`.
pub const MAX_SHARES: usize = mcss_shamir::MAX_SHARES;

/// Errors from the codec layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Parameters violate `1 ≤ k ≤ m ≤ MAX_SHARES`.
    InvalidParams {
        /// The offending threshold.
        k: u8,
        /// The offending multiplicity.
        m: u8,
    },
    /// Secret longer than the codec can address (`u16` length prefix).
    PayloadTooLarge {
        /// The offending length.
        len: usize,
    },
    /// `split_into` was given the wrong number of output buffers.
    WrongShareCount {
        /// Buffers required (`m`).
        expected: usize,
        /// Buffers supplied.
        got: usize,
    },
    /// Reconstruction was given no shares.
    NoShares,
    /// Two shares carry the same abscissa.
    DuplicateShare {
        /// The repeated abscissa.
        x: u8,
    },
    /// A share's abscissa is outside `1..=m`.
    InvalidAbscissa {
        /// The offending abscissa.
        x: u8,
    },
    /// Share bytes are inconsistent with the codec's layout (mismatched
    /// lengths, impossible length prefix).
    Malformed,
    /// The supplied shares do not jointly cover the secret — for the
    /// XOR codec, some piece has no captured carrier.
    Unrecoverable,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodecError::InvalidParams { k, m } => {
                write!(f, "invalid codec parameters: k={k}, m={m}")
            }
            CodecError::PayloadTooLarge { len } => {
                write!(f, "secret of {len} bytes exceeds codec limit")
            }
            CodecError::WrongShareCount { expected, got } => {
                write!(f, "need {expected} output buffers, got {got}")
            }
            CodecError::NoShares => write!(f, "no shares supplied"),
            CodecError::DuplicateShare { x } => write!(f, "duplicate share abscissa {x}"),
            CodecError::InvalidAbscissa { x } => write!(f, "share abscissa {x} out of range"),
            CodecError::Malformed => write!(f, "share bytes inconsistent with codec layout"),
            CodecError::Unrecoverable => write!(f, "supplied shares cannot recover the secret"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Reusable split scratch, shared across codecs so one engine field
/// serves whichever codec a session selects. Buffers grow to their
/// high-water mark during warmup and are never shrunk: the steady
/// state allocates nothing.
#[derive(Debug, Default)]
pub struct CodecScratch {
    /// Coefficient-plane scratch for the Shamir backend.
    pub shamir: BatchScratch,
    /// Pad buffer for the XOR backend.
    pub pad: Vec<u8>,
}

impl CodecScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Identifies a coding backend, both on the wire (the share header's
/// format byte) and for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecId {
    /// Shamir `k`-of-`m` over GF(2⁸): information-theoretic privacy
    /// against any `k−1` captured shares, Lagrange reconstruction.
    Shamir,
    /// XOR/2D-layered replication: near-memcpy encode, weaker
    /// combinatorial privacy (see [`xor2d`]).
    Xor2d,
}

static ENV_CODEC: OnceLock<CodecId> = OnceLock::new();

impl CodecId {
    /// Every built-in codec, in wire-id order.
    pub const ALL: [CodecId; 2] = [CodecId::Shamir, CodecId::Xor2d];

    /// The number identifying this codec on the wire: a share header's
    /// format byte is `1 + wire_id()`.
    #[must_use]
    pub fn wire_id(self) -> u8 {
        match self {
            CodecId::Shamir => 0,
            CodecId::Xor2d => 1,
        }
    }

    /// Parses a wire codec byte. `None` for unknown ids — the caller
    /// must drop the frame with a typed error, never guess.
    #[must_use]
    pub fn from_wire(id: u8) -> Option<CodecId> {
        match id {
            0 => Some(CodecId::Shamir),
            1 => Some(CodecId::Xor2d),
            _ => None,
        }
    }

    /// Stable lowercase name (`shamir`, `xor`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CodecId::Shamir => "shamir",
            CodecId::Xor2d => "xor",
        }
    }

    /// Parses a codec name as accepted by `MCSS_CODEC`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<CodecId> {
        match name.trim().to_ascii_lowercase().as_str() {
            "shamir" => Some(CodecId::Shamir),
            "xor" | "xor2d" => Some(CodecId::Xor2d),
            _ => None,
        }
    }

    /// The process-default codec: `MCSS_CODEC` if set and valid,
    /// otherwise [`Shamir`](CodecId::Shamir). Read once and cached;
    /// unknown names warn on stderr and fall back, mirroring
    /// `MCSS_GF256_BACKEND` handling.
    #[must_use]
    pub fn from_env() -> CodecId {
        *ENV_CODEC.get_or_init(|| match std::env::var("MCSS_CODEC") {
            Ok(name) => match CodecId::from_name(&name) {
                Some(codec) => codec,
                None => {
                    eprintln!(
                        "[codec] unknown MCSS_CODEC={name:?} (expected shamir|xor); \
                         using shamir"
                    );
                    CodecId::Shamir
                }
            },
            Err(_) => CodecId::Shamir,
        })
    }

    /// Per-share payload length for a secret of `secret_len` bytes
    /// split `k`-of-`m`. Uniform across the `m` shares for both codecs
    /// (the reassembly layer checks sibling lengths for consistency).
    #[must_use]
    pub fn share_len(self, secret_len: usize, k: u8, m: u8) -> usize {
        match self {
            CodecId::Shamir => secret_len,
            CodecId::Xor2d => xor2d::Layout::new(k, m, secret_len)
                .map(|l| l.share_len())
                .unwrap_or(0),
        }
    }

    /// Splits `secret` into `m` share payloads, appending each after
    /// whatever the caller already wrote into `outs[j]` (headers).
    /// Monomorphic over the RNG so the engine hot path pays no dynamic
    /// dispatch; for [`Shamir`](CodecId::Shamir) this *is*
    /// `mcss_shamir::split_into` — same RNG draws, same bytes.
    pub fn split_into<R: Rng + ?Sized>(
        self,
        secret: &[u8],
        k: u8,
        m: u8,
        rng: &mut R,
        scratch: &mut CodecScratch,
        outs: &mut [Vec<u8>],
    ) -> Result<(), CodecError> {
        match self {
            CodecId::Shamir => {
                let params = Params::new(k, m).map_err(|_| CodecError::InvalidParams { k, m })?;
                if outs.len() != m as usize {
                    return Err(CodecError::WrongShareCount {
                        expected: m as usize,
                        got: outs.len(),
                    });
                }
                mcss_shamir::split_into(secret, params, rng, &mut scratch.shamir, outs)
                    .map_err(|_| CodecError::PayloadTooLarge { len: secret.len() })
            }
            CodecId::Xor2d => xor2d::split_into(secret, k, m, rng, &mut scratch.pad, outs),
        }
    }

    /// Reconstructs the secret into `out` from `n` shares presented
    /// through accessor closures — `x_of(i)` the abscissa (`1..=m`) and
    /// `data_of(i)` the payload of the `i`-th provided share — so pooled
    /// storage (handle-indexed buffers) decodes without collecting a
    /// slice of references. Allocation-free beyond growing `out`.
    ///
    /// Any `k` distinct shares suffice for both codecs (Shamir uses the
    /// first `k` provided); the XOR codec additionally succeeds on some
    /// sub-`k` covering sets (its documented weaker guarantee).
    pub fn reconstruct_with<'a>(
        self,
        k: u8,
        m: u8,
        n: usize,
        x_of: impl Fn(usize) -> u8,
        data_of: impl Fn(usize) -> &'a [u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        match self {
            CodecId::Shamir => {
                if k == 0 || m < k {
                    return Err(CodecError::InvalidParams { k, m });
                }
                if n == 0 {
                    return Err(CodecError::NoShares);
                }
                let kk = k as usize;
                if n < kk {
                    return Err(CodecError::Unrecoverable);
                }
                let mut xs = [0u8; MAX_SHARES];
                let len = data_of(0).len();
                for i in 0..kk {
                    let x = x_of(i);
                    if x == 0 || x > m {
                        return Err(CodecError::InvalidAbscissa { x });
                    }
                    if xs[..i].contains(&x) {
                        return Err(CodecError::DuplicateShare { x });
                    }
                    if data_of(i).len() != len {
                        return Err(CodecError::Malformed);
                    }
                    xs[i] = x;
                }
                out.resize(len, 0);
                mcss_shamir::reconstruct_with(&xs[..kk], data_of, out);
                Ok(())
            }
            CodecId::Xor2d => xor2d::reconstruct_with(k, m, n, x_of, data_of, out),
        }
    }

    /// Slice-of-pairs form of [`reconstruct_with`](Self::reconstruct_with):
    /// `shares` are `(abscissa, payload)` pairs.
    pub fn reconstruct_into(
        self,
        k: u8,
        m: u8,
        shares: &[(u8, &[u8])],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        self.reconstruct_with(k, m, shares.len(), |i| shares[i].0, |i| shares[i].1, out)
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn wire_ids_round_trip() {
        for codec in CodecId::ALL {
            assert_eq!(CodecId::from_wire(codec.wire_id()), Some(codec));
            assert_eq!(CodecId::from_name(codec.name()), Some(codec));
        }
        assert_eq!(CodecId::from_wire(0xEE), None);
        assert_eq!(CodecId::from_name("xor2d"), Some(CodecId::Xor2d));
        assert_eq!(CodecId::from_name("nope"), None);
    }

    #[test]
    fn shamir_codec_matches_direct_split_byte_for_byte() {
        // The seam guard: `CodecId::Shamir` must stay `mcss-shamir`'s
        // split — its bytes and its RNG draws, as recorded from a direct
        // `mcss_shamir::split_into` call (FNV-1a 64 of each share; the
        // 32 bytes drawn next).
        const SHARES: [u64; 5] = [
            0xbbbd_968a_c667_4561,
            0xc0e6_c494_1a72_550e,
            0xacdb_6200_ebd7_8443,
            0xea2f_72ce_9438_4c71,
            0xa11f_1e7f_8dca_51e8,
        ];
        const NEXT: [u8; 32] = [
            0xc7, 0xb7, 0xb6, 0x83, 0xa6, 0xe1, 0xa9, 0x29, 0x23, 0xf5, 0x7e, 0x35, 0xf9, 0x1d,
            0x99, 0x2e, 0x81, 0xa6, 0x72, 0x75, 0xed, 0xe8, 0xfa, 0xf1, 0x7f, 0x0f, 0x61, 0xfc,
            0x53, 0x12, 0x1c, 0x54,
        ];
        let fnv64 = |bytes: &[u8]| {
            let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
        };
        let secret: Vec<u8> = (0..1250u32).map(|i| (i * 7 + 3) as u8).collect();
        let (k, m) = (3u8, 5u8);

        let mut rng = StdRng::seed_from_u64(42);
        let mut scratch = CodecScratch::new();
        let mut via_codec: Vec<Vec<u8>> = (0..m).map(|_| b"hdr".to_vec()).collect();
        CodecId::Shamir
            .split_into(&secret, k, m, &mut rng, &mut scratch, &mut via_codec)
            .unwrap();

        for (j, out) in via_codec.iter().enumerate() {
            assert_eq!(&out[..3], b"hdr", "header clobbered, share {j}");
            assert_eq!(
                fnv64(&out[3..]),
                SHARES[j],
                "CodecId::Shamir diverged from mcss-shamir, share {j}"
            );
        }
        let mut next = [0u8; 32];
        rand::RngExt::fill(&mut rng, &mut next);
        assert_eq!(next, NEXT, "RNG stream diverged after split");
    }

    #[test]
    fn shamir_reconstruct_round_trips() {
        let secret = b"the quick brown fox jumps over".to_vec();
        let (k, m) = (3u8, 5u8);
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = CodecScratch::new();
        let mut outs: Vec<Vec<u8>> = (0..m).map(|_| Vec::new()).collect();
        CodecId::Shamir
            .split_into(&secret, k, m, &mut rng, &mut scratch, &mut outs)
            .unwrap();
        let shares: Vec<(u8, &[u8])> = [4u8, 1, 3]
            .iter()
            .map(|&x| (x, outs[x as usize - 1].as_slice()))
            .collect();
        let mut out = Vec::new();
        CodecId::Shamir
            .reconstruct_into(k, m, &shares, &mut out)
            .unwrap();
        assert_eq!(out, secret);
    }

    #[test]
    fn shamir_reconstruct_rejects_bad_inputs() {
        let mut out = Vec::new();
        let data: &[u8] = b"xx";
        assert_eq!(
            CodecId::Shamir.reconstruct_into(2, 3, &[], &mut out),
            Err(CodecError::NoShares)
        );
        assert_eq!(
            CodecId::Shamir.reconstruct_into(2, 3, &[(1, data)], &mut out),
            Err(CodecError::Unrecoverable)
        );
        assert_eq!(
            CodecId::Shamir.reconstruct_into(2, 3, &[(1, data), (1, data)], &mut out),
            Err(CodecError::DuplicateShare { x: 1 })
        );
        assert_eq!(
            CodecId::Shamir.reconstruct_into(2, 3, &[(1, data), (7, data)], &mut out),
            Err(CodecError::InvalidAbscissa { x: 7 })
        );
    }

    #[test]
    fn every_codec_round_trips() {
        let secret = b"0123456789abcdef".to_vec();
        for codec in CodecId::ALL {
            let mut rng = StdRng::seed_from_u64(3);
            let mut scratch = CodecScratch::new();
            let mut outs: Vec<Vec<u8>> = (0..4).map(|_| Vec::new()).collect();
            codec
                .split_into(&secret, 2, 4, &mut rng, &mut scratch, &mut outs)
                .unwrap();
            assert_eq!(outs[0].len(), codec.share_len(secret.len(), 2, 4));
            let shares: Vec<(u8, &[u8])> = outs
                .iter()
                .enumerate()
                .take(2)
                .map(|(j, o)| (j as u8 + 1, o.as_slice()))
                .collect();
            let mut out = Vec::new();
            codec.reconstruct_into(2, 4, &shares, &mut out).unwrap();
            assert_eq!(out, secret, "{codec} round trip");
        }
    }
}
