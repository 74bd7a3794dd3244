//! Shamir threshold secret sharing over GF(2⁸).
//!
//! A secret byte string is split into `m` *shares* such that any `k` of
//! them reconstruct the secret and any `k − 1` reveal no information at
//! all (information-theoretic secrecy, per Shamir 1979). Each byte of the
//! secret is independently hidden in the constant term of a fresh random
//! polynomial of degree `k − 1`; share `j` carries the evaluations at the
//! nonzero field point `x_j`.
//!
//! Secrecy holds only if the coefficients are unpredictable to whoever
//! holds the shares: [`split`] and [`split_into`] draw them from the
//! [`rand::Rng`] they are given, which should be a keyed stream such as
//! `mcss_codec::ShareStream`. A seeded generator (the vendored
//! `StdRng`, `rand::rng()`) is for tests: its seed, or a few of its
//! outputs, give the coefficients away, and one share then reveals the
//! secret.
//!
//! This is the secret sharing scheme underlying the multichannel protocol
//! model of Pohly & McDaniel (DSN 2016): the protocol sends one share per
//! channel, so an adversary must eavesdrop at least `k` channels to learn
//! a symbol, while the receiver tolerates the loss of up to `m − k`
//! shares.
//!
//! # Examples
//!
//! ```
//! use mcss_shamir::{split, reconstruct, Params};
//!
//! # fn main() -> Result<(), mcss_shamir::ShareError> {
//! let params = Params::new(3, 5)?; // threshold 3 of 5 shares
//! // The coefficients must be unpredictable: draw them from a share
//! // stream under a secret key, not from a seeded generator.
//! let key = mcss_codec::ShareKey::generate();
//! let shares = split(b"attack at dawn", params, &mut key.stream(0, false, 0))?;
//!
//! // Any 3 shares suffice; drop two of them.
//! let secret = reconstruct(&shares[1..4])?;
//! assert_eq!(secret, b"attack at dawn");
//! # Ok(())
//! # }
//! ```

pub mod batch;
mod error;
mod params;
mod share;

pub use batch::{split_into, BatchScratch};
pub use error::ShareError;
pub use params::Params;
pub use share::Share;

use mcss_gf256::{slice as gf_slice, Gf256};

/// Maximum number of shares a secret can be split into.
///
/// Share abscissae are nonzero elements of GF(2⁸), of which there are 255.
pub const MAX_SHARES: usize = 255;

/// Writes share `j`'s evaluation into `outs[j]`, for every `j`: the
/// polynomial whose constant term is `secret` and whose degree-`i`
/// coefficient is `random[i − 1]`, at `x = j + 1`, all in one pass over
/// the planes ([`mcss_gf256::slice::eval_into`]). No allocation for the
/// protocol's `k ≤ 8`.
pub(crate) fn eval_shares<'a>(
    outs: impl IntoIterator<Item = &'a mut [u8]>,
    random: &[Vec<u8>],
    secret: &[u8],
) {
    // The planes as the kernel wants them: highest coefficient first.
    let k = random.len() + 1;
    let mut few: [&[u8]; 8] = [&[]; 8];
    let mut many = Vec::new();
    let planes = match few.get_mut(..k) {
        Some(few) => few,
        None => {
            many.resize(k, &[][..]);
            &mut many[..]
        }
    };
    for (plane, coefficients) in planes.iter_mut().zip(random.iter().rev()) {
        *plane = coefficients;
    }
    planes[k - 1] = secret;
    let outs = outs.into_iter().zip(1..=u8::MAX);
    gf_slice::eval_into(outs.map(|(out, x)| (Gf256::new(x), out)), planes);
}

/// Splits `secret` into `params.multiplicity()` shares with threshold
/// `params.threshold()`.
///
/// Each byte of the secret is shared independently with fresh randomness,
/// so shares are exactly as long as the secret (`H(Y) = H(X)`, the optimal
/// case assumed by the protocol model). Share `j` (0-based) receives the
/// abscissa `x = j + 1`.
///
/// # Errors
///
/// Never fails for valid [`Params`].
///
/// # Examples
///
/// ```
/// use mcss_shamir::{split, Params};
///
/// # fn main() -> Result<(), mcss_shamir::ShareError> {
/// let key = mcss_codec::ShareKey::generate();
/// let shares = split(b"hi", Params::new(2, 3)?, &mut key.stream(0, false, 0))?;
/// assert_eq!(shares.len(), 3);
/// assert!(shares.iter().all(|s| s.data().len() == 2));
/// # Ok(())
/// # }
/// ```
pub fn split<R: rand::Rng + ?Sized>(
    secret: &[u8],
    params: Params,
    rng: &mut R,
) -> Result<Vec<Share>, ShareError> {
    // `split_into` over fresh buffers: one plane draw, one evaluation.
    let m = params.multiplicity() as usize;
    let mut data: Vec<Vec<u8>> = (0..m).map(|_| Vec::with_capacity(secret.len())).collect();
    split_into(secret, params, rng, &mut BatchScratch::new(), &mut data)?;
    let shares = data.into_iter().zip(1..=u8::MAX);
    Ok(shares
        .map(|(data, x)| Share::new(x, params.threshold(), data))
        .collect())
}

/// Reconstructs a secret from at least `threshold` shares.
///
/// Exactly `threshold` shares are consumed (the first ones in `shares`);
/// extra shares are ignored. The threshold is read from the shares
/// themselves and must agree across all of them.
///
/// # Errors
///
/// - [`ShareError::NoShares`] if `shares` is empty.
/// - [`ShareError::MismatchedThreshold`] if shares disagree on `k`.
/// - [`ShareError::MismatchedLength`] if shares disagree on data length.
/// - [`ShareError::DuplicateShare`] if two shares have the same abscissa.
/// - [`ShareError::NotEnoughShares`] if fewer than `k` shares are given.
///
/// # Examples
///
/// ```
/// use mcss_shamir::{split, reconstruct, Params};
///
/// # fn main() -> Result<(), mcss_shamir::ShareError> {
/// let key = mcss_codec::ShareKey::generate();
/// let shares = split(&[1, 2, 3], Params::new(2, 4)?, &mut key.stream(0, false, 0))?;
/// assert_eq!(reconstruct(&shares[2..])?, vec![1, 2, 3]);
/// # Ok(())
/// # }
/// ```
pub fn reconstruct(shares: &[Share]) -> Result<Vec<u8>, ShareError> {
    let _span = mcss_obs::span!("shamir.reconstruct");
    let k = validate_shares(shares)?;
    let mut xs = [0u8; MAX_SHARES];
    for (x, s) in xs.iter_mut().zip(&shares[..k]) {
        *x = s.x();
    }
    let mut secret = vec![0u8; shares[0].data().len()];
    reconstruct_with(&xs[..k], |i| shares[i].data(), &mut secret);
    Ok(secret)
}

/// Lagrange reconstruction at zero from shares kept outside [`Share`]
/// objects (e.g. pooled reassembly buffers): share `i` has abscissa
/// `xs[i]` and data `data_of(i)`, and `out` receives the secret,
/// `Σ_i weight(xs, i) · data_i`. The weights are shared by every byte
/// position, so they are computed once and whole shares are combined in
/// one bulk pass ([`mcss_gf256::slice::combine_into`]).
///
/// This is the routine [`reconstruct`] runs on its first `k` shares, and
/// it is exact over GF(2⁸): the same shares give the same bytes either
/// way. It validates nothing — that is the caller's, in its own error
/// type, as [`reconstruct`] does for the `Share`-based API.
///
/// # Panics
///
/// Panics if a share's length differs from `out`'s or two abscissae are
/// equal, and (in debug builds) if an abscissa is zero.
pub fn reconstruct_with<'a>(xs: &[u8], data_of: impl Fn(usize) -> &'a [u8], out: &mut [u8]) {
    let weighted = (0..xs.len()).map(|i| (lagrange_weight(xs, i), data_of(i)));
    gf_slice::combine_into(out, weighted);
}

/// Checks a share set's internal consistency (agreeing threshold and
/// length, distinct abscissae, at least `k` shares) and returns `k`.
fn validate_shares(shares: &[Share]) -> Result<usize, ShareError> {
    let first = shares.first().ok_or(ShareError::NoShares)?;
    let k = first.threshold() as usize;
    let len = first.data().len();
    for s in shares {
        if s.threshold() != first.threshold() {
            return Err(ShareError::MismatchedThreshold {
                expected: first.threshold(),
                found: s.threshold(),
            });
        }
        if s.data().len() != len {
            return Err(ShareError::MismatchedLength {
                expected: len,
                found: s.data().len(),
            });
        }
    }
    for (i, s) in shares.iter().enumerate() {
        if shares[..i].iter().any(|t| t.x() == s.x()) {
            return Err(ShareError::DuplicateShare { x: s.x() });
        }
    }
    if shares.len() < k {
        return Err(ShareError::NotEnoughShares {
            needed: k,
            got: shares.len(),
        });
    }
    Ok(k)
}

/// The Lagrange basis weight at zero for abscissa `xs[i]` against the
/// abscissa set `xs`.
fn lagrange_weight(xs: &[u8], i: usize) -> Gf256 {
    debug_assert!(xs.iter().all(|&x| x != 0), "abscissae must be nonzero");
    debug_assert!(
        xs.iter().enumerate().all(|(a, x)| !xs[..a].contains(x)),
        "abscissae must be distinct"
    );
    let xi = Gf256::new(xs[i]);
    let mut num = Gf256::ONE;
    let mut den = Gf256::ONE;
    for (j, &xj) in xs.iter().enumerate() {
        if i != j {
            let xj = Gf256::new(xj);
            num *= xj;
            den *= xj + xi;
        }
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn round_trip_all_small_params() {
        let mut rng = rng();
        let secret = b"the quick brown fox";
        for m in 1..=6u8 {
            for k in 1..=m {
                let params = Params::new(k, m).unwrap();
                let shares = split(secret, params, &mut rng).unwrap();
                assert_eq!(shares.len(), m as usize);
                let got = reconstruct(&shares).unwrap();
                assert_eq!(got, secret, "k={k} m={m}");
            }
        }
    }

    #[test]
    fn any_k_subset_reconstructs() {
        let mut rng = rng();
        let params = Params::new(3, 5).unwrap();
        let secret = [0u8, 255, 17, 42];
        let shares = split(&secret, params, &mut rng).unwrap();
        // All C(5,3) = 10 subsets.
        for a in 0..5 {
            for b in (a + 1)..5 {
                for c in (b + 1)..5 {
                    let subset = [shares[a].clone(), shares[b].clone(), shares[c].clone()];
                    assert_eq!(reconstruct(&subset).unwrap(), secret);
                }
            }
        }
    }

    #[test]
    fn share_order_is_irrelevant() {
        let mut rng = rng();
        let shares = split(b"order", Params::new(3, 4).unwrap(), &mut rng).unwrap();
        let mut rev: Vec<_> = shares.clone();
        rev.reverse();
        assert_eq!(reconstruct(&rev).unwrap(), b"order");
    }

    #[test]
    fn too_few_shares_fail() {
        let mut rng = rng();
        let shares = split(b"x", Params::new(3, 5).unwrap(), &mut rng).unwrap();
        let err = reconstruct(&shares[..2]).unwrap_err();
        assert_eq!(err, ShareError::NotEnoughShares { needed: 3, got: 2 });
    }

    #[test]
    fn empty_input_fails() {
        assert_eq!(reconstruct(&[]).unwrap_err(), ShareError::NoShares);
    }

    #[test]
    fn duplicate_share_detected() {
        let mut rng = rng();
        let shares = split(b"x", Params::new(2, 3).unwrap(), &mut rng).unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert_eq!(
            reconstruct(&dup).unwrap_err(),
            ShareError::DuplicateShare { x: shares[0].x() }
        );
    }

    #[test]
    fn mismatched_threshold_detected() {
        let mut rng = rng();
        let a = split(b"x", Params::new(1, 2).unwrap(), &mut rng).unwrap();
        let b = split(b"x", Params::new(2, 2).unwrap(), &mut rng).unwrap();
        let mixed = vec![a[0].clone(), b[1].clone()];
        assert!(matches!(
            reconstruct(&mixed).unwrap_err(),
            ShareError::MismatchedThreshold { .. }
        ));
    }

    #[test]
    fn mismatched_length_detected() {
        let mut rng = rng();
        let a = split(b"xy", Params::new(2, 2).unwrap(), &mut rng).unwrap();
        let b = split(b"x", Params::new(2, 2).unwrap(), &mut rng).unwrap();
        let mixed = vec![a[0].clone(), b[1].clone()];
        assert!(matches!(
            reconstruct(&mixed).unwrap_err(),
            ShareError::MismatchedLength { .. }
        ));
    }

    #[test]
    fn empty_secret_round_trips() {
        let mut rng = rng();
        let shares = split(b"", Params::new(2, 3).unwrap(), &mut rng).unwrap();
        assert!(shares.iter().all(|s| s.data().is_empty()));
        assert_eq!(reconstruct(&shares).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn k_equals_one_shares_are_plaintext() {
        // With threshold 1 the polynomial is constant: every share IS the
        // secret. The model exploits this for the maximum-rate schedule.
        let mut rng = rng();
        let shares = split(b"plain", Params::new(1, 3).unwrap(), &mut rng).unwrap();
        for s in &shares {
            assert_eq!(s.data(), b"plain");
        }
    }

    #[test]
    fn k_greater_than_one_shares_differ_from_secret() {
        // Statistically a 32-byte share equals the secret with prob 2^-256.
        let mut rng = rng();
        let secret = [0xaau8; 32];
        let shares = split(&secret, Params::new(2, 2).unwrap(), &mut rng).unwrap();
        for s in &shares {
            assert_ne!(s.data(), &secret);
        }
    }

    #[test]
    fn wrong_share_set_gives_wrong_secret_not_panic() {
        // Reconstructing from k shares of *different* sharings must not
        // panic; it yields garbage, which is fine for a threshold scheme
        // without verification.
        let mut rng = rng();
        let a = split(&[1, 2, 3, 4], Params::new(2, 2).unwrap(), &mut rng).unwrap();
        let b = split(&[9, 9, 9, 9], Params::new(2, 2).unwrap(), &mut rng).unwrap();
        let mixed = vec![a[0].clone(), b[1].clone()];
        let _ = reconstruct(&mixed).unwrap();
    }

    /// Perfect secrecy, statistically: fixing k−1 shares, the secret byte
    /// remains (empirically) uniform. We verify the underlying algebraic
    /// fact exactly: for every secret value and every fixed polynomial
    /// evaluation at one point, there is exactly one degree-1 polynomial —
    /// i.e. for k=2, one observed share value is compatible with *every*
    /// secret byte in exactly one way.
    #[test]
    fn one_share_is_compatible_with_every_secret() {
        use mcss_gf256::{poly, Gf256};
        let observed_x = Gf256::new(1);
        let observed_y = Gf256::new(0x7c);
        for secret in 0..=255u8 {
            // Interpolate the unique line through (0, secret), (x, y).
            let p =
                poly::interpolate(&[(Gf256::ZERO, Gf256::new(secret)), (observed_x, observed_y)])
                    .unwrap();
            assert_eq!(p.eval(Gf256::ZERO), Gf256::new(secret));
            assert_eq!(p.eval(observed_x), observed_y);
        }
    }

    /// Empirical uniformity: share bytes of a fixed secret are uniform over
    /// many splits (chi-squared style sanity bound, loose to avoid flakes).
    #[test]
    fn share_bytes_look_uniform() {
        let mut rng = rng();
        let mut counts = [0u32; 256];
        let trials = 25_600;
        for _ in 0..trials {
            let shares = split(&[0x42], Params::new(2, 2).unwrap(), &mut rng).unwrap();
            counts[shares[0].data()[0] as usize] += 1;
        }
        let expected = trials as f64 / 256.0; // 100 per bucket
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.3 && (c as f64) < expected * 3.0,
                "byte {v} count {c} wildly non-uniform"
            );
        }
    }
}
