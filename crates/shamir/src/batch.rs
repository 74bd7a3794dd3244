//! In-place splitting into caller-owned buffers.
//!
//! The owned [`split`](crate::split) allocates `k` coefficient planes
//! and one accumulator per share on every call. [`split_into`] is the
//! protocol sender's form of the same computation: random planes live
//! in a caller-held [`BatchScratch`] that is reused across symbols, and
//! each share's evaluation is appended straight to a caller-owned
//! output buffer, so steady-state splitting allocates nothing.
//!
//! Determinism contract, pinned by tests: [`split_into`] draws
//! randomness in exactly the order `split` does, so for the same seeded
//! RNG the appended bytes are byte-identical to `split`'s share data.

use crate::{eval_shares, Params, ShareError};

/// Reusable working memory for [`split_into`].
///
/// Buffers grow to the largest symbol seen and are retained, so a
/// long-lived scratch makes steady-state splitting allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Random coefficient planes `1..k`.
    planes: Vec<Vec<u8>>,
}

impl BatchScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// Splits one symbol *in place*: share `j`'s evaluation bytes are
/// appended to `outs[j]`, with no allocation beyond what the output
/// buffers already hold.
///
/// This is the zero-copy core of the protocol sender: the caller writes
/// each share's wire header into a pooled frame buffer, then this
/// appends the share data directly after it — no intermediate `Share`,
/// no `data().to_vec()`. The evaluation of all `m` shares runs in one
/// pass over the coefficient planes, straight into the output buffers.
///
/// Draws randomness in exactly the order [`split`](crate::split) does,
/// so for the same seeded RNG the bytes appended to `outs[j]` are
/// byte-identical to `split(...)[j].data()` — the determinism contract
/// the protocol's figure reproductions rely on, pinned by tests.
///
/// # Panics
///
/// Panics if `outs.len() != params.multiplicity()`.
///
/// # Errors
///
/// Never fails for valid [`Params`], like [`split`](crate::split).
///
/// # Examples
///
/// ```
/// use mcss_shamir::{split_into, BatchScratch, Params};
///
/// # fn main() -> Result<(), mcss_shamir::ShareError> {
/// let mut outs = vec![b"hdr0".to_vec(), b"hdr1".to_vec(), b"hdr2".to_vec()];
/// let mut scratch = BatchScratch::new();
/// split_into(b"secret", Params::new(2, 3)?, &mut rand::rng(), &mut scratch, &mut outs)?;
/// assert!(outs.iter().all(|o| o.len() == 4 + 6)); // header + share
/// # Ok(())
/// # }
/// ```
pub fn split_into<R: rand::Rng + ?Sized>(
    secret: &[u8],
    params: Params,
    rng: &mut R,
    scratch: &mut BatchScratch,
    outs: &mut [Vec<u8>],
) -> Result<(), ShareError> {
    use rand::RngExt as _;
    let _span = mcss_obs::span!("shamir.split_into");
    let k = params.threshold() as usize;
    let m = params.multiplicity() as usize;
    assert_eq!(outs.len(), m, "need one output buffer per share");

    // Random coefficient planes 1..k (plane 0 is `secret` itself, read
    // in place). Drawn in the same order as `split` for stream parity.
    let random = k - 1;
    if scratch.planes.len() < random {
        scratch.planes.resize_with(random, Vec::new);
    }
    let planes = &mut scratch.planes[..random];
    for p in planes.iter_mut() {
        // Every byte is about to be drawn: only a change of length
        // writes anything here.
        p.resize(secret.len(), 0);
        rng.fill(p.as_mut_slice());
    }

    let shares = outs.iter_mut().map(|out| {
        let start = out.len();
        out.resize(start + secret.len(), 0);
        &mut out[start..]
    });
    eval_shares(shares, planes, secret);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xba7c4)
    }

    #[test]
    fn split_into_matches_split_byte_and_stream() {
        // Same RNG stream, byte-identical share data, for every k ≤ m ≤ 8
        // (the protocol's supported range) including k = 1.
        let secret = b"in-place split parity";
        for m in 1..=8u8 {
            for k in 1..=m {
                let params = Params::new(k, m).unwrap();
                let mut scratch = BatchScratch::new();
                let mut outs: Vec<Vec<u8>> = (0..m).map(|j| vec![j, 0xee]).collect();
                split_into(secret, params, &mut rng(), &mut scratch, &mut outs).unwrap();
                let serial = split(secret, params, &mut rng()).unwrap();
                for (j, out) in outs.iter().enumerate() {
                    assert_eq!(&out[..2], &[j as u8, 0xee], "prefix clobbered k={k} m={m}");
                    assert_eq!(&out[2..], serial[j].data(), "k={k} m={m} share {j}");
                }
                // The streams stay aligned: a draw after the call matches.
                use rand::RngExt as _;
                let mut a = rng();
                let mut b = rng();
                split_into(secret, params, &mut a, &mut scratch, &mut outs).unwrap();
                let _ = split(secret, params, &mut b).unwrap();
                assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
            }
        }
    }

    #[test]
    fn split_into_is_alloc_free_on_warm_buffers() {
        // Capacity-preserving: warmed outputs and scratch never realloc.
        let params = Params::new(3, 5).unwrap();
        let mut scratch = BatchScratch::new();
        let mut outs: Vec<Vec<u8>> = (0..5).map(|_| Vec::with_capacity(64)).collect();
        let mut r = rng();
        split_into(b"warmup pass", params, &mut r, &mut scratch, &mut outs).unwrap();
        let ptrs: Vec<_> = outs.iter().map(|o| o.as_ptr()).collect();
        for o in &mut outs {
            o.clear();
        }
        split_into(b"steady pass", params, &mut r, &mut scratch, &mut outs).unwrap();
        for (o, p) in outs.iter().zip(ptrs) {
            assert_eq!(o.as_ptr(), p, "buffer reallocated");
        }
    }

    #[test]
    #[should_panic(expected = "one output buffer per share")]
    fn split_into_wrong_buffer_count_panics() {
        let mut outs = vec![Vec::new(); 2];
        let _ = split_into(
            b"x",
            Params::new(2, 3).unwrap(),
            &mut rng(),
            &mut BatchScratch::new(),
            &mut outs,
        );
    }
}
