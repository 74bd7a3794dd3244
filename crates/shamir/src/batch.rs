//! In-place splitting into caller-owned buffers.
//!
//! [`split_into`] is the one split body: random coefficient planes live
//! in a caller-held [`BatchScratch`] that is reused across symbols, and
//! each share's evaluation is appended straight to a caller-owned output
//! buffer, so steady-state splitting allocates nothing. The owned
//! [`split`](crate::split) is this function over fresh buffers.
//!
//! Determinism contract, pinned by a known-answer test: the planes are
//! drawn from the RNG in index order, each in one `fill`, so a seeded
//! RNG gives the same share bytes and is left in the same state by every
//! build of this crate.

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
/// For the same seeded RNG the bytes appended to `outs[j]` are
/// `split(...)[j].data()` — the determinism contract the protocol's
/// figure reproductions rely on, pinned by a known-answer test.
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
/// let key = mcss_codec::ShareKey::generate();
/// let mut stream = key.stream(0, false, 0);
/// split_into(b"secret", Params::new(2, 3)?, &mut stream, &mut scratch, &mut outs)?;
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
    // in place), drawn in index order: the RNG stream is pinned.
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

    fn fnv64(bytes: &[u8]) -> u64 {
        let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
    }

    #[test]
    fn split_into_matches_split_byte_and_stream() {
        // `split` is `split_into`, so comparing them pins nothing. What
        // is pinned: the share bytes and the RNG state after the call,
        // as recorded from both forms before they were one (FNV-1a 64
        // of each share; the 32 bytes drawn next).
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
        use rand::RngExt as _;
        let secret: Vec<u8> = (0..1250u32).map(|i| (i * 7 + 3) as u8).collect();
        let params = Params::new(3, 5).unwrap();
        let mut next = [0u8; 32];

        let mut r = rand::rngs::StdRng::seed_from_u64(42);
        let owned = split(&secret, params, &mut r).unwrap();
        let hashes: Vec<u64> = owned.iter().map(|s| fnv64(s.data())).collect();
        assert_eq!(hashes, SHARES, "split");
        r.fill(&mut next);
        assert_eq!(next, NEXT, "RNG stream after split");

        // In place, after a caller-written prefix that must survive.
        let mut r = rand::rngs::StdRng::seed_from_u64(42);
        let mut outs: Vec<Vec<u8>> = (0..5).map(|j| vec![j, 0xee]).collect();
        split_into(&secret, params, &mut r, &mut BatchScratch::new(), &mut outs).unwrap();
        for (j, out) in outs.iter().enumerate() {
            assert_eq!(&out[..2], &[j as u8, 0xee], "prefix clobbered, share {j}");
            assert_eq!(fnv64(&out[2..]), SHARES[j], "split_into share {j}");
        }
        r.fill(&mut next);
        assert_eq!(next, NEXT, "RNG stream after split_into");
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
