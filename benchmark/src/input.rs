//! Seed-derived inputs: every byte and every coin flip of a workload is
//! a function of `--seed`.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// SplitMix64 finalizer over `(seed, a, b)`: a stateless per-item
/// decision source, so what happens to symbol `n` does not depend on how
/// many windows ran before it.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes at the head of each payload that carry `(cid, seq)`.
pub const STAMP_BYTES: usize = 12;

/// Symbol payloads: a small pool of random bodies (so generating and
/// checking a payload is a copy and a compare, not a PRNG run inside the
/// timed loop) stamped with the `(cid, seq)` they were offered under.
pub struct Payloads {
    seed: u64,
    bodies: Vec<Vec<u8>>,
}

impl Payloads {
    const BODIES: usize = 64;

    pub fn new(seed: u64, symbol_bytes: usize) -> Self {
        assert!(symbol_bytes >= STAMP_BYTES, "payload must hold its stamp");
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x5041_594c, symbol_bytes as u64));
        let bodies = (0..Self::BODIES)
            .map(|_| {
                let mut body = vec![0u8; symbol_bytes];
                rng.fill_bytes(&mut body);
                body
            })
            .collect();
        Payloads { seed, bodies }
    }

    fn body(&self, cid: u32, seq: u64) -> &[u8] {
        &self.bodies[(mix(self.seed, u64::from(cid), seq) % Self::BODIES as u64) as usize]
    }

    /// Writes the payload offered as symbol `seq` of session `cid`.
    pub fn fill(&self, cid: u32, seq: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(self.body(cid, seq));
        out[..4].copy_from_slice(&cid.to_be_bytes());
        out[4..STAMP_BYTES].copy_from_slice(&seq.to_be_bytes());
    }

    /// Whether `payload` is exactly what [`fill`](Self::fill) wrote for
    /// `(cid, seq)`.
    pub fn matches(&self, cid: u32, seq: u64, payload: &[u8]) -> bool {
        let body = self.body(cid, seq);
        payload.len() == body.len()
            && payload[..4] == cid.to_be_bytes()
            && payload[4..STAMP_BYTES] == seq.to_be_bytes()
            && payload[STAMP_BYTES..] == body[STAMP_BYTES..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_round_trip_and_depend_on_seed() {
        let a = Payloads::new(1, 64);
        let b = Payloads::new(2, 64);
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        a.fill(7, 9, &mut pa);
        b.fill(7, 9, &mut pb);
        assert!(a.matches(7, 9, &pa));
        assert!(!a.matches(7, 10, &pa));
        assert!(!a.matches(8, 9, &pa));
        assert_ne!(pa, pb, "the seed changes payload bytes");
        pa[40] ^= 1;
        assert!(!a.matches(7, 9, &pa));
    }
}
