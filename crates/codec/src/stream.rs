//! Where a share's randomness comes from: the *share stream*.
//!
//! Every Shamir coefficient and every XOR pad must be unpredictable to
//! whoever holds fewer than `k` shares, or the shares below threshold
//! leak the symbol. They are therefore drawn from AES-128 in counter
//! mode under a host's [`ShareKey`], never from a seeded simulation
//! generator: a symbol's [`ShareStream`] is one run of counter blocks
//!
//! ```text
//! stream id (32 bits) ‖ direction (1 bit) ‖ seq (63 bits) ‖ block (32 bits)
//! ```
//!
//! starting at block 0, where the stream id names the session on its
//! host and `(direction, seq)` the split within the session. Each fill
//! starts at the next unused block, so a stream never hands out a
//! keystream byte twice; a host that splits each `(stream id,
//! direction, seq)` at most once never does either.
//!
//! A key comes from one of two constructors. [`ShareKey::generate`] is
//! the one every host uses: 16 bytes read from `/dev/urandom` once per
//! process, and for each host instance the encryption of (a domain
//! tag, a process-wide instance counter) under them, so two hosts of
//! one process never share a key and a new one costs one key expansion
//! and no system call. [`ShareKey::insecure_from_seed`] derives the key
//! from a seed anyone may know, for tests and pinned traces that must
//! replay byte for byte.

use std::fs::File;
use std::io::Read as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mcss_gf256::aes::{Aes128, BLOCK};
use mcss_gf256::simd::Backend;
use rand::Rng;

/// The first half of the block a host key is the encryption of.
const DOMAIN: [u8; 8] = *b"mcss-key";

/// A host's key for the share streams of all its sessions: an expanded
/// AES-128 key.
///
/// Hold one per host (a server, a one-session engine), never one per
/// session: sessions are told apart by their stream id.
#[derive(Clone)]
pub struct ShareKey {
    aes: Aes128,
}

impl std::fmt::Debug for ShareKey {
    /// Names the type only: the key is secret.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShareKey { .. }")
    }
}

impl ShareKey {
    /// A fresh secret key for one host instance: the process key (16
    /// bytes from `/dev/urandom`, read on the first call) encrypting
    /// this call's number among the process's calls.
    ///
    /// # Panics
    ///
    /// Panics if `/dev/urandom` cannot be read: without a secret there
    /// is nothing to draw shares from.
    #[must_use]
    pub fn generate() -> ShareKey {
        static PROCESS: OnceLock<Aes128> = OnceLock::new();
        static INSTANCES: AtomicU64 = AtomicU64::new(0);
        let process = PROCESS.get_or_init(|| {
            let mut key = [0u8; BLOCK];
            File::open("/dev/urandom")
                .and_then(|mut urandom| urandom.read_exact(&mut key))
                .expect("a share key needs 16 bytes from /dev/urandom");
            Aes128::new(&key)
        });
        let mut block = [0u8; BLOCK];
        block[..8].copy_from_slice(&DOMAIN);
        block[8..].copy_from_slice(&INSTANCES.fetch_add(1, Ordering::Relaxed).to_be_bytes());
        // The keystream of a counter block is its encryption.
        let (nonce, counter) = block.split_at(12);
        let nonce = nonce.try_into().expect("12 bytes");
        let counter = u32::from_be_bytes(counter.try_into().expect("4 bytes"));
        let mut key = [0u8; BLOCK];
        Backend::active().keystream(process, nonce, counter, &mut key);
        ShareKey {
            aes: Aes128::new(&key),
        }
    }

    /// A key that is a function of `seed` alone, so shares drawn under
    /// it are as secret as the seed is: none. For tests and pinned
    /// traces that replay share bytes; no server takes one.
    #[must_use]
    pub fn insecure_from_seed(seed: u64) -> ShareKey {
        let mut key = [0u8; BLOCK];
        key[..8].copy_from_slice(b"insecure");
        key[8..].copy_from_slice(&seed.to_le_bytes());
        ShareKey {
            aes: Aes128::new(&key),
        }
    }

    /// The share stream of one split: session `stream_id` on this
    /// key's host, sending the `seq`-th symbol of its direction,
    /// `reverse` for the return direction (B to A).
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not fit in 63 bits.
    #[must_use]
    pub fn stream(&self, stream_id: u32, reverse: bool, seq: u64) -> ShareStream<'_> {
        assert!(seq >> 63 == 0, "a split's seq has 63 bits");
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&stream_id.to_be_bytes());
        nonce[4..].copy_from_slice(&(u64::from(reverse) << 63 | seq).to_be_bytes());
        ShareStream {
            aes: &self.aes,
            nonce,
            next_block: 0,
        }
    }
}

/// The keystream of one split, as an [`Rng`] the codecs draw from.
///
/// Not `Clone`: a copy would hand out the same bytes twice.
#[derive(Debug)]
pub struct ShareStream<'a> {
    aes: &'a Aes128,
    nonce: [u8; 12],
    /// The first block no fill has used.
    next_block: u32,
}

impl Rng for ShareStream<'_> {
    fn next_u64(&mut self) -> u64 {
        let mut word = [0u8; 8];
        self.fill_bytes(&mut word);
        u64::from_le_bytes(word)
    }

    /// Fills `dest` from the next unused block on; the rest of the last
    /// block is discarded.
    ///
    /// # Panics
    ///
    /// Panics once a stream would pass its 2³²-th block (64 GiB).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let end = u32::try_from(dest.len().div_ceil(BLOCK))
            .ok()
            .and_then(|blocks| self.next_block.checked_add(blocks))
            .expect("a share stream holds 2^32 blocks");
        Backend::active().keystream(self.aes, &self.nonce, self.next_block, dest);
        self.next_block = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drawn(key: &ShareKey, id: u32, reverse: bool, seq: u64) -> [u8; 40] {
        let mut out = [0u8; 40];
        key.stream(id, reverse, seq).fill_bytes(&mut out);
        out
    }

    /// The stream is the counter-mode keystream of the documented block
    /// layout, and a fill never reuses a block.
    #[test]
    fn fills_walk_one_counter_run_from_block_zero() {
        let key = ShareKey::insecure_from_seed(3);
        let mut whole = [0u8; 64];
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&7u32.to_be_bytes());
        nonce[4..].copy_from_slice(&(1u64 << 63 | 9).to_be_bytes());
        Backend::Scalar.keystream(&key.aes, &nonce, 0, &mut whole);

        let mut stream = key.stream(7, true, 9);
        let (mut a, mut b) = ([0u8; 20], [0u8; 8]);
        stream.fill_bytes(&mut a);
        stream.fill_bytes(&mut b);
        let c = stream.next_u64();
        assert_eq!(a, whole[..20]);
        // The second fill starts at block 2, not at byte 20.
        assert_eq!(b, whole[32..40]);
        assert_eq!(c.to_le_bytes(), whole[48..56]);
    }

    #[test]
    fn stream_id_direction_and_seq_each_change_the_stream() {
        let key = ShareKey::insecure_from_seed(1);
        let base = drawn(&key, 5, false, 11);
        assert_eq!(base, drawn(&key, 5, false, 11));
        assert_ne!(base, drawn(&key, 6, false, 11));
        assert_ne!(base, drawn(&key, 5, true, 11));
        assert_ne!(base, drawn(&key, 5, false, 12));
        assert_ne!(base, drawn(&ShareKey::insecure_from_seed(2), 5, false, 11));
    }

    #[test]
    fn generated_keys_differ_per_instance_and_from_seeded_ones() {
        let (a, b) = (ShareKey::generate(), ShareKey::generate());
        assert_ne!(drawn(&a, 0, false, 0), drawn(&b, 0, false, 0));
        for seed in 0..4 {
            let seeded = ShareKey::insecure_from_seed(seed);
            assert_ne!(drawn(&a, 0, false, 0), drawn(&seeded, 0, false, 0));
        }
    }

    #[test]
    #[should_panic(expected = "63 bits")]
    fn seq_of_64_bits_is_refused() {
        let _ = ShareKey::insecure_from_seed(0).stream(0, false, 1 << 63);
    }

    #[test]
    fn debug_prints_no_key_material() {
        assert_eq!(
            format!("{:?}", ShareKey::insecure_from_seed(0)),
            "ShareKey { .. }"
        );
    }
}
