//! Hash maps keyed by integers, hashed as integers.
//!
//! The workspace's hot-path maps are keyed by a connection ID (`u32`)
//! or a symbol sequence number (`u64`). The standard library's default
//! hasher runs SipHash-1-3 over such a key — a keyed PRF built for
//! arbitrary byte strings, some twenty times the work an 8-byte key
//! needs. [`IntMap`] is the same [`HashMap`] over [`IntBuildHasher`],
//! whose hash of an integer is one 64×64→128-bit multiply.
//!
//! Both properties the default bought are kept:
//!
//! * **Every key bit reaches the bits the table reads.** hashbrown
//!   takes the bucket index from a hash's low bits and its control tag
//!   from the top seven. The product's high half (which every key bit
//!   reaches through carries) is xor-folded onto its low half (whose
//!   top bits depend on every key bit), so strided keys (`cid % shards`),
//!   shifted keys (`i << 32`) and keys agreeing in their low 16 bits
//!   all spread as random ones do — the unit tests count buckets and
//!   tags for each family.
//! * **Bucket placement is unpredictable to whoever picks the keys.** A
//!   sequence number arrives off the wire, so a fixed hash would let a
//!   peer aim every symbol at one bucket. The key is xored with a seed
//!   drawn once per process from [`RandomState`] before the multiply.
//!   (The maps using this are also bounded in size by their owners.)
//!
//! The seed is the one piece of randomness in this crate. It is
//! unobservable: no code iterates these maps, so nothing but probe
//! lengths depends on it.
//!
//! One table is not a [`HashMap`] at all: the reassembly table of
//! `mcss-remicss` probes its own slot array linearly, from a home slot
//! taken from the low bits of [`IntBuildHasher`]'s hash of the sequence
//! number. Both properties above are what it relies on, the second
//! most of all — linear probing degrades to a scan if keys can be
//! aimed at one cluster.
//!
//! # Examples
//!
//! ```
//! use mcss_base::hash::IntMap;
//!
//! let mut position_of: IntMap<u32, u32> = IntMap::default();
//! position_of.insert(7, 0);
//! position_of.insert(u32::MAX - 1, 1);
//! assert_eq!(position_of.get(&7), Some(&0));
//! assert_eq!(position_of.get(&8), None);
//! ```

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] for integer keys (see the [module docs](self)). Build
/// one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// Knuth's MMIX multiplier. Picked by the spread test below, not by
/// name: under this fold the usual 2⁶⁴ ÷ φ constant puts 2¹⁶ keys of the
/// form `i << 32` into 12 % of 2¹⁶ buckets, this one into 62 %.
const MULTIPLIER: u64 = 0x5851_F42D_4C95_7F2D;

/// Builds [`IntHasher`]s carrying the process's hash seed.
#[derive(Debug, Clone, Copy)]
pub struct IntBuildHasher {
    seed: u64,
}

impl Default for IntBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        IntBuildHasher {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(0u64)),
        }
    }
}

impl BuildHasher for IntBuildHasher {
    type Hasher = IntHasher;

    #[inline]
    fn build_hasher(&self) -> IntHasher {
        IntHasher { state: self.seed }
    }
}

/// The folded-multiply hasher behind [`IntMap`].
#[derive(Debug, Clone, Copy)]
pub struct IntHasher {
    /// The seed, then the hash of what was written so far.
    state: u64,
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    /// Keys that are not a `u32` or `u64` arrive here, eight bytes a
    /// multiply.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.write_u64(u64::from(key));
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let product = u128::from(self.state ^ key) * u128::from(MULTIPLIER);
        self.state = (product >> 64) as u64 ^ product as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: u64 = 1 << 16;

    /// The `i`-th key of a structured family.
    type Family = fn(u64) -> u64;

    /// Of `KEYS` keys of a family: the share of 2¹⁶ low-bit buckets hit,
    /// and how many of the 128 top-7-bit control tags appear.
    fn spread(build: IntBuildHasher, key: Family) -> (f64, usize) {
        let mut buckets = vec![false; KEYS as usize];
        let mut tags = [false; 128];
        for i in 0..KEYS {
            let hash = build.hash_one(key(i));
            buckets[(hash & (KEYS - 1)) as usize] = true;
            tags[(hash >> 57) as usize] = true;
        }
        let filled = buckets.iter().filter(|&&b| b).count() as f64 / KEYS as f64;
        (filled, tags.iter().filter(|&&t| t).count())
    }

    /// Random placement fills 1 − 1/e ≈ 63 % of as many buckets as keys
    /// and every tag; a structured family must not do visibly worse.
    #[test]
    fn structured_key_families_spread_like_random_ones() {
        let families: [(&str, Family); 6] = [
            ("sequential", |i| i),
            ("stride 2", |i| 2 * i + 1),
            ("stride 8", |i| 8 * i + 5),
            ("shifted 20", |i| i << 20),
            ("shifted 32", |i| i << 32),
            ("equal low 16 bits", |i| (i << 16) | 0xBEEF),
        ];
        let process = IntBuildHasher::default();
        let seeds = [process.seed, 0, u64::MAX, 0x0123_4567_89AB_CDEF];
        for seed in seeds {
            for (name, key) in families {
                let (filled, tags) = spread(IntBuildHasher { seed }, key);
                assert!(
                    filled >= 0.55,
                    "{name}, seed {seed:#x}: {filled:.3} of buckets"
                );
                assert_eq!(tags, 128, "{name}, seed {seed:#x}: control tags");
            }
        }
    }

    #[test]
    fn u32_keys_hash_as_the_same_u64() {
        let build = IntBuildHasher::default();
        assert_eq!(build.hash_one(77u32), build.hash_one(77u64));
        assert_ne!(build.hash_one(77u32), build.hash_one(78u32));
    }

    #[test]
    fn the_seed_is_drawn_once_per_process() {
        let first = IntBuildHasher::default().seed;
        let other = std::thread::spawn(|| IntBuildHasher::default().seed)
            .join()
            .expect("seed thread");
        assert_eq!(first, other);
    }

    #[test]
    fn int_map_round_trips() {
        let mut map: IntMap<u64, u64> = IntMap::default();
        for i in 0..10_000u64 {
            assert_eq!(map.insert(i << 32, i), None);
        }
        assert_eq!(map.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(map.get(&(i << 32)), Some(&i));
            assert_eq!(map.get(&((i << 32) | 1)), None);
        }
        for i in (0..10_000u64).step_by(2) {
            assert_eq!(map.remove(&(i << 32)), Some(i));
        }
        assert_eq!(map.len(), 5_000);
        assert_eq!(map.get(&(2 << 32)), None);
        assert_eq!(map.get(&(3 << 32)), Some(&3));
    }
}
