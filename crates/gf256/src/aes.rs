//! AES-128 in counter mode: the keystream shares draw their randomness
//! from.
//!
//! AES is arithmetic in this crate's field — GF(2⁸) modulo
//! x⁸ + x⁴ + x³ + x + 1 — so the cipher sits beside the other field
//! kernels and behind the same dispatch:
//! [`Backend::keystream`](crate::simd::Backend::keystream) runs it on
//! AES-NI (`simd`, 128-bit), VAES (`gfni`, 256-bit) or the ARMv8 AES
//! instructions (`neon`) where the host has them, and on the portable
//! implementation of this module everywhere else. Every backend writes
//! the same bytes.
//!
//! The portable cipher is constant-time: no table is indexed by key or
//! data and no branch depends on either. Its S-box is the definition,
//! the affine map of `x²⁵⁴` (the field inverse, zero to zero), with
//! `x²⁵⁴` computed by seven squarings and four multiplications, each
//! branch-free and on the whole block at once. The round keys are
//! expanded here, once per key, for every backend; a host with AES
//! instructions runs the key schedule's S-box on them.
//!
//! A keystream is `E(nonce ‖ counter)` for a 96-bit nonce and a
//! big-endian 32-bit block counter, block after block (NIST SP 800-38A
//! counter mode with the counter in the last four bytes; it wraps
//! modulo 2³²).

/// Bytes in one AES block.
pub const BLOCK: usize = 16;

/// An expanded AES-128 key: the eleven round keys, in the byte order
/// FIPS-197 gives them.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; BLOCK]; 11],
}

impl core::fmt::Debug for Aes128 {
    /// Names the type only: round keys are key material.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Aes128 { .. }")
    }
}

impl Aes128 {
    /// Expands `key` (FIPS-197 §5.2), in constant time.
    #[must_use]
    pub fn new(key: &[u8; BLOCK]) -> Aes128 {
        Aes128::expand(key, sub_word)
    }

    /// The key schedule, its S-box `sub_word`.
    fn expand(key: &[u8; BLOCK], sub_word: fn(u32) -> u32) -> Aes128 {
        let mut round_keys = [[0u8; BLOCK]; 11];
        round_keys[0] = *key;
        let mut rcon = 1u8;
        for r in 1..11 {
            let prev = round_keys[r - 1];
            let last = [prev[13], prev[14], prev[15], prev[12]];
            let sub = sub_word(u32::from_le_bytes(last)).to_le_bytes();
            let mut word = [sub[0] ^ rcon, sub[1], sub[2], sub[3]];
            for c in 0..4 {
                for i in 0..4 {
                    word[i] ^= prev[4 * c + i];
                }
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&word);
            }
            rcon = xtime(u64::from(rcon)) as u8;
        }
        Aes128 { round_keys }
    }

    /// The round keys, first to last.
    pub(crate) fn round_keys(&self) -> &[[u8; BLOCK]; 11] {
        &self.round_keys
    }

    /// Encrypts one block (FIPS-197 §5.1) in constant time.
    fn encrypt(&self, block: &mut [u8; BLOCK]) {
        let mut s = xor(*block, &self.round_keys[0]);
        for r in 1..11 {
            let [lo, hi] = sub_bytes([
                u64::from_le_bytes(s[..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(s[8..].try_into().expect("8 bytes")),
            ]);
            s[..8].copy_from_slice(&lo.to_le_bytes());
            s[8..].copy_from_slice(&hi.to_le_bytes());
            s = shift_rows(s);
            if r < 10 {
                s = mix_columns(s);
            }
            s = xor(s, &self.round_keys[r]);
        }
        *block = s;
    }
}

/// The portable keystream: `out` ← `E(nonce ‖ first)`, `E(nonce ‖
/// first + 1)`, … truncated to `out`'s length.
pub(crate) fn keystream(aes: &Aes128, nonce: &[u8; 12], first: u32, out: &mut [u8]) {
    let mut counter = first;
    for chunk in out.chunks_mut(BLOCK) {
        let mut block = counter_block(nonce, counter);
        aes.encrypt(&mut block);
        chunk.copy_from_slice(&block[..chunk.len()]);
        counter = counter.wrapping_add(1);
    }
}

/// The S-box on each byte of `word`: on AES instructions where the
/// active backend has them, which makes a key schedule some fifty
/// times cheaper, else [`sub_word_portable`].
fn sub_word(word: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::Backend::active().has_aes() {
        return crate::arch::x86_aes::sub_word(word);
    }
    sub_word_portable(word)
}

fn sub_word_portable(word: u32) -> u32 {
    sub_bytes([u64::from(word), 0])[0] as u32
}

/// `nonce ‖ counter`, the counter big-endian.
pub(crate) fn counter_block(nonce: &[u8; 12], counter: u32) -> [u8; BLOCK] {
    let mut block = [0u8; BLOCK];
    block[..12].copy_from_slice(nonce);
    block[12..].copy_from_slice(&counter.to_be_bytes());
    block
}

fn xor(mut a: [u8; BLOCK], b: &[u8; BLOCK]) -> [u8; BLOCK] {
    for (x, y) in a.iter_mut().zip(b) {
        *x ^= y;
    }
    a
}

/// Byte `i` of every lane.
const LANES: u64 = 0x0101_0101_0101_0101;

/// A block as two words of eight bytes, the width the S-box runs at.
type Words = [u64; 2];

/// `f` on every word.
#[inline(always)]
fn each(a: Words, f: impl Fn(u64) -> u64) -> Words {
    core::array::from_fn(|i| f(a[i]))
}

/// `f` on every pair of words.
#[inline(always)]
fn zip(a: Words, b: Words, f: impl Fn(u64, u64) -> u64) -> Words {
    core::array::from_fn(|i| f(a[i], b[i]))
}

/// Each lane's low bit widened to the whole lane (`0` or `0xff`),
/// without a multiplication, which the baseline vector units lack.
#[inline(always)]
fn widen(bits: u64) -> u64 {
    (bits << 8).wrapping_sub(bits)
}

/// Eight products by `x` at once, one per byte.
#[inline(always)]
fn xtime(a: u64) -> u64 {
    let carry = (a >> 7) & LANES;
    ((a & (LANES * 0x7f)) << 1) ^ carry ^ (carry << 1) ^ (carry << 3) ^ (carry << 4)
}

/// A block's field products, byte by byte, with no branch and no
/// table: shift-and-add over the bits of `b`.
#[inline(always)]
fn mul(a: Words, b: Words) -> Words {
    let mut acc = [0; 2];
    let mut a = a;
    for i in 0..8 {
        acc = zip(
            acc,
            zip(a, b, |a, b| a & widen((b >> i) & LANES)),
            |x, y| x ^ y,
        );
        a = each(a, xtime);
    }
    acc
}

/// A block's squares: squaring is linear over GF(2), so `a²` is
/// the sum of `x²ⁱ` over the bits `i` of `a`, each reduced once here.
#[inline(always)]
fn square(a: Words) -> Words {
    const POWERS: [u64; 8] = {
        let mut powers = [0; 8];
        let (mut i, mut p) = (0, 1u8);
        while i < 8 {
            powers[i] = LANES * p as u64;
            // x²⁽ⁱ⁺¹⁾ = x²ⁱ · x · x.
            let once = (p << 1) ^ if p & 0x80 != 0 { 0x1b } else { 0 };
            p = (once << 1) ^ if once & 0x80 != 0 { 0x1b } else { 0 };
            i += 1;
        }
        powers
    };
    let mut acc = [0; 2];
    for (i, power) in POWERS.iter().enumerate() {
        acc = zip(acc, each(a, |a| widen((a >> i) & LANES) & power), |x, y| {
            x ^ y
        });
    }
    acc
}

/// A block's bytes through the S-box: the affine map of `x²⁵⁴`.
#[inline]
fn sub_bytes(x: Words) -> Words {
    let x3 = mul(square(x), x);
    let x6 = square(x3);
    let x15 = mul(square(x6), x3);
    let x120 = square(square(square(x15)));
    let x127 = mul(mul(x120, x6), x);
    each(square(x127), |inv| {
        inv ^ rotl(inv, 1) ^ rotl(inv, 2) ^ rotl(inv, 3) ^ rotl(inv, 4) ^ (LANES * 0x63)
    })
}

/// Each byte rotated left by `n` bits.
#[inline(always)]
fn rotl(v: u64, n: u32) -> u64 {
    let high = LANES * u64::from(0xffu8 << n);
    ((v << n) & high) | ((v >> (8 - n)) & !high)
}

/// Row `r` moves `r` columns left; byte `4c + r` is row `r` of column
/// `c`.
fn shift_rows(s: [u8; BLOCK]) -> [u8; BLOCK] {
    core::array::from_fn(|i| s[(i + 4 * (i % 4)) % BLOCK])
}

/// Each column times `3x³ + x² + x + 2`, two columns per word.
fn mix_columns(s: [u8; BLOCK]) -> [u8; BLOCK] {
    let mut out = [0u8; BLOCK];
    for (half, o) in s.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
        let a = u64::from_le_bytes(half.try_into().expect("8 bytes"));
        // Row i + 1 of each column moved to row i, within the column.
        let next = ((a >> 8) & 0x00ff_ffff_00ff_ffff) | ((a << 24) & 0xff00_0000_ff00_0000);
        let two_down = ((a >> 16) & 0x0000_ffff_0000_ffff) | ((a << 16) & 0xffff_0000_ffff_0000);
        let three_down = ((a >> 24) & 0x0000_00ff_0000_00ff) | ((a << 8) & 0xffff_ff00_ffff_ff00);
        let b = xtime(a ^ next) ^ next ^ two_down ^ three_down;
        o.copy_from_slice(&b.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    /// The S-box of FIPS-197 Figure 7 at a few points, and the field
    /// definition at all of them.
    #[test]
    fn s_box_is_the_affine_map_of_the_inverse() {
        for (x, want) in [(0x00u8, 0x63u8), (0x01, 0x7c), (0x53, 0xed), (0xff, 0x16)] {
            assert_eq!(sub_bytes([u64::from(x), 0])[0] as u8, want, "S({x:#04x})");
        }
        for x in 0..=255u8 {
            let inv = Gf256::new(x).inv().map_or(0, Gf256::value);
            let affine = inv
                ^ inv.rotate_left(1)
                ^ inv.rotate_left(2)
                ^ inv.rotate_left(3)
                ^ inv.rotate_left(4)
                ^ 0x63;
            let lanes = sub_bytes([LANES * u64::from(x); 2]);
            let want = [LANES * u64::from(affine); 2];
            assert_eq!(lanes, want, "S({x:#04x}) in every lane");
        }
    }

    /// The key schedule's S-box on AES instructions, where the host has
    /// them, is the portable one.
    #[test]
    fn every_key_schedule_is_the_portable_one() {
        for seed in 0..64u8 {
            let key = core::array::from_fn(|i| {
                seed.wrapping_mul(29)
                    .wrapping_add((i as u8).wrapping_mul(101))
            });
            let portable = Aes128::expand(&key, sub_word_portable);
            assert_eq!(Aes128::new(&key).round_keys(), portable.round_keys());
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        assert_eq!(format!("{:?}", Aes128::new(&[7; 16])), "Aes128 { .. }");
    }
}
