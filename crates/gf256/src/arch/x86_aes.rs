//! x86-64 AES-128 counter-mode keystream: AES-NI at 128 bits (one block
//! a vector), VAES at 256 (two).
//!
//! One kernel body, `ctr_kernel!`, is instantiated at both widths. It
//! keeps eight blocks in flight (eight 128-bit vectors or four 256-bit
//! ones) so the rounds of independent blocks overlap, and it runs the
//! last partial group the same way: the vectors it needs, all at once,
//! into a stack buffer whose head is copied out. The counter lives in a
//! byte-reversed vector, where the big-endian block counter is lane 0
//! of four 32-bit lanes and one `add` steps it; a byte shuffle turns it
//! back into the block.

#![cfg(target_arch = "x86_64")]

use crate::aes::{counter_block, Aes128, BLOCK};
use core::arch::x86_64::{
    __m128i, __m256i, _mm256_add_epi32, _mm256_aesenc_epi128, _mm256_aesenclast_epi128,
    _mm256_broadcastsi128_si256, _mm256_set_epi32, _mm256_shuffle_epi8, _mm256_storeu_si256,
    _mm256_xor_si256, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si32,
    _mm_set1_epi32, _mm_set_epi32, _mm_set_epi64x, _mm_set_epi8, _mm_setzero_si128,
    _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
};
use std::sync::OnceLock;

/// The AES width a backend's keystream runs at on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AesLevel {
    /// AES-NI, 16 bytes a vector.
    Ni,
    /// VAES with AVX2, 32 bytes a vector.
    Vaes,
}

/// Detects (once) the widest AES the host has, if any.
pub(crate) fn level() -> Option<AesLevel> {
    static LEVEL: OnceLock<Option<AesLevel>> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let ni = is_x86_feature_detected!("aes") && is_x86_feature_detected!("ssse3");
        if ni && is_x86_feature_detected!("vaes") && is_x86_feature_detected!("avx2") {
            Some(AesLevel::Vaes)
        } else if ni {
            Some(AesLevel::Ni)
        } else {
            None
        }
    })
}

/// Fills `out` with the keystream at `width`, which [`level`] must have
/// found (`Vaes` includes `Ni`).
pub(crate) fn keystream(
    width: AesLevel,
    aes: &Aes128,
    nonce: &[u8; 12],
    first: u32,
    out: &mut [u8],
) {
    assert!(level().is_some_and(|found| found == AesLevel::Vaes || width == AesLevel::Ni));
    // SAFETY: the assertion above is the runtime check of the features
    // each width's kernel is compiled for.
    unsafe {
        match width {
            AesLevel::Ni => ni::keystream(aes, nonce, first, out),
            AesLevel::Vaes => vaes::keystream(aes, nonce, first, out),
        }
    }
}

/// The S-box on each byte of `word`, the key schedule's `SubWord`: the
/// last AES round on four copies of the word (with every column equal,
/// `ShiftRows` moves nothing) under a zero round key.
pub(crate) fn sub_word(word: u32) -> u32 {
    assert!(level().is_some());
    // SAFETY: the assertion above checked AES-NI at runtime.
    unsafe { sub_word_ni(word) }
}

#[target_feature(enable = "aes,ssse3")]
fn sub_word_ni(word: u32) -> u32 {
    let v = _mm_aesenclast_si128(_mm_set1_epi32(word as i32), _mm_setzero_si128());
    _mm_cvtsi128_si32(v) as u32
}

/// The block `nonce ‖ counter`, byte-reversed: the counter is lane 0.
#[inline]
#[target_feature(enable = "sse2")]
fn reversed(nonce: &[u8; 12], counter: u32) -> __m128i {
    let mut block = counter_block(nonce, counter);
    block.reverse();
    let lo = u64::from_le_bytes(block[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(block[8..].try_into().expect("8 bytes"));
    _mm_set_epi64x(hi as i64, lo as i64)
}

/// A round key as a vector.
#[inline]
#[target_feature(enable = "sse2")]
fn round_key(key: &[u8; BLOCK]) -> __m128i {
    let lo = u64::from_le_bytes(key[..8].try_into().expect("8 bytes"));
    let hi = u64::from_le_bytes(key[8..].try_into().expect("8 bytes"));
    _mm_set_epi64x(hi as i64, lo as i64)
}

#[inline]
#[target_feature(enable = "aes,ssse3")]
fn ni_keys(keys: &[[u8; BLOCK]; 11]) -> [__m128i; 11] {
    keys.map(|k| round_key(&k))
}

#[inline]
#[target_feature(enable = "aes,ssse3")]
fn ni_counter(nonce: &[u8; 12], first: u32) -> (__m128i, __m128i) {
    (reversed(nonce, first), _mm_set_epi32(0, 0, 0, 1))
}

#[inline]
#[target_feature(enable = "aes,ssse3")]
fn ni_unreverse(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

#[inline]
#[target_feature(enable = "vaes,avx2,aes")]
fn vaes_keys(keys: &[[u8; BLOCK]; 11]) -> [__m256i; 11] {
    keys.map(|k| _mm256_broadcastsi128_si256(round_key(&k)))
}

/// Blocks `first` and `first + 1` in the two lanes; steps of two.
#[inline]
#[target_feature(enable = "vaes,avx2,aes")]
fn vaes_counter(nonce: &[u8; 12], first: u32) -> (__m256i, __m256i) {
    let both = _mm256_broadcastsi128_si256(reversed(nonce, first));
    (
        _mm256_add_epi32(both, _mm256_set_epi32(0, 0, 0, 1, 0, 0, 0, 0)),
        _mm256_set_epi32(0, 0, 0, 2, 0, 0, 0, 2),
    )
}

#[inline]
#[target_feature(enable = "vaes,avx2,aes")]
fn vaes_unreverse(v: __m256i) -> __m256i {
    let mask = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    _mm256_shuffle_epi8(v, _mm256_broadcastsi128_si256(mask))
}

/// Generates module `$name`: the counter-mode keystream at one vector
/// width, `$lanes` vectors in flight. `tails` lists the vector counts a
/// last partial group can need, `1..=$lanes`.
macro_rules! ctr_kernel {
    (
        mod $name:ident, features: $feat:literal, width: $w:literal,
        lanes: $lanes:literal, tails: [$($v:literal)*],
        keys: $keys:ident, counter: $counter:ident, unreverse: $unreverse:ident,
        add: $add:ident, xor: $xor:ident, enc: $enc:ident, last: $last:ident,
        store: $store:ident, vector: $vec:ty $(,)?
    ) => {
        mod $name {
            use super::*;

            /// `out` ← the keystream from block `first` on.
            #[target_feature(enable = $feat)]
            pub(super) fn keystream(aes: &Aes128, nonce: &[u8; 12], first: u32, out: &mut [u8]) {
                let keys = $keys(aes.round_keys());
                let (mut counter, step) = $counter(nonce, first);
                let mut groups = out.chunks_exact_mut($lanes * $w);
                for group in &mut groups {
                    blocks::<$lanes>(&keys, &mut counter, step, group);
                }
                let rest = groups.into_remainder();
                if rest.is_empty() {
                    return;
                }
                let mut buf = [0u8; $lanes * $w];
                match rest.len().div_ceil($w) {
                    $($v => blocks::<$v>(&keys, &mut counter, step, &mut buf),)*
                    _ => unreachable!("a remainder is shorter than a group"),
                }
                rest.copy_from_slice(&buf[..rest.len()]);
            }

            /// `V` vectors of keystream into the head of `out`, all in
            /// flight at once; the counter moves past them.
            #[inline]
            #[target_feature(enable = $feat)]
            #[allow(clippy::needless_range_loop)] // iterator adaptors do not inline here
            fn blocks<const V: usize>(
                keys: &[$vec; 11],
                counter: &mut $vec,
                step: $vec,
                out: &mut [u8],
            ) {
                assert!(out.len() >= V * $w);
                let mut s = [keys[0]; V];
                for j in 0..V {
                    s[j] = $xor($unreverse(*counter), keys[0]);
                    *counter = $add(*counter, step);
                }
                for key in &keys[1..10] {
                    for j in 0..V {
                        s[j] = $enc(s[j], *key);
                    }
                }
                for j in 0..V {
                    let v = $last(s[j], keys[10]);
                    // SAFETY: j · width + width ≤ V · width ≤ out.len().
                    unsafe { $store(out.as_mut_ptr().add(j * $w).cast(), v) };
                }
            }
        }
    };
}

ctr_kernel! {
    mod ni, features: "aes,ssse3", width: 16, lanes: 8, tails: [1 2 3 4 5 6 7 8],
    keys: ni_keys, counter: ni_counter, unreverse: ni_unreverse,
    add: _mm_add_epi32, xor: _mm_xor_si128, enc: _mm_aesenc_si128, last: _mm_aesenclast_si128,
    store: _mm_storeu_si128, vector: __m128i,
}

ctr_kernel! {
    mod vaes, features: "vaes,avx2,aes", width: 32, lanes: 4, tails: [1 2 3 4],
    keys: vaes_keys, counter: vaes_counter, unreverse: vaes_unreverse,
    add: _mm256_add_epi32, xor: _mm256_xor_si256, enc: _mm256_aesenc_epi128,
    last: _mm256_aesenclast_epi128, store: _mm256_storeu_si256, vector: __m256i,
}
