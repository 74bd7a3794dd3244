//! Arithmetic in the finite field GF(2⁸), the substrate for Shamir secret
//! sharing as used by multichannel secret sharing protocols.
//!
//! The field is constructed as GF(2)\[x\] modulo the AES reduction polynomial
//! x⁸ + x⁴ + x³ + x + 1 (0x11b). Multiplication and inversion are table
//! driven; the log/exp tables are computed at compile time from the
//! generator 0x03, so scalar arithmetic has no runtime initialization and
//! no `unsafe`. The bulk [`slice`](mod@slice) kernels additionally dispatch to
//! runtime-detected vector backends (GFNI `gf2p8mulb` and split-nibble
//! `pshufb` on x86_64; `vqtbl1q_u8` NEON on aarch64; a 256-entry table
//! row elsewhere) — see [`simd`] for the dispatch layer and the
//! `MCSS_GF256_BACKEND` override. The per-architecture kernels
//! themselves live in the private `arch` module tree.
//!
//! # Examples
//!
//! ```
//! use mcss_gf256::Gf256;
//!
//! let a = Gf256::new(0x57);
//! let b = Gf256::new(0x83);
//! assert_eq!(a * b, Gf256::new(0xc1)); // the classic AES example
//! assert_eq!((a / b) * b, a);
//! assert_eq!(a + a, Gf256::ZERO); // characteristic 2
//! ```

mod arch;
pub mod poly;
pub mod simd;
pub mod slice;

pub use poly::Poly;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Multiplicative order of the field (number of nonzero elements).
pub const GROUP_ORDER: usize = 255;

/// The AES reduction polynomial x⁸ + x⁴ + x³ + x + 1, with the x⁸ bit kept.
const REDUCTION_POLY: u16 = 0x11b;

/// Generator of the multiplicative group used to build the log/exp tables.
const GENERATOR: u8 = 0x03;

/// Carry-less multiply of two field elements followed by reduction, used
/// only at compile time to build the tables.
const fn mul_slow(a: u8, b: u8) -> u8 {
    let mut acc: u16 = 0;
    let mut a16 = a as u16;
    let mut b16 = b as u16;
    while b16 != 0 {
        if b16 & 1 != 0 {
            acc ^= a16;
        }
        a16 <<= 1;
        if a16 & 0x100 != 0 {
            a16 ^= REDUCTION_POLY;
        }
        b16 >>= 1;
    }
    acc as u8
}

const fn build_exp() -> [u8; 512] {
    // EXP is doubled so that `EXP[log a + log b]` never needs a modular
    // reduction: log a + log b < 2 * 255.
    let mut exp = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x;
        exp[i + GROUP_ORDER] = x;
        x = mul_slow(x, GENERATOR);
        i += 1;
    }
    // Positions 510 and 511 are never indexed (max index is 508) but must
    // hold something deterministic.
    exp[2 * GROUP_ORDER] = 1;
    exp[2 * GROUP_ORDER + 1] = exp[1];
    exp
}

const fn build_log(exp: &[u8; 512]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < GROUP_ORDER {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    // log[0] is undefined mathematically; it is never consulted because all
    // multiplication paths test for zero first.
    log
}

pub(crate) const EXP: [u8; 512] = build_exp();
pub(crate) const LOG: [u8; 256] = build_log(&EXP);

/// The doubled EXP table really removes the modular reduction: the
/// largest reachable index is `2·(GROUP_ORDER − 1)`.
const _: () = assert!(2 * (GROUP_ORDER - 1) < EXP.len());

/// An element of GF(2⁸).
///
/// `Gf256` is a transparent wrapper over `u8` implementing field arithmetic
/// through the standard operator traits. Addition and subtraction are both
/// XOR (the field has characteristic 2), multiplication and division are
/// log/exp table lookups.
///
/// # Examples
///
/// ```
/// use mcss_gf256::Gf256;
///
/// let x = Gf256::new(7);
/// assert_eq!(x * x.inv().unwrap(), Gf256::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Gf256(u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator 0x03 whose powers enumerate all nonzero elements.
    pub const GENERATOR: Gf256 = Gf256(GENERATOR);

    /// Wraps a byte as a field element.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_gf256::Gf256;
    /// assert_eq!(Gf256::new(0), Gf256::ZERO);
    /// ```
    #[inline]
    #[must_use]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the underlying byte.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_gf256::Gf256;
    /// assert_eq!(Gf256::new(42).value(), 42);
    /// ```
    #[inline]
    #[must_use]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` for the additive identity.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_gf256::Gf256;
    /// assert!(Gf256::ZERO.is_zero());
    /// assert!(!Gf256::ONE.is_zero());
    /// ```
    #[inline]
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplicative inverse, or `None` for zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_gf256::Gf256;
    /// assert_eq!(Gf256::ONE.inv(), Some(Gf256::ONE));
    /// assert_eq!(Gf256::ZERO.inv(), None);
    /// ```
    #[inline]
    #[must_use]
    pub fn inv(self) -> Option<Self> {
        if self.is_zero() {
            None
        } else if self.0 == 1 {
            Some(Gf256::ONE)
        } else {
            Some(Gf256(EXP[GROUP_ORDER - LOG[self.0 as usize] as usize]))
        }
    }

    /// Raises the element to an integer power, with the convention
    /// `x⁰ = 1` for every `x` including zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_gf256::Gf256;
    /// let g = Gf256::GENERATOR;
    /// assert_eq!(g.pow(255), Gf256::ONE); // group order
    /// assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
    /// assert_eq!(Gf256::ZERO.pow(3), Gf256::ZERO);
    /// ```
    #[must_use]
    pub fn pow(self, exp: u32) -> Self {
        if exp == 0 {
            return Gf256::ONE;
        }
        if self.is_zero() {
            return Gf256::ZERO;
        }
        let log = LOG[self.0 as usize] as u64;
        let idx = (log * exp as u64) % GROUP_ORDER as u64;
        Gf256(EXP[idx as usize])
    }

    /// Iterator over every field element, 0 through 255.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_gf256::Gf256;
    /// assert_eq!(Gf256::all().count(), 256);
    /// ```
    pub fn all() -> impl Iterator<Item = Gf256> {
        (0u16..256).map(|v| Gf256(v as u8))
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(value: Gf256) -> Self {
        value.0
    }
}

impl core::fmt::Display for Gf256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl core::fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl core::fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::UpperHex::fmt(&self.0, f)
    }
}

impl core::fmt::Binary for Gf256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Binary::fmt(&self.0, f)
    }
}

impl core::fmt::Octal for Gf256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Octal::fmt(&self.0, f)
    }
}

impl core::ops::Add for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // field addition IS xor
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl core::ops::AddAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // field addition IS xor
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl core::ops::Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // char 2: sub == add == xor
    fn sub(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl core::ops::SubAssign for Gf256 {
    #[inline]
    #[allow(clippy::suspicious_op_assign_impl)] // char 2: sub == add == xor
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl core::ops::Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        // In characteristic 2 every element is its own additive inverse.
        self
    }
}

impl core::ops::Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let idx = LOG[self.0 as usize] as usize + LOG[rhs.0 as usize] as usize;
        Gf256(EXP[idx])
    }
}

impl core::ops::MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl core::ops::Div for Gf256 {
    type Output = Gf256;

    /// # Panics
    ///
    /// Panics when dividing by zero; use [`Gf256::inv`] to handle the zero
    /// case explicitly.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division by inverse
    fn div(self, rhs: Gf256) -> Gf256 {
        let inv = rhs.inv().expect("division by zero in GF(256)");
        self * inv
    }
}

impl core::ops::DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl core::iter::Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |acc, x| acc + x)
    }
}

impl<'a> core::iter::Sum<&'a Gf256> for Gf256 {
    fn sum<I: Iterator<Item = &'a Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |acc, x| acc + *x)
    }
}

impl core::iter::Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |acc, x| acc * x)
    }
}

impl<'a> core::iter::Product<&'a Gf256> for Gf256 {
    fn product<I: Iterator<Item = &'a Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |acc, x| acc * *x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes_reference_product() {
        // 0x57 * 0x83 = 0xc1 is the worked example in FIPS-197.
        assert_eq!(Gf256::new(0x57) * Gf256::new(0x83), Gf256::new(0xc1));
    }

    #[test]
    fn aes_reference_product_x13() {
        // 0x57 * 0x13 = 0xfe, also from FIPS-197.
        assert_eq!(Gf256::new(0x57) * Gf256::new(0x13), Gf256::new(0xfe));
    }

    #[test]
    fn addition_is_xor() {
        assert_eq!(Gf256::new(0b1010) + Gf256::new(0b0110), Gf256::new(0b1100));
    }

    #[test]
    fn subtraction_equals_addition() {
        for a in Gf256::all() {
            assert_eq!(a - a, Gf256::ZERO);
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(-a, a);
        }
    }

    #[test]
    fn zero_is_additive_identity() {
        for a in Gf256::all() {
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(Gf256::ZERO + a, a);
        }
    }

    #[test]
    fn one_is_multiplicative_identity() {
        for a in Gf256::all() {
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(Gf256::ONE * a, a);
        }
    }

    #[test]
    fn zero_annihilates() {
        for a in Gf256::all() {
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
            assert_eq!(Gf256::ZERO * a, Gf256::ZERO);
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in Gf256::all().skip(1) {
            let inv = a.inv().expect("nonzero must invert");
            assert_eq!(a * inv, Gf256::ONE, "a = {a}");
            assert_eq!(a / a, Gf256::ONE);
        }
        assert_eq!(Gf256::ZERO.inv(), None);
    }

    #[test]
    fn multiplication_matches_slow_reference() {
        // Exhaustive 64k cross-check of the table path vs the shift-and-add
        // reference used to build the tables.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(
                    (Gf256::new(a) * Gf256::new(b)).value(),
                    mul_slow(a, b),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        let mut x = Gf256::ONE;
        for _ in 0..GROUP_ORDER {
            assert!(!seen[x.value() as usize], "generator order < 255");
            seen[x.value() as usize] = true;
            x *= Gf256::GENERATOR;
        }
        assert_eq!(x, Gf256::ONE);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 5, 87, 255] {
            let a = Gf256::new(a);
            let mut acc = Gf256::ONE;
            for e in 0..600u32 {
                assert_eq!(a.pow(e), acc, "a={a} e={e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn pow_exponent_arithmetic() {
        let g = Gf256::GENERATOR;
        assert_eq!(g.pow(256), g.pow(1));
        assert_eq!(g.pow(510), Gf256::ONE);
    }

    #[test]
    fn sum_and_product_fold() {
        let xs = [Gf256::new(1), Gf256::new(2), Gf256::new(3)];
        assert_eq!(xs.iter().sum::<Gf256>(), Gf256::new(1 ^ 2 ^ 3));
        assert_eq!(
            xs.iter().product::<Gf256>(),
            Gf256::new(1) * Gf256::new(2) * Gf256::new(3)
        );
    }

    #[test]
    fn display_formats() {
        let x = Gf256::new(0xab);
        assert_eq!(format!("{x}"), "0xab");
        assert_eq!(format!("{x:x}"), "ab");
        assert_eq!(format!("{x:X}"), "AB");
        assert_eq!(format!("{x:08b}"), "10101011");
    }

    #[test]
    fn conversions_round_trip() {
        for b in 0..=255u8 {
            assert_eq!(u8::from(Gf256::from(b)), b);
        }
    }
}
