//! The canonical field element type.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::reduce;

/// The Solinas prime `p = 2^64 − 2^32 + 1` chosen by the paper (Section III).
pub const P: u64 = 0xFFFF_FFFF_0000_0001;

/// `ε = 2^64 − p = 2^32 − 1`; folding a carry out of 64 bits adds `ε`.
pub const EPSILON: u64 = 0xFFFF_FFFF;

/// `POW2[s] = 2^s mod p` for every `s < 192 = ord(2)`: the whole cyclic
/// group the shift twiddles live in.
const POW2: [Fp; 192] = {
    let mut table = [Fp(0); 192];
    let mut v = 1u64;
    let mut s = 0;
    while s < 192 {
        table[s] = Fp(v);
        v = ((v as u128 * 2) % P as u128) as u64;
        s += 1;
    }
    table
};

/// An element of `F_p` with `p = 2^64 − 2^32 + 1`, stored canonically in
/// `[0, p)`.
///
/// Multiplication reduces through the identities behind the paper's Eq. 4
/// (`2^64 ≡ ε`, `2^96 ≡ −1`), applied on whole 64-bit words with branch-free
/// fix-ups (see [`crate::reduce`]; the word-level *Normalize*/*AddMod* model
/// of the hardware lives there too).
///
/// # Example
///
/// ```
/// use he_field::Fp;
///
/// let a = Fp::new(5);
/// let b = a.inverse().expect("5 is invertible");
/// assert_eq!(a * b, Fp::ONE);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fp(u64);

/// Error returned by [`Fp::try_from`] for a non-canonical residue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryFromIntError {
    value: u64,
}

impl TryFromIntError {
    /// The offending value (`≥ p`).
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl fmt::Display for TryFromIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value {:#x} is not a canonical residue modulo p",
            self.value
        )
    }
}

impl std::error::Error for TryFromIntError {}

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);
    /// The element `2`, whose multiplicative order is 192.
    pub const TWO: Fp = Fp(2);
    /// `p − 1`, i.e. `−1`.
    pub const NEG_ONE: Fp = Fp(P - 1);
    /// The order of the multiplicative group, `p − 1 = 2^32 · (2^32 − 1)`.
    pub const GROUP_ORDER: u64 = P - 1;
    /// The 2-adicity of `p − 1`: the group contains roots of unity of every
    /// power-of-two order up to `2^32`.
    pub const TWO_ADICITY: u32 = 32;

    /// Creates an element, reducing `value` modulo `p`.
    ///
    /// ```
    /// use he_field::{Fp, P};
    /// assert_eq!(Fp::new(P), Fp::ZERO);
    /// assert_eq!(Fp::new(P + 3), Fp::new(3));
    /// ```
    #[inline]
    pub const fn new(value: u64) -> Fp {
        // At most one subtraction: value < 2^64 < 2p.
        if value >= P {
            Fp(value - P)
        } else {
            Fp(value)
        }
    }

    /// Creates an element from a canonical residue without reduction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `value ≥ p`.
    #[inline]
    pub const fn from_canonical(value: u64) -> Fp {
        debug_assert!(value < P);
        Fp(value)
    }

    /// Creates an element by fully reducing a 128-bit value with Eq. 4.
    #[inline]
    pub fn from_u128(value: u128) -> Fp {
        Fp(reduce::reduce128(value))
    }

    /// The canonical residue in `[0, p)`.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Doubles the element.
    #[inline]
    pub fn double(self) -> Fp {
        self + self
    }

    /// Squares the element.
    #[inline]
    pub fn square(self) -> Fp {
        self * self
    }

    /// Raises the element to the power `exp` by square-and-multiply.
    ///
    /// ```
    /// use he_field::Fp;
    /// assert_eq!(Fp::TWO.pow(192), Fp::ONE); // ord(2) = 192
    /// assert_eq!(Fp::TWO.pow(96), -Fp::ONE); // 2^96 = -1
    /// ```
    pub fn pow(self, mut exp: u64) -> Fp {
        let mut base = self;
        let mut acc = Fp::ONE;
        while exp != 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base = base.square();
            exp >>= 1;
        }
        acc
    }

    /// The multiplicative inverse, or `None` for zero.
    ///
    /// Computed as `self^(p−2)` (Fermat).
    ///
    /// ```
    /// use he_field::Fp;
    /// assert_eq!(Fp::ZERO.inverse(), None);
    /// let x = Fp::new(123_456_789);
    /// assert_eq!(x * x.inverse().unwrap(), Fp::ONE);
    /// ```
    pub fn inverse(self) -> Option<Fp> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(P - 2))
        }
    }

    /// Multiplies by `2^shift` where `shift` is taken modulo 192.
    ///
    /// Because `2^96 ≡ −1 (mod p)`, every power of two is `±2^s` with
    /// `s < 96`; the accelerator's shifter banks implement exactly this (the
    /// paper's Eq. 3 twiddles `8^{ik} = 2^{3ik}`). In hardware the shift is
    /// free wiring; on a CPU the branchy shift-and-fold costs more than one
    /// 64×64 multiply, so this multiplies by `2^shift` from a 192-entry
    /// constant table instead.
    ///
    /// ```
    /// use he_field::Fp;
    /// let x = Fp::new(0xdead_beef);
    /// assert_eq!(x.mul_by_pow2(0), x);
    /// assert_eq!(x.mul_by_pow2(96), -x);
    /// assert_eq!(x.mul_by_pow2(192), x);
    /// assert_eq!(x.mul_by_pow2(3), x * Fp::new(8));
    /// ```
    #[inline]
    pub fn mul_by_pow2(self, shift: u32) -> Fp {
        self * POW2[(shift % 192) as usize]
    }

    /// Exponent `s` such that `self = 2^s (mod p)`, if the element is a power
    /// of two; `s` is unique modulo 192.
    pub fn log2_of_pow2(self) -> Option<u32> {
        let mut probe = Fp::ONE;
        for s in 0..192 {
            if probe == self {
                return Some(s);
            }
            probe = probe.double();
        }
        None
    }

    /// Batch inversion by Montgomery's trick: one field inversion plus
    /// `3(n−1)` multiplications.
    ///
    /// # Panics
    ///
    /// Panics if any element is zero.
    pub fn batch_inverse(values: &mut [Fp]) {
        if values.is_empty() {
            return;
        }
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Fp::ONE;
        for &v in values.iter() {
            assert!(!v.is_zero(), "batch_inverse: zero element");
            prefix.push(acc);
            acc *= v;
        }
        let mut inv = acc.inverse().expect("product of nonzero elements");
        for i in (0..values.len()).rev() {
            let orig = values[i];
            values[i] = inv * prefix[i];
            inv *= orig;
        }
    }
}

impl AsRef<u64> for Fp {
    #[inline]
    fn as_ref(&self) -> &u64 {
        &self.0
    }
}

impl From<u32> for Fp {
    #[inline]
    fn from(value: u32) -> Fp {
        Fp(value as u64)
    }
}

impl From<u16> for Fp {
    #[inline]
    fn from(value: u16) -> Fp {
        Fp(value as u64)
    }
}

impl From<u8> for Fp {
    #[inline]
    fn from(value: u8) -> Fp {
        Fp(value as u64)
    }
}

impl From<bool> for Fp {
    #[inline]
    fn from(value: bool) -> Fp {
        Fp(value as u64)
    }
}

impl TryFrom<u64> for Fp {
    type Error = TryFromIntError;

    /// Accepts only canonical residues; use [`Fp::new`] to reduce instead.
    fn try_from(value: u64) -> Result<Fp, TryFromIntError> {
        if value < P {
            Ok(Fp(value))
        } else {
            Err(TryFromIntError { value })
        }
    }
}

impl From<Fp> for u64 {
    #[inline]
    fn from(value: Fp) -> u64 {
        value.0
    }
}

impl Add for Fp {
    type Output = Fp;

    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        let (sum, carry) = self.0.overflowing_add(rhs.0);
        // A carry out of 64 bits is worth 2^64 ≡ ε (mod p). sum < p ≤ 2^64−ε
        // in the carry case, so adding ε cannot overflow again after one
        // conditional correction.
        let mut r = sum;
        if carry {
            r = r.wrapping_add(EPSILON);
        }
        Fp::new(r)
    }
}

impl AddAssign for Fp {
    #[inline]
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}

impl Sub for Fp {
    type Output = Fp;

    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        let (diff, borrow) = self.0.overflowing_sub(rhs.0);
        let r = if borrow { diff.wrapping_add(P) } else { diff };
        Fp(r)
    }
}

impl SubAssign for Fp {
    #[inline]
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}

impl Neg for Fp {
    type Output = Fp;

    #[inline]
    fn neg(self) -> Fp {
        if self.0 == 0 {
            self
        } else {
            Fp(P - self.0)
        }
    }
}

impl Mul for Fp {
    type Output = Fp;

    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        Fp(reduce::reduce128((self.0 as u128) * (rhs.0 as u128)))
    }
}

impl MulAssign for Fp {
    #[inline]
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}

impl Div for Fp {
    type Output = Fp;

    /// # Panics
    ///
    /// Panics on division by zero.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS inverse-multiply here
    fn div(self, rhs: Fp) -> Fp {
        self * rhs.inverse().expect("division by zero in Fp")
    }
}

impl DivAssign for Fp {
    #[inline]
    fn div_assign(&mut self, rhs: Fp) {
        *self = *self / rhs;
    }
}

impl Sum for Fp {
    fn sum<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Fp> for Fp {
    fn sum<I: Iterator<Item = &'a Fp>>(iter: I) -> Fp {
        iter.copied().sum()
    }
}

impl Product for Fp {
    fn product<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ONE, Mul::mul)
    }
}

impl<'a> Product<&'a Fp> for Fp {
    fn product<I: Iterator<Item = &'a Fp>>(iter: I) -> Fp {
        iter.copied().product()
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mod_mul(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % (P as u128)) as u64
    }

    #[test]
    fn new_reduces() {
        assert_eq!(Fp::new(P).as_u64(), 0);
        assert_eq!(Fp::new(u64::MAX).as_u64(), u64::MAX - P);
        assert_eq!(Fp::new(P - 1).as_u64(), P - 1);
    }

    #[test]
    fn add_wraps_correctly() {
        let a = Fp::new(P - 1);
        assert_eq!(a + Fp::ONE, Fp::ZERO);
        assert_eq!(a + a, Fp::new(P - 2));
        assert_eq!(Fp::ZERO + Fp::ZERO, Fp::ZERO);
        // Near-2^64 operands exercise the carry path.
        let b = Fp::new(P - 1);
        let c = Fp::new(P - 2);
        assert_eq!(
            (b + c).as_u64(),
            ((P as u128 - 1 + P as u128 - 2) % P as u128) as u64
        );
    }

    #[test]
    fn sub_borrows_correctly() {
        assert_eq!(Fp::ZERO - Fp::ONE, Fp::NEG_ONE);
        assert_eq!(Fp::new(5) - Fp::new(7), Fp::ZERO - Fp::TWO);
    }

    #[test]
    fn mul_matches_naive() {
        let samples = [
            0u64,
            1,
            2,
            EPSILON,
            EPSILON + 1,
            1 << 32,
            u32::MAX as u64,
            P - 1,
            P - 2,
            0x1234_5678_9abc_def0,
            0xfedc_ba98_7654_3210 % P,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    (Fp::new(a) * Fp::new(b)).as_u64(),
                    naive_mod_mul(a % P, b % P),
                    "a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn two_has_order_192() {
        assert_eq!(Fp::TWO.pow(192), Fp::ONE);
        assert_eq!(Fp::TWO.pow(96), Fp::NEG_ONE);
        for d in [1u64, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96] {
            assert_ne!(Fp::TWO.pow(d), Fp::ONE, "2^{d} must not be 1");
        }
    }

    #[test]
    fn mul_by_pow2_matches_mul() {
        let x = Fp::new(0x1234_5678_9abc_def0);
        let mut expected = x;
        for s in 0..=384u32 {
            assert_eq!(x.mul_by_pow2(s), expected, "shift {s}");
            expected = expected.double();
        }
    }

    #[test]
    fn log2_of_pow2_roundtrips() {
        for s in 0..192 {
            assert_eq!(Fp::ONE.mul_by_pow2(s).log2_of_pow2(), Some(s));
        }
        assert_eq!(Fp::new(5).log2_of_pow2(), None);
    }

    #[test]
    fn inverse_and_div() {
        for v in [1u64, 2, 3, 8, EPSILON, P - 1] {
            let x = Fp::new(v);
            assert_eq!(x * x.inverse().unwrap(), Fp::ONE);
            assert_eq!((x / x), Fp::ONE);
        }
        assert_eq!(Fp::ZERO.inverse(), None);
    }

    #[test]
    fn batch_inverse_matches_individual() {
        let mut values: Vec<Fp> = (1u64..40).map(Fp::new).collect();
        let expected: Vec<Fp> = values.iter().map(|v| v.inverse().unwrap()).collect();
        Fp::batch_inverse(&mut values);
        assert_eq!(values, expected);
    }

    #[test]
    fn try_from_rejects_noncanonical() {
        assert!(Fp::try_from(P - 1).is_ok());
        let err = Fp::try_from(P).unwrap_err();
        assert_eq!(err.value(), P);
        assert!(err.to_string().contains("not a canonical residue"));
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Fp::new(1), Fp::new(2), Fp::new(3)];
        assert_eq!(xs.iter().sum::<Fp>(), Fp::new(6));
        assert_eq!(xs.iter().product::<Fp>(), Fp::new(6));
        assert_eq!(xs.into_iter().sum::<Fp>(), Fp::new(6));
    }

    #[test]
    fn formatting() {
        let x = Fp::new(0xff);
        assert_eq!(format!("{x}"), "255");
        assert_eq!(format!("{x:x}"), "ff");
        assert_eq!(format!("{x:X}"), "FF");
        assert_eq!(format!("{x:b}"), "11111111");
        assert_eq!(format!("{x:o}"), "377");
        assert_eq!(format!("{x:?}"), "Fp(255)");
    }

    #[test]
    fn send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Fp>();
        assert_sync::<Fp>();
    }
}
