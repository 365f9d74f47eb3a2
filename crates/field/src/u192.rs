//! A 192-bit end-around-carry accumulator.
//!
//! The FFT-64 unit's datapath keeps intermediate values in (up to) 192-bit
//! registers because `8^64 = 2^192 ≡ 1 (mod p)` bounds every twiddled sample
//! (paper, Section IV-b). The same identity means `p` divides `2^192 − 1`,
//! so arithmetic **modulo `2^192 − 1`** is compatible with arithmetic modulo
//! `p` — and modulo `2^192 − 1`:
//!
//! * addition is a 192-bit add whose carry-out wraps around to bit 0
//!   (end-around carry);
//! * multiplication by `2^s` is a plain **rotation** by `s` bits, which is
//!   what the unit's shifter banks implement;
//! * negation is bitwise complement (`x + !x = 2^192 − 1 ≡ 0`), which is how
//!   the adder tree realizes its *subtract* signal.
//!
//! [`U192`] models this datapath exactly; [`U192::to_fp`] is the Normalize +
//! AddMod back-end.

use core::fmt;

use crate::element::Fp;
use crate::reduce;

/// A 192-bit value interpreted modulo `2^192 − 1` (and therefore modulo
/// `p`), stored as three little-endian 64-bit limbs.
///
/// ```
/// use he_field::{Fp, U192};
///
/// let x = U192::from(Fp::new(12345));
/// let shifted = x.rotl(100); // multiply by 2^100
/// assert_eq!(shifted.to_fp(), Fp::new(12345).mul_by_pow2(100));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct U192 {
    limbs: [u64; 3],
}

impl U192 {
    /// The zero value.
    pub const ZERO: U192 = U192 { limbs: [0; 3] };

    /// Creates a value from three little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; 3]) -> U192 {
        U192 { limbs }
    }

    /// The little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> [u64; 3] {
        self.limbs
    }

    /// Adds with end-around carry (arithmetic modulo `2^192 − 1`).
    #[inline]
    pub fn wrapping_add(self, rhs: U192) -> U192 {
        let (l0, c0) = self.limbs[0].overflowing_add(rhs.limbs[0]);
        let (l1a, c1a) = self.limbs[1].overflowing_add(rhs.limbs[1]);
        let (l1, c1b) = l1a.overflowing_add(c0 as u64);
        let carry1 = (c1a as u64) + (c1b as u64); // ≤ 1 in practice, ≤ 2 formally
        let (l2a, c2a) = self.limbs[2].overflowing_add(rhs.limbs[2]);
        let (l2, c2b) = l2a.overflowing_add(carry1);
        let carry_out = (c2a as u64) + (c2b as u64);
        // End-around: a carry out of bit 191 re-enters at bit 0 with weight
        // 2^192 ≡ 1 (mod 2^192 − 1). Adding it back can ripple, but never
        // produces a second carry-out unless the value was all-ones.
        let mut out = [l0, l1, l2];
        let mut c = carry_out;
        let mut i = 0;
        while c != 0 {
            let (v, overflow) = out[i % 3].overflowing_add(c);
            out[i % 3] = v;
            c = overflow as u64;
            i += 1;
        }
        U192 { limbs: out }
    }

    /// Bitwise complement: the additive inverse modulo `2^192 − 1`.
    ///
    /// This is the hardware's *subtract* signal: subtracting a term from a
    /// carry-save tree is adding its complement.
    #[inline]
    pub fn complement(self) -> U192 {
        U192 {
            limbs: [!self.limbs[0], !self.limbs[1], !self.limbs[2]],
        }
    }

    /// Subtracts modulo `2^192 − 1`.
    #[inline]
    pub fn wrapping_sub(self, rhs: U192) -> U192 {
        // x − y = x + !y + 1 would be two's complement; mod 2^192−1 the +1 is
        // absorbed: x + !y ≡ x − y.
        self.wrapping_add(rhs.complement())
    }

    /// Rotates left by `s` bits: multiplication by `2^s` modulo `2^192 − 1`.
    ///
    /// The FFT-64 unit's shifter banks are exactly this operation (Eq. 3
    /// twiddles are `2^{3ik}`).
    #[inline]
    pub fn rotl(self, s: u32) -> U192 {
        let s = s % 192;
        // Whole-limb rotation first, then a sub-limb shift. This form is
        // branch-lean (one three-way match plus one `k == 0` test); the
        // shift-only FFT-64 models execute one rotation per butterfly term.
        let [a, b, c] = self.limbs;
        let [a, b, c] = match s / 64 {
            0 => [a, b, c],
            1 => [c, a, b],
            _ => [b, c, a],
        };
        let k = s % 64;
        if k == 0 {
            return U192 { limbs: [a, b, c] };
        }
        U192 {
            limbs: [
                (a << k) | (c >> (64 - k)),
                (b << k) | (a >> (64 - k)),
                (c << k) | (b >> (64 - k)),
            ],
        }
    }

    /// Reduces to the canonical field element (the Normalize + AddMod
    /// back-end of the unit).
    #[inline]
    pub fn to_fp(self) -> Fp {
        let lo = (self.limbs[0] as u128) | ((self.limbs[1] as u128) << 64);
        Fp::new(reduce::reduce192(lo, self.limbs[2]))
    }

    /// Whether the value represents zero (either the all-zeros or the
    /// all-ones pattern, which are congruent modulo `2^192 − 1`).
    #[inline]
    pub fn is_zero(self) -> bool {
        self.limbs == [0; 3] || self.limbs == [u64::MAX; 3]
    }
}

impl core::ops::BitXor for U192 {
    type Output = U192;

    #[inline]
    fn bitxor(self, rhs: U192) -> U192 {
        U192 {
            limbs: [
                self.limbs[0] ^ rhs.limbs[0],
                self.limbs[1] ^ rhs.limbs[1],
                self.limbs[2] ^ rhs.limbs[2],
            ],
        }
    }
}

impl core::ops::BitAnd for U192 {
    type Output = U192;

    #[inline]
    fn bitand(self, rhs: U192) -> U192 {
        U192 {
            limbs: [
                self.limbs[0] & rhs.limbs[0],
                self.limbs[1] & rhs.limbs[1],
                self.limbs[2] & rhs.limbs[2],
            ],
        }
    }
}

impl core::ops::BitOr for U192 {
    type Output = U192;

    #[inline]
    fn bitor(self, rhs: U192) -> U192 {
        U192 {
            limbs: [
                self.limbs[0] | rhs.limbs[0],
                self.limbs[1] | rhs.limbs[1],
                self.limbs[2] | rhs.limbs[2],
            ],
        }
    }
}

impl From<Fp> for U192 {
    #[inline]
    fn from(value: Fp) -> U192 {
        U192 {
            limbs: [value.as_u64(), 0, 0],
        }
    }
}

impl From<u64> for U192 {
    #[inline]
    fn from(value: u64) -> U192 {
        U192 {
            limbs: [value, 0, 0],
        }
    }
}

impl fmt::Debug for U192 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "U192(0x{:016x}_{:016x}_{:016x})",
            self.limbs[2], self.limbs[1], self.limbs[0]
        )
    }
}

impl fmt::Display for U192 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::P;

    #[test]
    fn p_divides_2_192_minus_1() {
        // 2^192 − 1 mod p == 0, the identity everything here rests on.
        assert_eq!(Fp::TWO.pow(192), Fp::ONE);
    }

    #[test]
    fn add_matches_field() {
        let a = Fp::new(P - 1);
        let b = Fp::new(P - 2);
        let sum = U192::from(a).wrapping_add(U192::from(b));
        assert_eq!(sum.to_fp(), a + b);
    }

    #[test]
    fn end_around_carry() {
        let max = U192::from_limbs([u64::MAX; 3]);
        // all-ones ≡ 0 (mod 2^192 − 1)
        assert!(max.is_zero());
        assert_eq!(max.to_fp(), Fp::ZERO);
        // all-ones + 1 wraps to 1
        let one = max.wrapping_add(U192::from(1u64));
        assert_eq!(one.to_fp(), Fp::ONE);
    }

    #[test]
    fn complement_is_negation() {
        for v in [0u64, 1, 12345, P - 1] {
            let x = U192::from(Fp::new(v));
            assert_eq!(x.complement().to_fp(), -Fp::new(v));
            assert!(x.wrapping_add(x.complement()).is_zero());
        }
    }

    #[test]
    fn sub_matches_field() {
        let a = Fp::new(5);
        let b = Fp::new(7);
        assert_eq!(U192::from(a).wrapping_sub(U192::from(b)).to_fp(), a - b);
    }

    #[test]
    fn rotl_is_mul_by_pow2() {
        let x = Fp::new(0x0123_4567_89ab_cdef);
        let v = U192::from(x);
        for s in 0..192 {
            assert_eq!(v.rotl(s).to_fp(), x.mul_by_pow2(s), "shift {s}");
        }
        // Rotation composes.
        assert_eq!(v.rotl(100).rotl(92), v.rotl(0));
    }

    #[test]
    fn rotl_limb_boundaries() {
        let v = U192::from_limbs([0x8000_0000_0000_0001, 0, 0]);
        assert_eq!(v.rotl(64).limbs(), [0, 0x8000_0000_0000_0001, 0]);
        assert_eq!(v.rotl(128).limbs(), [0, 0, 0x8000_0000_0000_0001]);
        assert_eq!(v.rotl(1).limbs(), [2, 1, 0]);
        assert_eq!(v.rotl(192), v);
    }

    #[test]
    fn carry_save_compression_identity() {
        // a + b + c == (a^b^c) + ((majority) rotl 1) modulo 2^192−1: the 3:2
        // compressor identity with end-around carry, used by the FFT unit's
        // adder-tree model.
        let a = U192::from_limbs([0xdead_beef, u64::MAX, 1 << 63]);
        let b = U192::from_limbs([u64::MAX, 0x1234, 0xffff_0000_0000_0001]);
        let c = U192::from_limbs([1, 2, 3]);
        let xor = a ^ b ^ c;
        let maj = (a & b) | (a & c) | (b & c);
        let compressed = xor.wrapping_add(maj.rotl(1));
        let direct = a.wrapping_add(b).wrapping_add(c);
        assert_eq!(compressed.to_fp(), direct.to_fp());
    }

    #[test]
    fn accumulating_many_terms_matches_field_sum() {
        // Mimic the accumulator: 64 shifted samples summed in one register.
        let mut acc = U192::ZERO;
        let mut expected = Fp::ZERO;
        for i in 0..64u32 {
            let sample = Fp::new(0x1111_1111_1111_1111u64.wrapping_mul(i as u64 + 1));
            acc = acc.wrapping_add(U192::from(sample).rotl(3 * i));
            expected += sample.mul_by_pow2(3 * i);
        }
        assert_eq!(acc.to_fp(), expected);
    }
}
