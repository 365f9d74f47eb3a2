//! Classical multiplication algorithms: schoolbook, Karatsuba, Toom-3.
//!
//! These are the software baselines for the paper's Schönhage–Strassen
//! accelerator (Section III observes SSA "is advantageous for operands of at
//! least 100,000 bits"; the `mul_crossover` bench reproduces that claim).
//! The `*` operator dispatches on the shorter operand's size.

use core::ops::{Mul, MulAssign};

use crate::ibig::IBig;
use crate::ubig::UBig;

/// Limb count above which `*` switches from schoolbook to Karatsuba.
pub const KARATSUBA_THRESHOLD: usize = 32;

/// Limb count above which `*` switches from Karatsuba to Toom-3.
pub const TOOM3_THRESHOLD: usize = 192;

impl UBig {
    /// Schoolbook `O(n·m)` multiplication.
    ///
    /// ```
    /// use he_bigint::UBig;
    /// let a = UBig::from(u64::MAX);
    /// // (2^64 − 1)² = (2^64 − 1)·2^64 − (2^64 − 1)
    /// assert_eq!(a.mul_schoolbook(&a), &(&a << 64) - &a);
    /// ```
    pub fn mul_schoolbook(&self, other: &UBig) -> UBig {
        let (a, b) = (self.as_limbs(), other.as_limbs());
        if a.is_empty() || b.is_empty() {
            return UBig::zero();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        UBig::from_limbs(out)
    }

    /// Karatsuba `O(n^log2(3))` multiplication (falls back to schoolbook
    /// below `KARATSUBA_THRESHOLD` limbs).
    pub fn mul_karatsuba(&self, other: &UBig) -> UBig {
        let n = self.as_limbs().len().max(other.as_limbs().len());
        if n < KARATSUBA_THRESHOLD {
            return self.mul_schoolbook(other);
        }
        let m = n / 2;
        let (a0, a1) = split_at_limb(self, m);
        let (b0, b1) = split_at_limb(other, m);
        let z0 = a0.mul_karatsuba(&b0);
        let z2 = a1.mul_karatsuba(&b1);
        let z1 = (&a0 + &a1).mul_karatsuba(&(&b0 + &b1)) - &z0 - &z2;
        // z2·B^2m + z1·B^m + z0
        let mut out = (&z2 << (128 * m)) + (&z1 << (64 * m));
        out += z0;
        out
    }

    /// Toom-3 `O(n^log3(5))` multiplication (falls back to Karatsuba below
    /// `TOOM3_THRESHOLD` limbs).
    ///
    /// Evaluation points `{0, 1, −1, 2, ∞}`; interpolation uses exact signed
    /// arithmetic ([`IBig`]) with exact divisions by 2 and 3.
    pub fn mul_toom3(&self, other: &UBig) -> UBig {
        let n = self.as_limbs().len().max(other.as_limbs().len());
        if n < TOOM3_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        let m = n.div_ceil(3);
        let (a0, a1, a2) = split3(self, m);
        let (b0, b1, b2) = split3(other, m);

        let eval = |x0: &UBig, x1: &UBig, x2: &UBig| -> [IBig; 5] {
            let p0 = IBig::from(x0.clone());
            let p_inf = IBig::from(x2.clone());
            let sum02 = IBig::from(x0 + x2);
            let p1 = &sum02 + &IBig::from(x1.clone());
            let pm1 = &sum02 - &IBig::from(x1.clone());
            // p(2) = x0 + 2·x1 + 4·x2
            let p2 = IBig::from(x0 + &(x1 << 1) + (x2 << 2));
            [p0, p1, pm1, p2, p_inf]
        };
        let pa = eval(&a0, &a1, &a2);
        let pb = eval(&b0, &b1, &b2);

        let r0 = &pa[0] * &pb[0];
        let r1 = &pa[1] * &pb[1];
        let rm1 = &pa[2] * &pb[2];
        let r2 = &pa[3] * &pb[3];
        let r_inf = &pa[4] * &pb[4];

        // Interpolate c(x) = c0 + c1·x + c2·x² + c3·x³ + c4·x⁴.
        let c0 = r0.clone();
        let c4 = r_inf.clone();
        let t1 = (&r1 + &rm1).div_exact_small(2); // c0 + c2 + c4
        let t2 = (&r1 - &rm1).div_exact_small(2); // c1 + c3
        let c2 = &(&t1 - &c0) - &c4;
        // r2 = c0 + 2c1 + 4c2 + 8c3 + 16c4
        let u = (&(&(&r2 - &c0) - &(&c2 << 2)) - &(&c4 << 4)).div_exact_small(2); // c1 + 4c3
        let c3 = (&u - &t2).div_exact_small(3);
        let c1 = &t2 - &c3;

        // All coefficients of a product of nonnegative polynomials are
        // nonnegative, so the conversions cannot fail.
        let shift = 64 * m;
        let mut out = c0.into_ubig().expect("c0 >= 0");
        out += &(c1.into_ubig().expect("c1 >= 0") << shift);
        out += &(c2.into_ubig().expect("c2 >= 0") << (2 * shift));
        out += &(c3.into_ubig().expect("c3 >= 0") << (3 * shift));
        out += &(c4.into_ubig().expect("c4 >= 0") << (4 * shift));
        out
    }

    /// Squares the value (dispatching like `*`).
    pub fn square(&self) -> UBig {
        self * self
    }
}

/// Splits into `(low m limbs, rest)`.
fn split_at_limb(x: &UBig, m: usize) -> (UBig, UBig) {
    let limbs = x.as_limbs();
    if limbs.len() <= m {
        (x.clone(), UBig::zero())
    } else {
        (
            UBig::from_limbs(limbs[..m].to_vec()),
            UBig::from_limbs(limbs[m..].to_vec()),
        )
    }
}

/// Splits into three `m`-limb parts (little-endian).
fn split3(x: &UBig, m: usize) -> (UBig, UBig, UBig) {
    let limbs = x.as_limbs();
    let part = |range: core::ops::Range<usize>| {
        let lo = range.start.min(limbs.len());
        let hi = range.end.min(limbs.len());
        UBig::from_limbs(limbs[lo..hi].to_vec())
    };
    (part(0..m), part(m..2 * m), part(2 * m..3 * m))
}

impl Mul<&UBig> for &UBig {
    type Output = UBig;

    /// Dispatches on the **shorter** operand: a lopsided product (a
    /// 25-limb factor against a 12,288-limb one) costs one schoolbook
    /// row per short limb, far below what splitting the long operand
    /// into Toom-3 or Karatsuba pieces would.
    fn mul(self, rhs: &UBig) -> UBig {
        let n = self.as_limbs().len().min(rhs.as_limbs().len());
        if n >= TOOM3_THRESHOLD {
            self.mul_toom3(rhs)
        } else if n >= KARATSUBA_THRESHOLD {
            self.mul_karatsuba(rhs)
        } else {
            self.mul_schoolbook(rhs)
        }
    }
}

impl Mul for UBig {
    type Output = UBig;

    fn mul(self, rhs: UBig) -> UBig {
        &self * &rhs
    }
}

impl Mul<&UBig> for UBig {
    type Output = UBig;

    fn mul(self, rhs: &UBig) -> UBig {
        &self * rhs
    }
}

impl Mul<UBig> for &UBig {
    type Output = UBig;

    fn mul(self, rhs: UBig) -> UBig {
        self * &rhs
    }
}

impl Mul<u64> for &UBig {
    type Output = UBig;

    fn mul(self, rhs: u64) -> UBig {
        if rhs == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.as_limbs().len() + 1);
        let mut carry = 0u128;
        for &l in self.as_limbs() {
            let t = l as u128 * rhs as u128 + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        UBig::from_limbs(out)
    }
}

impl Mul<u64> for UBig {
    type Output = UBig;

    fn mul(self, rhs: u64) -> UBig {
        &self * rhs
    }
}

impl MulAssign<&UBig> for UBig {
    fn mul_assign(&mut self, rhs: &UBig) {
        *self = &*self * rhs;
    }
}

impl MulAssign for UBig {
    fn mul_assign(&mut self, rhs: UBig) {
        *self = &*self * &rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_products() {
        assert_eq!(UBig::zero() * UBig::from(5u64), UBig::zero());
        assert_eq!(UBig::from(7u64) * UBig::from(6u64), UBig::from(42u64));
        assert_eq!(
            UBig::from(u64::MAX) * UBig::from(u64::MAX),
            UBig::from(u64::MAX as u128 * u64::MAX as u128)
        );
    }

    #[test]
    #[allow(clippy::erasing_op)] // multiplying by zero is the point
    fn mul_by_u64_scalar() {
        let a = UBig::from_limbs(vec![u64::MAX, u64::MAX]);
        assert_eq!(&a * 2u64, &a << 1);
        assert_eq!(&a * 0u64, UBig::zero());
        assert_eq!(&a * 1u64, a);
    }

    #[test]
    fn algorithms_agree_at_mixed_sizes() {
        let mut rng = StdRng::seed_from_u64(2016);
        // Deliberately straddle both thresholds and use asymmetric sizes.
        for (abits, bbits) in [
            (64, 64),
            (1000, 1000),
            (64 * KARATSUBA_THRESHOLD, 64 * KARATSUBA_THRESHOLD),
            (64 * KARATSUBA_THRESHOLD + 13, 257),
            (64 * TOOM3_THRESHOLD, 64 * TOOM3_THRESHOLD),
            (64 * TOOM3_THRESHOLD + 7, 64 * KARATSUBA_THRESHOLD),
            (20_000, 30_000),
            // Lopsided: the short operand picks the algorithm.
            (64, 64 * 12_288),
            (64 * 25, 64 * 12_288),
            (64 * 200, 64 * 12_288),
        ] {
            let a = UBig::random_bits(&mut rng, abits);
            let b = UBig::random_bits(&mut rng, bbits);
            let school = a.mul_schoolbook(&b);
            assert_eq!(a.mul_karatsuba(&b), school, "karatsuba {abits}x{bbits}");
            assert_eq!(a.mul_toom3(&b), school, "toom3 {abits}x{bbits}");
            assert_eq!(&a * &b, school, "dispatch {abits}x{bbits}");
            assert_eq!(&b * &a, school, "commuted {abits}x{bbits}");
        }
    }

    #[test]
    fn square_matches_mul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = UBig::random_bits(&mut rng, 5000);
        assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn distributivity_spot_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = UBig::random_bits(&mut rng, 3000);
        let b = UBig::random_bits(&mut rng, 2500);
        let c = UBig::random_bits(&mut rng, 2800);
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn multiplication_by_powers_of_two_is_shift() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = UBig::random_bits(&mut rng, 10_000);
        assert_eq!(&a * &UBig::pow2(777), &a << 777);
    }
}
