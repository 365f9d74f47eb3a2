//! Output checks, kept independent of the transform path under test.
//!
//! Every served product is checked against its operands by residues
//! modulo two 61-bit primes (`2^61 − 1` and `2^61 − 31`): the residue of
//! a product must equal the product of its operands' residues. Neither
//! prime is the NTT field's, so a transform bug cannot cancel out. A
//! seeded sample of products is also compared bit for bit against
//! `he-bigint`'s Karatsuba.

use he_bigint::UBig;

/// The two check moduli, `2^61 − c` for each `c`.
const PRIME_OFFSETS: [u64; 2] = [1, 31];
const LOW_61: u64 = (1 << 61) - 1;

/// An integer's residues modulo the two check primes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residues([u64; 2]);

/// `t mod (2^61 − c)` for `t < 2^125` and `c < 2^8`.
fn reduce(t: u128, c: u64) -> u64 {
    let p = (1u64 << 61) - c;
    // Fold the bits above 2^61 down twice: 2^61 ≡ c.
    let t = (t >> 61) * c as u128 + (t & LOW_61 as u128);
    let t = ((t >> 61) as u64) * c + (t as u64 & LOW_61);
    if t >= p {
        t - p
    } else {
        t
    }
}

impl Residues {
    /// Residues of `x` (Horner over its 64-bit limbs, most significant
    /// first).
    pub fn of(x: &UBig) -> Residues {
        let mut out = [0u64; 2];
        for (r, &c) in out.iter_mut().zip(&PRIME_OFFSETS) {
            for &limb in x.as_limbs().iter().rev() {
                *r = reduce(((*r as u128) << 64) | limb as u128, c);
            }
        }
        Residues(out)
    }

    /// Residues of the product of two integers with these residues.
    pub fn times(self, other: Residues) -> Residues {
        let mut out = [0u64; 2];
        for (i, &c) in PRIME_OFFSETS.iter().enumerate() {
            out[i] = reduce(self.0[i] as u128 * other.0[i] as u128, c);
        }
        Residues(out)
    }
}

/// Whether `product` can be `a · b`, given the operands' residues.
pub fn product_matches(a: Residues, b: Residues, product: &UBig) -> bool {
    Residues::of(product) == a.times(b)
}

/// Bit-exact comparison against the independent Karatsuba oracle.
pub fn karatsuba_matches(a: &UBig, b: &UBig, product: &UBig) -> bool {
    a.mul_karatsuba(b) == *product
}

#[cfg(test)]
pub use tamper::FlipOne;

#[cfg(test)]
mod tamper {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use he_accel::{HandleProvenance, Multiplier, MultiplyError, OperandHandle, ProductJob};
    use he_bigint::UBig;

    /// A backend wrapper that flips one bit of the `target`-th product it
    /// computes (counting from 0 across every card sharing the counter) —
    /// the fault the checks above must catch.
    #[derive(Debug, Clone)]
    pub struct FlipOne<M> {
        inner: M,
        seen: Arc<AtomicU64>,
        target: u64,
    }

    impl<M> FlipOne<M> {
        /// Wraps `inner`; every clone sharing `seen` counts products together.
        pub fn new(inner: M, seen: Arc<AtomicU64>, target: u64) -> FlipOne<M> {
            FlipOne {
                inner,
                seen,
                target,
            }
        }

        fn tamper(&self, out: &mut UBig) {
            if self.seen.fetch_add(1, Ordering::SeqCst) == self.target {
                let bit = out.bit_len() / 2;
                let flipped = !out.bit(bit);
                out.set_bit(bit, flipped);
            }
        }
    }

    impl<M: Multiplier> Multiplier for FlipOne<M> {
        fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
            let mut out = self.inner.multiply(a, b)?;
            self.tamper(&mut out);
            Ok(out)
        }

        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn provenance(&self) -> HandleProvenance {
            self.inner.provenance()
        }

        fn prepare(&self, a: &UBig) -> Result<OperandHandle, MultiplyError> {
            self.inner.prepare(a)
        }

        fn multiply_job_into(
            &self,
            job: &ProductJob<'_>,
            out: &mut UBig,
        ) -> Result<(), MultiplyError> {
            self.inner.multiply_job_into(job, out)?;
            self.tamper(out);
            Ok(())
        }

        fn multiply_batch_into(
            &self,
            jobs: &[ProductJob<'_>],
            out: &mut [UBig],
        ) -> Result<(), MultiplyError> {
            self.inner.multiply_batch_into(jobs, out)?;
            out.iter_mut().for_each(|slot| self.tamper(slot));
            Ok(())
        }

        fn trim_resources(&self) {
            self.inner.trim_resources();
        }

        fn operand_capacity_bits(&self) -> Option<usize> {
            self.inner.operand_capacity_bits()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn residues_agree_with_long_division() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1, 60, 61, 64, 65, 1_000, 20_000] {
            let x = UBig::random_bits(&mut rng, bits);
            let Residues(r) = Residues::of(&x);
            for (got, c) in r.iter().zip(PRIME_OFFSETS) {
                let p = UBig::from((1u64 << 61) - c);
                assert_eq!(UBig::from(*got), x.rem_euclid(&p), "{bits} bits, c = {c}");
            }
        }
    }

    #[test]
    fn residue_check_accepts_products_and_rejects_one_flipped_bit() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = UBig::random_bits(&mut rng, 50_000);
        let b = UBig::random_bits(&mut rng, 50_000);
        let mut product = &a * &b;
        let (ra, rb) = (Residues::of(&a), Residues::of(&b));
        assert!(product_matches(ra, rb, &product));
        assert!(karatsuba_matches(&a, &b, &product));
        for bit in [0, 61, 12_345, 99_999] {
            let flipped = !product.bit(bit);
            product.set_bit(bit, flipped);
            assert!(!product_matches(ra, rb, &product), "bit {bit}");
            assert!(!karatsuba_matches(&a, &b, &product), "bit {bit}");
            product.set_bit(bit, !flipped);
        }
    }
}
