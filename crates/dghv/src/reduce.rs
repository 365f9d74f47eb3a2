//! Reduction modulo the public modulus `x_0` on cached SSA spectra.
//!
//! Every homomorphic AND is a 786,432-bit product followed by a reduction
//! mod `x_0`; the design the paper compares against (\[32\], Cao et al.)
//! pairs its FFT multiplier with a Barrett module for exactly that reason.
//! This is the software counterpart: Barrett's two multiplications run as
//! Schönhage–Strassen products against the **cached** spectra of the two
//! fixed factors (`µ`'s low part and `x_0`), so each costs two transforms,
//! and a whole circuit level reduces as two sharded batches.
//!
//! With `n = bitlen(x_0)` and base-2 shifts (HAC Algorithm 14.42 with
//! `b = 2`, `k = n`): for `x < 2^{2n}`,
//!
//! ```text
//! µ  = ⌊2^{2n} / x_0⌋ = 2^n + µ_lo
//! q1 = x >> (n − 1)
//! q3 = ((q1 << n) + q1·µ_lo) >> (n + 1)      // = ⌊q1·µ / 2^{n+1}⌋
//! r  = x − q3·x_0                             // 0 ≤ r < 3·x_0
//! ```
//!
//! `µ`'s top bit is split off because `q1` can have `n + 1` bits: at the
//! paper's `n = 786,432` that is 32,769 coefficients of 24 bits against
//! `µ_lo`'s 32,768, whose acyclic product fills the 64K-point transform
//! exactly — the full `µ` would overflow it by one coefficient. `q3` has
//! at most `n + 1` bits too, so `q3·x_0` fits the same way.

use he_bigint::UBig;
use he_ssa::{SsaJob, SsaMultiplier, TransformedOperand};

/// Quotients narrower than this many 64-bit limbs multiply with
/// `he-bigint`'s `*` instead of the transforms. The quotients of
/// [`crate::PublicKey::encrypt`] and [`crate::PublicKey::add`] are a few
/// bits wide — one schoolbook row against `µ_lo` or `x_0` — while those of
/// products are as wide as `x_0`; moduli narrower than this never build
/// the spectra at all.
const SPECTRAL_MIN_LIMBS: usize = 64;

/// Barrett reduction by a fixed modulus with bit-granular shifts and the
/// wide multiplications on cached SSA spectra.
#[derive(Debug, Clone)]
pub(crate) struct X0Reducer {
    modulus: UBig,
    /// `n = bitlen(x_0)`.
    bits: usize,
    /// `µ − 2^n`.
    mu_lo: UBig,
    /// `None` for moduli whose quotients are always narrow.
    spectra: Option<Spectra>,
}

#[derive(Debug, Clone)]
struct Spectra {
    ssa: SsaMultiplier,
    mu_lo: TransformedOperand,
    modulus: TransformedOperand,
}

impl X0Reducer {
    /// Precomputes `µ` and, for wide moduli, the spectra of `µ_lo` and
    /// `x_0`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub(crate) fn new(modulus: UBig) -> X0Reducer {
        assert!(!modulus.is_zero(), "x0 is nonzero");
        let bits = modulus.bit_len();
        let mu = &UBig::pow2(2 * bits) / &modulus;
        let mu_lo = mu
            .checked_sub(&UBig::pow2(bits))
            .expect("µ ≥ 2^n because x0 < 2^n");
        // µ_lo has n + 1 bits only for a power-of-two modulus, whose
        // products would not fit the plan; those reduce on `*` alone.
        let spectra = (modulus.as_limbs().len() >= SPECTRAL_MIN_LIMBS && mu_lo.bit_len() <= bits)
            .then(|| {
                let ssa = SsaMultiplier::for_operand_bits(bits).expect("a plan fits x0");
                Spectra {
                    mu_lo: ssa.transform(&mu_lo).expect("µ_lo fits the plan"),
                    modulus: ssa.transform(&modulus).expect("x0 fits the plan"),
                    ssa,
                }
            });
        X0Reducer {
            modulus,
            bits,
            mu_lo,
            spectra,
        }
    }

    /// Reduces `x` modulo `x_0`.
    pub(crate) fn reduce(&self, x: &UBig) -> UBig {
        self.reduce_many(std::slice::from_ref(x))
            .pop()
            .expect("one input, one output")
    }

    /// Reduces every value modulo `x_0`, in order. The wide
    /// multiplications of all inputs run as two sharded SSA batches (one
    /// against `µ_lo`, one against `x_0`), so a whole circuit level costs
    /// two batch calls. Inputs of `2n` bits or more fall back to exact
    /// division.
    pub(crate) fn reduce_many(&self, xs: &[UBig]) -> Vec<UBig> {
        let n = self.bits;
        let barrett = |x: &UBig| x >= &self.modulus && x.bit_len() <= 2 * n;
        let q1: Vec<UBig> = xs
            .iter()
            .filter(|x| barrett(x))
            .map(|x| x >> (n - 1))
            .collect();
        let q1_mu_lo = self.multiply_all(&q1, &self.mu_lo, |s| &s.mu_lo);
        let q3: Vec<UBig> = q1
            .iter()
            .zip(q1_mu_lo)
            .map(|(q1, low)| ((q1 << n) + low) >> (n + 1))
            .collect();
        let mut estimates = self
            .multiply_all(&q3, &self.modulus, |s| &s.modulus)
            .into_iter();
        xs.iter()
            .map(|x| {
                if x < &self.modulus {
                    return x.clone();
                }
                if !barrett(x) {
                    return x.rem_euclid(&self.modulus);
                }
                let estimate = estimates.next().expect("one estimate per Barrett input");
                let mut r = x
                    .checked_sub(&estimate)
                    .expect("Barrett estimate never exceeds x");
                while r >= self.modulus {
                    r -= &self.modulus;
                }
                r
            })
            .collect()
    }

    /// `q · factor` for every `q`: wide ones as one sharded one-cached SSA
    /// batch against the factor's spectrum, narrow ones with `*`.
    fn multiply_all(
        &self,
        qs: &[UBig],
        factor: &UBig,
        spectrum: impl Fn(&Spectra) -> &TransformedOperand,
    ) -> Vec<UBig> {
        let wide = |q: &UBig| self.spectra.is_some() && q.as_limbs().len() >= SPECTRAL_MIN_LIMBS;
        let mut out: Vec<UBig> = qs
            .iter()
            .map(|q| if wide(q) { UBig::zero() } else { q * factor })
            .collect();
        let picked: Vec<usize> = (0..qs.len()).filter(|&i| wide(&qs[i])).collect();
        let Some(spectra) = self.spectra.as_ref().filter(|_| !picked.is_empty()) else {
            return out;
        };
        let jobs: Vec<SsaJob<'_>> = picked
            .iter()
            .map(|&i| SsaJob::OneCached(spectrum(spectra), &qs[i]))
            .collect();
        let products = spectra
            .ssa
            .multiply_batch(&jobs)
            .expect("quotients of inputs below 2^(2n) fit the plan");
        for (i, product) in picked.into_iter().zip(products) {
            out[i] = product;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_bigint::BarrettReducer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An odd modulus of exactly `bits` bits.
    fn odd_modulus(rng: &mut StdRng, bits: usize) -> UBig {
        let mut m = UBig::random_bits(rng, bits);
        m.set_bit(0, true);
        m
    }

    /// Checks `reduce` against both oracles, then `reduce_many` against
    /// `reduce` on the same inputs.
    fn agrees_with_oracles(modulus: &UBig, inputs: &[UBig]) {
        let reducer = X0Reducer::new(modulus.clone());
        let oracle = BarrettReducer::new(modulus.clone()).unwrap();
        let singles: Vec<UBig> = inputs.iter().map(|x| reducer.reduce(x)).collect();
        for (i, (x, r)) in inputs.iter().zip(&singles).enumerate() {
            assert_eq!(*r, x.rem_euclid(modulus), "input {i} vs rem_euclid");
            assert_eq!(*r, oracle.reduce(x), "input {i} vs BarrettReducer");
        }
        assert_eq!(
            reducer.reduce_many(inputs),
            singles,
            "reduce_many vs reduce"
        );
    }

    #[test]
    fn paper_size_modulus_matches_barrett_and_division() {
        let mut rng = StdRng::seed_from_u64(786_432);
        let n = he_ssa::PAPER_OPERAND_BITS;
        let modulus = odd_modulus(&mut rng, n);
        let reducer = X0Reducer::new(modulus.clone());
        assert!(
            reducer.spectra.is_some(),
            "paper-size moduli reduce spectrally"
        );
        let ssa = SsaMultiplier::paper();
        let below = |rng: &mut StdRng| UBig::random_below(rng, &modulus);
        let top = &modulus - &UBig::one();
        let products: Vec<UBig> = (0..2)
            .map(|_| ssa.multiply(&below(&mut rng), &below(&mut rng)).unwrap())
            .collect();
        // A short quotient, like `encrypt`'s subset sums: narrow `*` path.
        let sum = (0..40).fold(UBig::zero(), |acc, _| &acc + &below(&mut rng));
        let inputs = [
            UBig::zero(),
            top.clone(),
            modulus.clone(),
            ssa.multiply(&modulus, &modulus).unwrap() - UBig::one(),
            products[0].clone(),
            products[1].clone(),
            sum,
            // Past Barrett's range: the exact-division fallback.
            UBig::random_bits(&mut rng, 2 * n + 70),
        ];
        agrees_with_oracles(&modulus, &inputs);
    }

    #[test]
    fn power_of_two_modulus_stays_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        let modulus = UBig::pow2(64 * SPECTRAL_MIN_LIMBS + 10);
        assert!(X0Reducer::new(modulus.clone()).spectra.is_none());
        let inputs: Vec<UBig> = (0..3)
            .map(|_| UBig::random_bits(&mut rng, 2 * modulus.bit_len() - 3))
            .collect();
        agrees_with_oracles(&modulus, &inputs);
        agrees_with_oracles(&UBig::one(), &[UBig::zero(), UBig::from(9u64)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Below paper size the spectral path runs on smaller plans.
        #[test]
        fn spectral_path_matches_oracles(seed in any::<u64>(), bits in 12_000usize..50_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let modulus = odd_modulus(&mut rng, bits);
            let below = |rng: &mut StdRng| UBig::random_below(rng, &modulus);
            let mut inputs: Vec<UBig> = (0..4)
                .map(|_| &below(&mut rng) * &below(&mut rng))
                .collect();
            inputs.push(&below(&mut rng) + &modulus);
            inputs.push(&modulus * &modulus - UBig::one());
            prop_assert!(X0Reducer::new(modulus.clone()).spectra.is_some());
            agrees_with_oracles(&modulus, &inputs);
        }
    }
}
