//! Property-based tests for the field axioms and the hardware-path
//! equivalences (Eq. 4 reduction, shift twiddles, 192-bit end-around carry).

use he_field::{reduce, roots, Fp, P, U192};
use proptest::prelude::*;

fn arb_fp() -> impl Strategy<Value = Fp> {
    any::<u64>().prop_map(Fp::new)
}

/// A 32-bit word on one of the reduction's fix-up boundaries half the
/// time, uniform otherwise.
fn arb_edge_u32() -> impl Strategy<Value = u64> {
    (0u8..8, any::<u32>()).prop_map(|(pick, w)| match pick {
        0 => 0,
        1 => 1,
        2 => 0xffff_fffe,
        3 => 0xffff_ffff,
        _ => u64::from(w),
    })
}

/// 128-bit words assembled from edge 32-bit words, so borrows, carries and
/// results in `[p, 2^64)` come up far more often than under `any::<u128>()`.
fn arb_edge_u128() -> impl Strategy<Value = u128> {
    (
        arb_edge_u32(),
        arb_edge_u32(),
        arb_edge_u32(),
        arb_edge_u32(),
    )
        .prop_map(|(a, b, c, d)| {
            (a as u128) << 96 | (b as u128) << 64 | (c as u128) << 32 | d as u128
        })
}

/// Field elements near 0, near `p` and near the 32-bit word boundaries
/// most of the time, uniform otherwise.
fn arb_edge_fp() -> impl Strategy<Value = Fp> {
    (0u8..6, 0u64..4, any::<u64>()).prop_map(|(pick, k, v)| {
        Fp::new(match pick {
            0 => k,
            1 => P - 1 - k,
            2 => u64::from(u32::MAX) - k,
            3 => (1 << 32) + k,
            4 => 0xffff_ffff_0000_0000 - k,
            _ => v,
        })
    })
}

fn arb_u192() -> impl Strategy<Value = U192> {
    any::<[u64; 3]>().prop_map(U192::from_limbs)
}

proptest! {
    #[test]
    fn add_commutative(a in arb_fp(), b in arb_fp()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutative(a in arb_fp(), b in arb_fp()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn sub_is_add_neg(a in arb_fp(), b in arb_fp()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn mul_matches_u128_naive(a in arb_fp(), b in arb_fp()) {
        let expected = ((a.as_u64() as u128 * b.as_u64() as u128) % P as u128) as u64;
        prop_assert_eq!((a * b).as_u64(), expected);
    }

    #[test]
    fn reduce128_matches_naive(x in any::<u128>()) {
        prop_assert_eq!(reduce::reduce128(x), (x % P as u128) as u64);
    }

    #[test]
    fn reduce128_matches_the_eq4_hardware_model(x in any::<u128>()) {
        // The word-level Normalize/AddMod model is an independent oracle
        // for the 64-bit-word software reduction.
        let (coarse, _) = reduce::normalize_eq4(x);
        prop_assert_eq!(reduce::reduce128(x), reduce::addmod_final(coarse));
    }

    #[test]
    fn reduce128_matches_naive_on_edge_words(x in arb_edge_u128()) {
        prop_assert_eq!(reduce::reduce128(x), (x % P as u128) as u64);
    }

    #[test]
    fn mul_matches_u128_naive_on_edge_operands(a in arb_edge_fp(), b in arb_edge_fp()) {
        let expected = ((a.as_u64() as u128 * b.as_u64() as u128) % P as u128) as u64;
        prop_assert_eq!((a * b).as_u64(), expected);
    }

    #[test]
    fn normalize_plus_addmod_is_reduce(x in any::<u128>()) {
        let (coarse, corrections) = reduce::normalize_eq4(x);
        prop_assert!(corrections <= 1);
        prop_assert_eq!(reduce::addmod_final(coarse), (x % P as u128) as u64);
    }

    #[test]
    fn inverse_is_inverse(a in arb_fp().prop_filter("nonzero", |x| !x.is_zero())) {
        prop_assert_eq!(a * a.inverse().unwrap(), Fp::ONE);
    }

    #[test]
    fn pow_adds_exponents(a in arb_fp(), e1 in 0u64..1000, e2 in 0u64..1000) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn mul_by_pow2_matches_pow_of_two_mul(a in arb_fp(), s in 0u32..400) {
        prop_assert_eq!(a.mul_by_pow2(s), a * Fp::TWO.pow(s as u64));
    }

    #[test]
    fn u192_add_homomorphic(a in arb_u192(), b in arb_u192()) {
        prop_assert_eq!(
            a.wrapping_add(b).to_fp(),
            a.to_fp() + b.to_fp()
        );
    }

    #[test]
    fn u192_rotl_homomorphic(a in arb_u192(), s in 0u32..192) {
        prop_assert_eq!(a.rotl(s).to_fp(), a.to_fp().mul_by_pow2(s));
    }

    #[test]
    fn u192_complement_negates(a in arb_u192()) {
        prop_assert_eq!(a.complement().to_fp(), -a.to_fp());
    }

    #[test]
    fn u192_sub_homomorphic(a in arb_u192(), b in arb_u192()) {
        prop_assert_eq!(a.wrapping_sub(b).to_fp(), a.to_fp() - b.to_fp());
    }

    #[test]
    fn power_table_is_geometric(n in 1usize..200) {
        let w = roots::OMEGA_64;
        let table = roots::power_table(w, n);
        for i in 1..n {
            prop_assert_eq!(table[i], table[i - 1] * w);
        }
    }

    #[test]
    fn batch_inverse_matches(xs in proptest::collection::vec(1u64..u64::MAX, 1..20)) {
        let mut values: Vec<Fp> = xs.iter().map(|&x| Fp::new(x))
            .filter(|f| !f.is_zero()).collect();
        if values.is_empty() { return Ok(()); }
        let expected: Vec<Fp> = values.iter().map(|v| v.inverse().unwrap()).collect();
        Fp::batch_inverse(&mut values);
        prop_assert_eq!(values, expected);
    }
}
