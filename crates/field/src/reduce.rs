//! Modular reduction for `p = 2^64 − 2^32 + 1`.
//!
//! The key identities are
//!
//! * `2^64 ≡ 2^32 − 1 = ε` (so `b·2^64 ≡ 2^32·b − b`),
//! * `2^96 ≡ −1` (so `a·2^96 ≡ −a`),
//! * `2^128 ≡ −2^32`,
//!
//! giving the paper's Eq. 4 for a 128-bit value split into 32-bit words
//! `a·2^96 + b·2^64 + c·2^32 + d`:
//!
//! ```text
//! a·2^96 + b·2^64 + c·2^32 + d ≡ 2^32·(b + c) − a − b + d   (mod p)
//! ```
//!
//! The module keeps two forms of that identity:
//!
//! * [`normalize_eq4`] and [`addmod_final`] model the hardware split word
//!   for word: the *Normalize* block evaluates the right-hand side and
//!   leaves at most one addition/subtraction of `p` to the *AddMod* block.
//!   They are the reference the accelerator model is checked against.
//! * [`reduce128`] is the software hot path. It applies the same
//!   identities on whole 64-bit words — `x_lo − (hi >> 32) +
//!   (hi mod 2^32)·ε` — with one borrow and one carry fix-up, each a
//!   conditional `∓ε`, and a single canonical subtraction: `u64`
//!   arithmetic only, no data-dependent loop. On the FPGA the word
//!   shuffling of Eq. 4 is free wiring; on a CPU one 64×64 multiply by
//!   `ε` is a single instruction, and this form is what lets every
//!   [`Fp`](crate::Fp) multiply run branch-free.

use crate::element::{EPSILON, P};

/// Fully reduces a 128-bit value to its canonical residue.
///
/// ```
/// use he_field::reduce::reduce128;
/// use he_field::P;
///
/// assert_eq!(reduce128(0), 0);
/// assert_eq!(reduce128(P as u128), 0);
/// assert_eq!(reduce128(u128::MAX), (u128::MAX % P as u128) as u64);
/// ```
#[inline]
pub fn reduce128(x: u128) -> u64 {
    let lo = x as u64;
    let hi = (x >> 64) as u64;
    // x = lo + (hi mod 2^32)·2^64 + (hi >> 32)·2^96
    //   ≡ lo + (hi mod 2^32)·ε − (hi >> 32)   (2^64 ≡ ε, 2^96 ≡ −1).
    let (t0, borrow) = lo.overflowing_sub(hi >> 32);
    // A borrow wrapped t0 up by 2^64 ≡ ε; take ε back. It cannot wrap
    // again: on a borrow lo < hi >> 32 < 2^32, so t0 > 2^64 − 2^32 > ε.
    let t0 = t0 - EPSILON * u64::from(borrow);
    // (hi mod 2^32)·ε ≤ (2^32 − 1)^2 fits a u64.
    let t1 = (hi & EPSILON) * EPSILON;
    let (t2, carry) = t0.overflowing_add(t1);
    // A carry dropped 2^64 ≡ ε; add it back. No second carry: on a carry
    // t2 ≤ 2^64 − 2^33, and ε < 2^33.
    let t2 = t2 + EPSILON * u64::from(carry);
    // t2 < 2^64 < 2p: one canonical subtraction.
    let (r, under) = t2.overflowing_sub(P);
    if under {
        t2
    } else {
        r
    }
}

/// The hardware *Normalize* block: applies Eq. 4 once and reports how many
/// subtractions of `p` were internally folded while assembling the result.
///
/// Returns `(coarse, corrections)` where `coarse ≡ x (mod p)`,
/// `coarse < 2^65`, and `corrections` counts the `±p` adjustments Eq. 4
/// itself needed (0 or 1). The remaining conditional subtraction is the
/// *AddMod* stage, modeled by [`addmod_final`].
///
/// ```
/// use he_field::reduce::{addmod_final, normalize_eq4};
/// use he_field::P;
///
/// let x = (P as u128 - 1) * (P as u128 - 1);
/// let (coarse, _) = normalize_eq4(x);
/// assert_eq!(addmod_final(coarse), (x % P as u128) as u64);
/// ```
#[inline]
pub fn normalize_eq4(x: u128) -> (u128, u32) {
    let d = (x as u32) as u128;
    let c = ((x >> 32) as u32) as u128;
    let b = ((x >> 64) as u32) as u128;
    let a = ((x >> 96) as u32) as u128;

    // 2^32·(b + c) + d  ≤ (2^33 − 2)·2^32 + 2^32 − 1 < 2^66 (fits u128).
    let positive = ((b + c) << 32) + d;
    // a + b ≤ 2^33 − 2 < p, so one addition of p suffices if it underflows.
    let negative = a + b;

    if positive >= negative {
        (positive - negative, 0)
    } else {
        (positive + P as u128 - negative, 1)
    }
}

/// The hardware *AddMod* block: final conditional subtraction(s) bringing the
/// coarse Normalize output into `[0, p)`.
///
/// # Panics
///
/// Panics in debug builds if `coarse ≥ 3p` (the Normalize block never
/// produces such a value).
#[inline]
pub fn addmod_final(coarse: u128) -> u64 {
    debug_assert!(coarse < 3 * P as u128);
    let mut r = coarse;
    while r >= P as u128 {
        r -= P as u128;
    }
    r as u64
}

/// Reduces a 192-bit value given as `hi·2^128 + lo` (with `lo` a full 128-bit
/// word).
///
/// Uses `2^128 ≡ −2^32`: `hi·2^128 + lo ≡ lo − hi·2^32`.
///
/// ```
/// use he_field::reduce::reduce192;
/// use he_field::Fp;
///
/// // 2^128 = -(2^32) mod p
/// assert_eq!(
///     Fp::new(reduce192(0, 1)),
///     -Fp::ONE.mul_by_pow2(32),
/// );
/// ```
#[inline]
pub fn reduce192(lo: u128, hi: u64) -> u64 {
    // Split at bit 96 and use 2^96 ≡ −1: the value is l96 − rest with both
    // parts below 2^96. On underflow, add the multiple of p nearest 2^96:
    // p·(2^32 + 1) = 2^96 + 1. One 128-bit reduction finishes the job —
    // this runs once per output of the U192 datapath (`U192::to_fp`).
    const MASK96: u128 = (1u128 << 96) - 1;
    let l96 = lo & MASK96;
    let rest = (lo >> 96) | ((hi as u128) << 32); // < 2^96
    let d = if l96 >= rest {
        l96 - rest
    } else {
        l96 + ((1u128 << 96) + 1) - rest
    };
    reduce128(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive128(x: u128) -> u64 {
        (x % P as u128) as u64
    }

    #[test]
    fn reduce128_matches_naive_on_edges() {
        let cases = [
            0u128,
            1,
            P as u128 - 1,
            P as u128,
            P as u128 + 1,
            u64::MAX as u128,
            (u64::MAX as u128) + 1,
            u128::MAX,
            u128::MAX - 1,
            (P as u128) * (P as u128) - 1, // largest product of two residues
            (P as u128 - 1) * (P as u128 - 1),
            1u128 << 96,
            (1u128 << 96) - 1,
            1u128 << 127,
        ];
        for &x in &cases {
            assert_eq!(reduce128(x), naive128(x), "x = {x:#x}");
        }
    }

    #[test]
    fn reduce128_dense_sweep() {
        // Structured values exercising all four Eq. 4 words.
        for a in [0u128, 1, 0xffff_ffff] {
            for b in [0u128, 1, 0xffff_ffff] {
                for c in [0u128, 1, 0xffff_ffff] {
                    for d in [0u128, 1, 0xffff_ffff] {
                        let x = (a << 96) | (b << 64) | (c << 32) | d;
                        assert_eq!(reduce128(x), naive128(x), "x = {x:#x}");
                    }
                }
            }
        }
    }

    /// `x = hi·2^64 + lo` as one 128-bit word.
    fn wide(hi: u64, lo: u64) -> u128 {
        ((hi as u128) << 64) | lo as u128
    }

    #[test]
    fn reduce128_borrow_edge() {
        // lo < hi >> 32: the subtraction of hi >> 32 borrows and the
        // borrow fix takes ε back.
        let cases = [
            wide(1 << 32, 0),
            wide(u64::MAX, 0),
            wide(u64::MAX, 0xffff_fffe),
            wide(0xffff_ffff_0000_0000, 0xffff_fffe),
            wide(2 << 32, 1),
            wide(0xdead_beef_0000_0000, 0x1234),
        ];
        for &x in &cases {
            let (hi, lo) = ((x >> 64) as u64, x as u64);
            assert!(lo < hi >> 32, "x = {x:#x} must borrow");
            assert_eq!(reduce128(x), naive128(x), "x = {x:#x}");
        }
    }

    #[test]
    fn reduce128_carry_edge() {
        // t0 + (hi mod 2^32)·ε overflows 64 bits: the carry fix adds ε.
        let cases = [
            wide(0xffff_ffff, u64::MAX),
            wide(0xffff_ffff, 1 << 33),
            wide(0x0000_0001_ffff_ffff, u64::MAX),
            wide(u64::MAX, u64::MAX),
            wide(0x8000_0000, u64::MAX),
            // Borrows first, then carries.
            wide(u64::MAX, 0),
        ];
        for &x in &cases {
            let (hi, lo) = ((x >> 64) as u64, x as u64);
            let (t0, borrow) = lo.overflowing_sub(hi >> 32);
            let t0 = t0 - EPSILON * u64::from(borrow);
            let t1 = (hi & EPSILON) * EPSILON;
            assert!(t0.checked_add(t1).is_none(), "x = {x:#x} must carry");
            assert_eq!(reduce128(x), naive128(x), "x = {x:#x}");
        }
    }

    #[test]
    fn reduce128_canonicalizes_results_in_p_to_2_pow_64() {
        // hi = 0 leaves t2 = lo, so every lo in [p, 2^64) reaches the
        // final subtraction unreduced; so does a folded value landing
        // there (hi = 1: t2 = lo + ε).
        let cases = [
            wide(0, P),
            wide(0, P + 1),
            wide(0, u64::MAX),
            wide(0, P + EPSILON / 2),
            wide(1, P - EPSILON),
            wide(1, u64::MAX - EPSILON),
        ];
        for &x in &cases {
            let r = reduce128(x);
            assert!(r < P, "x = {x:#x} left {r:#x} non-canonical");
            assert_eq!(r, naive128(x), "x = {x:#x}");
        }
    }

    #[test]
    fn normalize_then_addmod_is_full_reduction() {
        let cases = [
            0u128,
            u128::MAX,
            (P as u128 - 1) * (P as u128 - 1),
            0xdead_beef_dead_beef_dead_beef_dead_beef,
        ];
        for &x in &cases {
            let (coarse, corrections) = normalize_eq4(x);
            assert!(corrections <= 1);
            assert!(coarse < 1u128 << 66);
            assert_eq!(addmod_final(coarse), naive128(x));
        }
    }

    #[test]
    fn reduce192_matches_naive() {
        let cases: [(u128, u64); 6] = [
            (0, 0),
            (u128::MAX, u64::MAX),
            (1, 1),
            (P as u128, 0xffff_ffff),
            (
                0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
                0xfedc_ba98_7654_3210,
            ),
            (u128::MAX, 0),
        ];
        for &(lo, hi) in &cases {
            // naive: (hi·2^128 + lo) mod p using 256-bit arithmetic via steps
            let hi_mod = ((hi as u128) << 32) % P as u128; // hi·2^32
            let lo_mod = lo % P as u128;
            let expected = ((lo_mod + P as u128 - hi_mod % P as u128) % P as u128) as u64;
            assert_eq!(reduce192(lo, hi), expected, "lo={lo:#x} hi={hi:#x}");
        }
    }
}
