//! Arithmetic in the Solinas-prime field used by the DATE 2016 homomorphic
//! encryption accelerator of Cilardo and Argenziano.
//!
//! The accelerator performs all transform arithmetic in `Z/pZ` with
//! `p = 2^64 − 2^32 + 1`. This prime was chosen by the paper because
//!
//! * `2^96 ≡ −1 (mod p)`, hence `2^192 ≡ 1`, so `8 = 2^3` is a primitive
//!   64th root of unity and every twiddle factor *inside* a radix-64 block is
//!   a multiplication by a power of two — a **shift** in hardware (paper
//!   Eq. 3);
//! * any 128-bit value reduces with the word-level identity
//!   `a·2^96 + b·2^64 + c·2^32 + d ≡ 2^32(b + c) − a − b + d` (paper Eq. 4),
//!   which the accelerator's *Normalize* block implements with two additions
//!   and two subtractions.
//!
//! The crate provides:
//!
//! * [`Fp`] — a canonical field element with full operator support;
//! * [`reduce`] — the reductions: the branch-free 64-bit-word form of the
//!   Eq. 4 identities that every [`Fp`] multiply runs, and the
//!   hardware-style *coarse* Eq. 4 reduction that may leave one correction
//!   to the `AddMod` stage;
//! * [`U192`] — a 192-bit end-around-carry accumulator: because
//!   `p | 2^192 − 1`, a 192-bit register with wrap-around carry is exact
//!   modulo `p`, and multiplication by `2^s` is a plain 192-bit rotation.
//!   This is the datapath the FFT-64 unit's shifter banks and carry-save
//!   adder trees operate on;
//! * [`roots`] — roots of unity, including the 65,536th root aligned so that
//!   `ω^1024 = 8`, which makes the paper's three-stage decomposition use the
//!   hardware shift twiddles exactly.
//!
//! # Example
//!
//! ```
//! use he_field::{Fp, roots};
//!
//! // 8 is a primitive 64th root of unity: 8^64 = 1, 8^32 = -1.
//! let omega = Fp::new(8);
//! assert_eq!(omega.pow(64), Fp::ONE);
//! assert_eq!(omega.pow(32), -Fp::ONE);
//!
//! // The 64K-point transform root is aligned with the hardware shifts.
//! let w = roots::omega_64k();
//! assert_eq!(w.pow(1024), omega);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod element;
pub mod mont;
pub mod reduce;
pub mod roots;
mod u192;

pub use element::{Fp, TryFromIntError, EPSILON, P};
pub use u192::U192;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_constants_are_consistent() {
        assert_eq!(P, 0xFFFF_FFFF_0000_0001);
        assert_eq!(EPSILON, 0xFFFF_FFFF);
        assert_eq!(P.wrapping_add(EPSILON), 0); // p + ε = 2^64
    }
}
