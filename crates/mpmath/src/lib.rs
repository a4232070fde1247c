//! Multi-precision and finite-field arithmetic for ultra-low-energy
//! asymmetric cryptography.
//!
//! This crate is the *host reference implementation* of every arithmetic
//! routine evaluated in the paper ("The Design Space of Ultra-low Energy
//! Asymmetric Cryptography", ISPASS 2014, §4.2):
//!
//! * multi-precision integers on 32-bit limbs ([`mp`], [`Mp`]) with both
//!   **operand-scanning** (Algorithm 2) and **product-scanning**
//!   (Algorithm 3) multiplication,
//! * prime fields GF(p) with the NIST fast-reduction primes of
//!   eq. 4.3–4.7 ([`fp`], [`nist`]),
//! * Montgomery multiplication in the **CIOS** form of Algorithm 5
//!   ([`mont`]),
//! * binary fields GF(2^m) with the NIST reduction polynomials of
//!   eq. 4.8–4.12, comb multiplication (Algorithm 6), a word-level
//!   carry-less product (the host CPU's carry-less multiplier where it
//!   has one, else Karatsuba), fast squaring, and word-level fast
//!   reduction (Algorithm 7) ([`f2m`]),
//! * the RFC 7748 ladder primes 2^255−19 and 2^448−2^224−1 with their
//!   one-term special-form reductions ([`xprime`]),
//! * modular inversion by the binary extended Euclidean algorithm and by
//!   Fermat's little theorem (§4.2.4).
//!
//! The simulated software suite (`ule-swlib`) and the hardware accelerator
//! models (`ule-monte`, `ule-billie`) are all differentially tested against
//! this crate.
//!
//! # Example
//!
//! ```
//! use ule_mpmath::{fp::PrimeField, nist::NistPrime};
//!
//! let field = PrimeField::nist(NistPrime::P192);
//! let a = field.from_u64(7);
//! let b = field.inv(&a).expect("7 is invertible");
//! assert_eq!(field.mul(&a, &b), field.one());
//! ```

// One item opts out of the lint: `f2m::clmul_words`, the call into the
// host's carry-less multiplier.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod f2m;
pub mod fp;
pub mod mont;
pub mod mp;
pub mod nist;
mod word;
pub mod xprime;

pub use f2m::BinaryField;
pub use fp::PrimeField;
pub use mont::Montgomery;
pub use mp::{Limb, Mp, LIMB_BITS};
