//! Elliptic-curve cryptography for the ultra-low-energy design-space study.
//!
//! This crate implements the complete ECC/ECDSA computation hierarchy of
//! Fig. 4.1 of the paper, on top of the finite-field arithmetic of
//! `ule-mpmath`:
//!
//! * **finite-field arithmetic** — provided by `ule-mpmath`;
//! * **point addition / doubling** — mixed Jacobian–affine coordinates for
//!   GF(p) curves and mixed Lopez–Dahab–affine coordinates for GF(2^m)
//!   curves, the coordinate systems the paper selects as optimal (§4.1);
//! * **scalar point multiplication** — sliding-window with precomputed odd
//!   multiples for signing, twin (simultaneous) multiplication for
//!   verification, plus the Montgomery ladder evaluated (and rejected) for
//!   the binary coprocessor (§4.1, Fig 7.14); the host itself computes
//!   `k·G` with a fixed-base comb ([`Curve::mul_g`]);
//! * **ECDSA** — signature and verification, including the protocol
//!   arithmetic modulo the group order (§4.1).
//!
//! A from-scratch [`sha256`] implementation supplies the message digest.
//! Curve domain parameters live in [`params`] and are *self-validated*
//! (generator on curve, group order prime, `n·G = ∞`) rather than trusted.
//!
//! # Example
//!
//! ```
//! use ule_curves::ecdsa::{sign, verify, Keypair};
//! use ule_curves::params::CurveId;
//!
//! let curve = CurveId::P256.curve();
//! let keys = Keypair::derive(&curve, b"quickstart seed");
//! let sig = sign(&curve, &keys, b"attack at dawn", b"nonce seed");
//! assert!(verify(&curve, &keys.public(), b"attack at dawn", &sig));
//! assert!(!verify(&curve, &keys.public(), b"attack at noon", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod ecdsa;
pub mod montgomery;
pub mod params;
pub mod prime;
pub mod scalar;
pub mod sha256;

pub use params::{Curve, CurveId};
