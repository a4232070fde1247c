//! The NIST field definitions used throughout the study.
//!
//! The design-space exploration covers five prime fields (eq. 4.3–4.7) and
//! five binary fields (eq. 4.8–4.12). The primes are *generalized Mersenne*
//! numbers whose terms are multiples of 2^32, chosen by NIST precisely so
//! that fast reduction is efficient on a 32-bit datapath (§4.2.1); the
//! binary reduction polynomials are the NIST trinomials/pentanomials.
//!
//! The moduli are **constructed from their defining formulas** rather than
//! embedded as opaque hex blobs, so the definitions are self-evidently the
//! ones in the paper.

use crate::mp::Mp;

/// The five NIST generalized-Mersenne primes of the study (eq. 4.3–4.7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum NistPrime {
    /// P-192: `2^192 - 2^64 - 1` (eq. 4.3).
    P192,
    /// P-224: `2^224 - 2^96 + 1` (eq. 4.4).
    P224,
    /// P-256: `2^256 - 2^224 + 2^192 + 2^96 - 1` (eq. 4.5).
    P256,
    /// P-384: `2^384 - 2^128 - 2^96 + 2^32 - 1` (eq. 4.6).
    P384,
    /// P-521: `2^521 - 1` (eq. 4.7).
    P521,
}

impl NistPrime {
    /// All five primes in increasing key-size order.
    pub const ALL: [NistPrime; 5] = [
        NistPrime::P192,
        NistPrime::P224,
        NistPrime::P256,
        NistPrime::P384,
        NistPrime::P521,
    ];

    /// Key size in bits (192, 224, 256, 384, 521).
    pub fn bits(self) -> usize {
        match self {
            NistPrime::P192 => 192,
            NistPrime::P224 => 224,
            NistPrime::P256 => 256,
            NistPrime::P384 => 384,
            NistPrime::P521 => 521,
        }
    }

    /// Number of 32-bit limbs needed to store a field element
    /// (`k = ceil(n/w)`, §4.2).
    pub fn limbs(self) -> usize {
        self.bits().div_ceil(32)
    }

    /// The modulus, built from its defining formula.
    pub fn modulus(self) -> Mp {
        let one = Mp::one();
        let pow = |e: usize| Mp::one().shl(e);
        match self {
            NistPrime::P192 => pow(192).sub(&pow(64)).sub(&one),
            NistPrime::P224 => pow(224).sub(&pow(96)).add(&one),
            NistPrime::P256 => pow(256)
                .sub(&pow(224))
                .add(&pow(192))
                .add(&pow(96))
                .sub(&one),
            NistPrime::P384 => pow(384)
                .sub(&pow(128))
                .sub(&pow(96))
                .add(&pow(32))
                .sub(&one),
            NistPrime::P521 => pow(521).sub(&one),
        }
    }

    /// Human-readable name, e.g. `"P-256"`.
    pub fn name(self) -> &'static str {
        match self {
            NistPrime::P192 => "P-192",
            NistPrime::P224 => "P-224",
            NistPrime::P256 => "P-256",
            NistPrime::P384 => "P-384",
            NistPrime::P521 => "P-521",
        }
    }
}

/// The five NIST binary fields of the study (eq. 4.8–4.12).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum NistBinary {
    /// GF(2^163), `f(x) = x^163 + x^7 + x^6 + x^3 + 1` (eq. 4.8).
    B163,
    /// GF(2^233), `f(x) = x^233 + x^74 + 1` (eq. 4.9).
    B233,
    /// GF(2^283), `f(x) = x^283 + x^12 + x^7 + x^5 + 1` (eq. 4.10).
    B283,
    /// GF(2^409), `f(x) = x^409 + x^87 + 1` (eq. 4.11).
    B409,
    /// GF(2^571), `f(x) = x^571 + x^10 + x^5 + x^2 + 1` (eq. 4.12).
    B571,
}

impl NistBinary {
    /// All five binary fields in increasing key-size order.
    pub const ALL: [NistBinary; 5] = [
        NistBinary::B163,
        NistBinary::B233,
        NistBinary::B283,
        NistBinary::B409,
        NistBinary::B571,
    ];

    /// Field extension degree `m`.
    pub fn m(self) -> usize {
        match self {
            NistBinary::B163 => 163,
            NistBinary::B233 => 233,
            NistBinary::B283 => 283,
            NistBinary::B409 => 409,
            NistBinary::B571 => 571,
        }
    }

    /// Number of 32-bit limbs per field element.
    pub fn limbs(self) -> usize {
        self.m().div_ceil(32)
    }

    /// Exponents of the reduction polynomial below the leading term, in
    /// decreasing order (the leading `x^m` term is implied).
    ///
    /// For example `B163` yields `[7, 6, 3, 0]` for
    /// `x^163 + x^7 + x^6 + x^3 + 1`.
    pub fn poly_terms(self) -> &'static [usize] {
        match self {
            NistBinary::B163 => &[7, 6, 3, 0],
            NistBinary::B233 => &[74, 0],
            NistBinary::B283 => &[12, 7, 5, 0],
            NistBinary::B409 => &[87, 0],
            NistBinary::B571 => &[10, 5, 2, 0],
        }
    }

    /// Human-readable name, e.g. `"B-163"`.
    pub fn name(self) -> &'static str {
        match self {
            NistBinary::B163 => "B-163",
            NistBinary::B233 => "B-233",
            NistBinary::B283 => "B-283",
            NistBinary::B409 => "B-409",
            NistBinary::B571 => "B-571",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_have_expected_bit_lengths_and_are_prime() {
        for p in NistPrime::ALL {
            let m = p.modulus();
            assert_eq!(m.bit_len(), p.bits(), "{}", p.name());
            assert!(m.is_probable_prime(8), "{} not prime?!", p.name());
        }
    }

    #[test]
    fn p192_matches_published_hex() {
        assert_eq!(
            NistPrime::P192.modulus().to_hex(),
            "fffffffffffffffffffffffffffffffeffffffffffffffff"
        );
    }

    #[test]
    fn p256_matches_published_hex() {
        assert_eq!(
            NistPrime::P256.modulus().to_hex(),
            "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
        );
    }

    #[test]
    fn p521_is_mersenne() {
        let m = NistPrime::P521.modulus();
        assert_eq!(m.bit_len(), 521);
        assert!((0..521).all(|i| m.bit(i)));
    }

    #[test]
    fn binary_terms_are_decreasing_and_below_m() {
        for b in NistBinary::ALL {
            let terms = b.poly_terms();
            assert!(terms.windows(2).all(|w| w[0] > w[1]));
            assert!(terms[0] < b.m());
            assert_eq!(*terms.last().unwrap(), 0);
        }
    }

    #[test]
    fn limb_counts() {
        assert_eq!(NistPrime::P521.limbs(), 17);
        assert_eq!(NistBinary::B163.limbs(), 6);
        assert_eq!(NistBinary::B571.limbs(), 18);
    }
}
