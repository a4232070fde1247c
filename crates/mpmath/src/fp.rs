//! Prime-field GF(p) arithmetic (§2.1.3, §4.2.1).
//!
//! A [`PrimeField`] context fixes the modulus once and precomputes the
//! folding constants used by fast reduction. Elements are fixed-width
//! little-endian limb arrays of `k = ceil(bits/32)` limbs, exactly the
//! in-memory representation of the simulated software suite. Every
//! element and every intermediate lives in a stack array of at most
//! [`MAX_LIMBS`] limbs (two of them for a double-width product), so the
//! field operations allocate nothing.
//!
//! Multiplication is operand scanning (Algorithm 2) followed by fast
//! reduction. Reduction exploits the *modular congruency* idea of §4.2.1:
//! every power `2^(32*(k+j))` appearing in the double-width product is
//! congruent to a precomputed k-limb constant, so the high half of the
//! product can be folded back into the low half with `k` multiply-
//! accumulate rows — for the sparse NIST primes these constants have very
//! few non-zero limbs, which is what makes the technique "fast" in the
//! paper. The result is verified against division-based reduction in the
//! test suite.

use crate::mp::{self, Limb, Mp};
use crate::nist::NistPrime;
use std::cmp::Ordering;
use std::fmt;

/// Limb capacity of an [`FpElement`]: 18 limbs (576 bits) hold the widest
/// field in use, the 570-bit group-order field of K-571.
pub const MAX_LIMBS: usize = 18;

/// An element of a prime field: `k` little-endian limbs, always fully
/// reduced (`< p`), in a fixed array whose limbs past `k` are zero.
///
/// Elements are produced by and consumed by a [`PrimeField`] context; using
/// an element with a field of a different width is a logic error (checked
/// with debug assertions).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpElement {
    limbs: [Limb; MAX_LIMBS],
    k: usize,
}

impl FpElement {
    /// The little-endian limbs of the element.
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs[..self.k]
    }

    /// Converts to an arbitrary-precision integer.
    pub fn to_mp(&self) -> Mp {
        Mp::from_limbs(self.limbs())
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(&self) -> bool {
        mp::is_zero(self.limbs())
    }

    /// Returns bit `i` of the canonical representative.
    pub fn bit(&self, i: usize) -> bool {
        mp::bit(self.limbs(), i)
    }
}

impl fmt::Debug for FpElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FpElement(0x{})", self.to_mp().to_hex())
    }
}

/// A prime-field context: the modulus plus every precomputed constant
/// needed for fast arithmetic.
#[derive(Clone, Debug)]
pub struct PrimeField {
    name: String,
    modulus: [Limb; MAX_LIMBS],
    modulus_mp: Mp,
    k: usize,
    bits: usize,
    /// `fold[j] = 2^(32*(k+j)) mod p` for `j in 0..k`.
    fold: [[Limb; MAX_LIMBS]; MAX_LIMBS],
    /// `2^bits mod p`, for the bit-granular reduction tail.
    two_b: [Limb; MAX_LIMBS],
}

impl PrimeField {
    /// Creates a field for one of the NIST primes of the study.
    pub fn nist(p: NistPrime) -> Self {
        Self::new(p.name(), &p.modulus())
    }

    /// Creates a field for an arbitrary odd prime modulus.
    ///
    /// The primality of `modulus` is the caller's responsibility (the
    /// ECDSA group orders, for instance, are validated once at curve
    /// construction). Used for protocol arithmetic modulo the group order
    /// `n` (§4.1), which is *not* a fast-reduction prime.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 3`, if `modulus` is even, or if it is wider
    /// than [`MAX_LIMBS`] limbs.
    pub fn new(name: &str, modulus: &Mp) -> Self {
        assert!(modulus.bit_len() >= 2, "modulus too small");
        assert!(modulus.bit(0), "modulus must be odd");
        let bits = modulus.bit_len();
        let k = bits.div_ceil(32);
        assert!(
            k <= MAX_LIMBS,
            "{name}: a {bits}-bit modulus needs {k} limbs, more than MAX_LIMBS = {MAX_LIMBS}"
        );
        let limbs = |v: &Mp| {
            let mut out = [0; MAX_LIMBS];
            out[..k].copy_from_slice(&v.to_limbs(k));
            out
        };
        let mut fold = [[0; MAX_LIMBS]; MAX_LIMBS];
        for (j, row) in fold.iter_mut().enumerate().take(k) {
            *row = limbs(&Mp::one().shl(32 * (k + j)).rem(modulus));
        }
        PrimeField {
            name: name.to_owned(),
            modulus: limbs(modulus),
            modulus_mp: modulus.clone(),
            k,
            bits,
            fold,
            two_b: limbs(&Mp::one().shl(bits).rem(modulus)),
        }
    }

    /// The field's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The modulus.
    pub fn modulus(&self) -> &Mp {
        &self.modulus_mp
    }

    /// Modulus as `k` little-endian limbs.
    pub fn modulus_limbs(&self) -> &[Limb] {
        &self.modulus[..self.k]
    }

    /// Element width in limbs (`k = ceil(bits/32)`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Modulus bit length.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The zero element.
    pub fn zero(&self) -> FpElement {
        self.element([0; MAX_LIMBS])
    }

    /// The one element.
    pub fn one(&self) -> FpElement {
        self.from_u64(1)
    }

    /// Embeds a small integer.
    pub fn from_u64(&self, v: u64) -> FpElement {
        let limbs = [v as Limb, (v >> 32) as Limb];
        let len = if limbs[1] == 0 { 1 } else { 2 };
        self.reduced(&limbs[..len])
            .unwrap_or_else(|| self.from_mp(&Mp::from_u64(v)))
    }

    /// Reduces an arbitrary integer into the field. A value already
    /// below `p` is taken as is, without a division.
    pub fn from_mp(&self, v: &Mp) -> FpElement {
        self.reduced(v.limbs()).unwrap_or_else(|| {
            self.reduced(v.rem(&self.modulus_mp).limbs())
                .expect("remainder lies below the modulus")
        })
    }

    /// Interprets exactly `k` limbs as an element.
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len() != k` or the value is not fully reduced.
    pub fn from_limbs(&self, limbs: &[Limb]) -> FpElement {
        assert_eq!(limbs.len(), self.k, "element width mismatch");
        self.reduced(limbs).expect("element not reduced")
    }

    /// `a + b mod p` — multi-precision add followed by a conditional
    /// subtraction of the modulus (§4.2.4).
    pub fn add(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        let mut out = [0; MAX_LIMBS];
        let o = &mut out[..self.k];
        let carry = mp::add3(o, a.limbs(), b.limbs());
        if carry || mp::cmp(o, self.modulus_limbs()) != Ordering::Less {
            mp::sub_into(o, self.modulus_limbs());
        }
        self.element(out)
    }

    /// `a - b mod p` — subtraction with a conditional add-back of the
    /// modulus (§4.2.4).
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        let mut out = [0; MAX_LIMBS];
        let o = &mut out[..self.k];
        if mp::sub3(o, a.limbs(), b.limbs()) {
            mp::add_into(o, self.modulus_limbs());
        }
        self.element(out)
    }

    /// `-a mod p`.
    pub fn neg(&self, a: &FpElement) -> FpElement {
        self.check(a);
        if a.is_zero() {
            return self.zero();
        }
        let mut out = [0; MAX_LIMBS];
        mp::sub3(&mut out[..self.k], self.modulus_limbs(), a.limbs());
        self.element(out)
    }

    /// `a * b mod p`: operand-scanning multiplication (Algorithm 2) plus
    /// fast reduction.
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        let mut wide = [0; 2 * MAX_LIMBS];
        let wide = &mut wide[..2 * self.k];
        mp::mul_operand_scanning_into(wide, a.limbs(), b.limbs());
        self.reduce_wide(wide)
    }

    /// `a^2 mod p`.
    pub fn sqr(&self, a: &FpElement) -> FpElement {
        self.mul(a, a)
    }

    /// Doubles an element (`2a mod p`).
    pub fn dbl(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Multiplies by a small scalar.
    pub fn mul_u64(&self, a: &FpElement, s: u64) -> FpElement {
        let mut acc = self.zero();
        for i in (0..64 - s.leading_zeros() as usize).rev() {
            acc = self.dbl(&acc);
            if (s >> i) & 1 == 1 {
                acc = self.add(&acc, a);
            }
        }
        acc
    }

    /// Reduces a double-width (`2k`-limb) product into the field by
    /// congruency folding.
    ///
    /// # Panics
    ///
    /// Panics if `wide.len() != 2k`.
    pub fn reduce_wide(&self, wide: &[Limb]) -> FpElement {
        assert_eq!(wide.len(), 2 * self.k, "wide operand width mismatch");
        let k = self.k;
        // Accumulator with two guard limbs: low half + sum of k folded rows.
        let mut buf = [0; MAX_LIMBS + 2];
        let acc = &mut buf[..k + 2];
        acc[..k].copy_from_slice(&wide[..k]);
        for (j, &h) in wide[k..].iter().enumerate() {
            if h != 0 {
                let carry = mp::mul_add_limb(acc, &self.fold[j][..k], h);
                debug_assert_eq!(carry, 0, "guard limbs overflowed");
            }
        }
        // Fold the guard limbs themselves, then finish at bit granularity.
        loop {
            let hi0 = acc[k];
            let hi1 = acc[k + 1];
            if hi0 == 0 && hi1 == 0 {
                break;
            }
            acc[k] = 0;
            acc[k + 1] = 0;
            if hi0 != 0 {
                mp::mul_add_limb(acc, &self.fold[0][..k], hi0);
            }
            if hi1 != 0 {
                mp::mul_add_limb(acc, &self.fold[1][..k], hi1);
            }
        }
        // acc < 2^(32k), so the bits at and above `bits` span at most 31
        // bits: fold them back as `hi * (2^bits mod p)` (k+1 limbs hold
        // the sum) until acc < 2^bits, then a final conditional
        // subtraction (at most a few iterations since 2^bits < 2p).
        let t = &mut acc[..k + 1];
        let (top, sh) = (self.bits / 32, self.bits % 32);
        loop {
            let hi = if sh == 0 {
                t[top]
            } else {
                debug_assert_eq!(t[top + 1] >> sh, 0, "tail wider than one limb");
                (t[top] >> sh) | (t[top + 1] << (32 - sh))
            };
            if hi == 0 {
                break;
            }
            if sh == 0 {
                t[top] = 0;
            } else {
                t[top] &= (1 << sh) - 1;
                t[top + 1] = 0;
            }
            mp::mul_add_limb(t, &self.two_b[..k], hi);
        }
        let t = &mut t[..k];
        while mp::cmp(t, self.modulus_limbs()) != Ordering::Less {
            mp::sub_into(t, self.modulus_limbs());
        }
        let mut out = [0; MAX_LIMBS];
        out[..k].copy_from_slice(t);
        self.element(out)
    }

    /// `a^e mod p` by left-to-right square-and-multiply.
    pub fn pow(&self, a: &FpElement, e: &Mp) -> FpElement {
        let mut result = self.one();
        for i in (0..e.bit_len()).rev() {
            result = self.sqr(&result);
            if e.bit(i) {
                result = self.mul(&result, a);
            }
        }
        result
    }

    /// Modular inverse by the **binary extended Euclidean algorithm**
    /// (§4.2.4, used on Pete), or `None` for zero.
    ///
    /// `u, v <= p` fit in `k` limbs; the coefficients `x1, x2` stay below
    /// `p` but `x + p` needs one guard limb.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        self.check(a);
        if a.is_zero() {
            return None;
        }
        let k = self.k;
        let p = self.modulus_limbs();
        let (mut u, mut v) = (a.limbs, self.modulus);
        let (u, v) = (&mut u[..k], &mut v[..k]);
        let (mut x1, mut x2) = ([0; MAX_LIMBS + 1], [0; MAX_LIMBS + 1]);
        let (x1, x2) = (&mut x1[..k + 1], &mut x2[..k + 1]);
        x1[0] = 1;
        while !is_one(u) && !is_one(v) {
            while u[0] & 1 == 0 {
                mp::shr1_into(u);
                halve_mod(x1, p);
            }
            while v[0] & 1 == 0 {
                mp::shr1_into(v);
                halve_mod(x2, p);
            }
            if mp::cmp(u, v) != Ordering::Less {
                mp::sub_into(u, v);
                sub_mod(x1, x2, p);
            } else {
                mp::sub_into(v, u);
                sub_mod(x2, x1, p);
            }
        }
        let r = if is_one(u) { x1 } else { x2 };
        let mut out = [0; MAX_LIMBS];
        out[..k].copy_from_slice(&r[..k]);
        Some(self.element(out))
    }

    /// Modular inverse by **Fermat's little theorem** (`a^(p-2)`), the
    /// method the Monte and Billie accelerated configurations use
    /// (§4.2.4).
    pub fn inv_fermat(&self, a: &FpElement) -> Option<FpElement> {
        if a.is_zero() {
            return None;
        }
        let e = self.modulus_mp.sub(&Mp::from_u64(2));
        Some(self.pow(a, &e))
    }

    /// Wraps limbs (zero past `k`, value below `p`) as an element.
    fn element(&self, limbs: [Limb; MAX_LIMBS]) -> FpElement {
        FpElement { limbs, k: self.k }
    }

    /// The element with these (zero-extended) limbs, if their value
    /// fits in `k` limbs and lies below `p`.
    fn reduced(&self, limbs: &[Limb]) -> Option<FpElement> {
        if limbs.len() > self.k || mp::cmp(limbs, self.modulus_limbs()) != Ordering::Less {
            return None;
        }
        let mut out = [0; MAX_LIMBS];
        out[..limbs.len()].copy_from_slice(limbs);
        Some(self.element(out))
    }

    fn check(&self, a: &FpElement) {
        debug_assert_eq!(a.k, self.k, "element belongs to another field");
        debug_assert!(
            mp::cmp(a.limbs(), self.modulus_limbs()) == Ordering::Less,
            "element not reduced"
        );
    }
}

fn is_one(x: &[Limb]) -> bool {
    x[0] == 1 && mp::is_zero(&x[1..])
}

/// `x = x / 2 mod p` for `x < p`, over `k + 1` limbs: an odd `x` becomes
/// the even `x + p` first.
fn halve_mod(x: &mut [Limb], p: &[Limb]) {
    if x[0] & 1 == 1 {
        mp::add_into(x, p);
    }
    mp::shr1_into(x);
}

/// `x = x - y mod p` for `x, y < p`, over `k + 1` limbs: on a borrow the
/// wrapped difference plus `p` wraps back to `x - y + p`.
fn sub_mod(x: &mut [Limb], y: &[Limb], p: &[Limb]) {
    if mp::sub_into(x, y) {
        mp::add_into(x, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nist::NistPrime;

    fn all_fields() -> Vec<PrimeField> {
        NistPrime::ALL
            .iter()
            .map(|&p| PrimeField::nist(p))
            .collect()
    }

    #[test]
    fn add_sub_inverse() {
        for f in all_fields() {
            let a = f.from_u64(0xdead_beef_1234_5678);
            let b = f.from_mp(&f.modulus().sub(&Mp::from_u64(5)));
            let s = f.add(&a, &b);
            assert_eq!(f.sub(&s, &b), a, "{}", f.name());
            assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
        }
    }

    #[test]
    fn mul_matches_division_reduction() {
        for f in all_fields() {
            // Deterministic pseudo-random operands near the modulus.
            let a = f.from_mp(&f.modulus().sub(&Mp::from_u64(12345)));
            let b = f.from_mp(&f.modulus().sub(&Mp::from_u64(987_654_321)));
            let fast = f.mul(&a, &b);
            let slow = a.to_mp().mul(&b.to_mp()).rem(f.modulus());
            assert_eq!(fast.to_mp(), slow, "{}", f.name());
        }
    }

    #[test]
    fn inversion_both_methods() {
        for f in all_fields() {
            let a = f.from_u64(0x1234_5678_9abc_def1);
            let i1 = f.inv(&a).unwrap();
            let i2 = f.inv_fermat(&a).unwrap();
            assert_eq!(i1, i2, "{}", f.name());
            assert_eq!(f.mul(&a, &i1), f.one(), "{}", f.name());
            assert!(f.inv(&f.zero()).is_none());
        }
    }

    #[test]
    fn reduce_wide_extremes() {
        for f in all_fields() {
            let k = f.k();
            // All-ones double-width value.
            let wide = vec![u32::MAX; 2 * k];
            let got = f.reduce_wide(&wide);
            let expect = Mp::from_limbs(&wide).rem(f.modulus());
            assert_eq!(got.to_mp(), expect, "{}", f.name());
            // Zero.
            assert!(f.reduce_wide(&vec![0; 2 * k]).is_zero());
        }
    }

    #[test]
    fn generic_modulus_group_order_style() {
        // An arbitrary odd prime (a 127-bit Mersenne), exercising the
        // generic path used for mod-n protocol arithmetic.
        let n = Mp::one().shl(127).sub(&Mp::one());
        let f = PrimeField::new("M127", &n);
        let a = f.from_u64(0xffff_ffff_ffff_fff1);
        let inv = f.inv(&a).unwrap();
        assert_eq!(f.mul(&a, &inv), f.one());
        let b = f.from_u64(3);
        assert_eq!(f.mul(&a, &b).to_mp(), a.to_mp().mul(&b.to_mp()).rem(&n));
    }

    #[test]
    fn pow_small_cases() {
        let f = PrimeField::nist(NistPrime::P192);
        let a = f.from_u64(2);
        assert_eq!(f.pow(&a, &Mp::from_u64(10)), f.from_u64(1024));
        assert_eq!(f.pow(&a, &Mp::zero()), f.one());
    }

    #[test]
    fn mul_u64_matches_repeated_add() {
        let f = PrimeField::nist(NistPrime::P224);
        let a = f.from_u64(0x1357_9bdf);
        let mut acc = f.zero();
        for _ in 0..29 {
            acc = f.add(&acc, &a);
        }
        assert_eq!(f.mul_u64(&a, 29), acc);
    }
}
