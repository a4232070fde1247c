//! Prime-field GF(p) arithmetic (§2.1.3, §4.2.1).
//!
//! A [`PrimeField`] context fixes the modulus once and precomputes the
//! folding constants used by fast reduction. Elements are fixed-width
//! little-endian limb arrays of `k = ceil(bits/32)` limbs, exactly the
//! in-memory representation of the simulated software suite. Every
//! element and every intermediate lives in a stack array of at most
//! [`MAX_LIMBS`] limbs, so the field operations allocate nothing.
//!
//! The host multiplies, reduces and inverts on 64-bit words: an operation
//! packs its `k` limbs into `K = ceil(k/2)` words, computes on those with
//! `u128` products, and unpacks the result. Multiplication is operand
//! scanning (Algorithm 2) followed by fast reduction. Reduction exploits
//! the *modular congruency* idea of §4.2.1: every power `2^(64*(K+j))`
//! appearing in the double-width product is congruent to a precomputed
//! K-word constant, so the high half of the product can be folded back
//! into the low half with `K` multiply-accumulate rows — for the sparse
//! NIST primes these constants have very few non-zero words, which is what
//! makes the technique "fast" in the paper. The simulated suite runs the
//! same algorithm on 32-bit words; canonical results make the two agree
//! bit for bit. The result is verified against division-based reduction
//! in the test suite.

use crate::mp::{self, Limb, Mp};
use crate::nist::NistPrime;
use crate::word;
use std::cmp::Ordering;
use std::fmt;

/// Limb capacity of an [`FpElement`]: 18 limbs (576 bits) hold the widest
/// field in use, the 570-bit group-order field of K-571.
pub const MAX_LIMBS: usize = 18;

/// 64-bit words of the widest element.
const MAX_WORDS: usize = MAX_LIMBS / 2;

/// Calls `self.$op::<K>(args)` with the field's word count as the const
/// `K`, so each width runs its own fully unrolled code.
macro_rules! by_width {
    ($self:ident.$op:ident($($arg:expr),*)) => {
        match $self.kw {
            1 => $self.$op::<1>($($arg),*),
            2 => $self.$op::<2>($($arg),*),
            3 => $self.$op::<3>($($arg),*),
            4 => $self.$op::<4>($($arg),*),
            5 => $self.$op::<5>($($arg),*),
            6 => $self.$op::<6>($($arg),*),
            7 => $self.$op::<7>($($arg),*),
            8 => $self.$op::<8>($($arg),*),
            9 => $self.$op::<9>($($arg),*),
            _ => unreachable!("at most MAX_WORDS words"),
        }
    };
}

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
    /// Element width in 64-bit words, `K = ceil(k/2)`.
    kw: usize,
    /// The modulus as `K` words.
    modulus_words: [u64; MAX_WORDS],
    /// `fold[j] = 2^(64*(K+j)) mod p` for `j in 0..max(K, 2)`.
    fold: [[u64; MAX_WORDS]; MAX_WORDS],
    /// `2^bits mod p`, for the bit-granular reduction tail.
    two_b: [u64; MAX_WORDS],
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
        let kw = k.div_ceil(2);
        let words = |v: &Mp| {
            let mut out = [0; MAX_WORDS];
            word::pack(v.limbs(), &mut out);
            out
        };
        // Each row is the one before times 2^64, so every division is
        // at most 65 quotient bits long.
        let mut fold = [[0; MAX_WORDS]; MAX_WORDS];
        let mut row = Mp::one().shl(64 * kw).rem(modulus);
        for (j, slot) in fold.iter_mut().enumerate().take(kw.max(2)) {
            if j > 0 {
                row = row.shl(64).rem(modulus);
            }
            *slot = words(&row);
        }
        let mut limbs = [0; MAX_LIMBS];
        limbs[..k].copy_from_slice(&modulus.to_limbs(k));
        PrimeField {
            name: name.to_owned(),
            modulus: limbs,
            modulus_mp: modulus.clone(),
            k,
            bits,
            kw,
            modulus_words: words(modulus),
            fold,
            two_b: words(&Mp::one().shl(bits).rem(modulus)),
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
        by_width!(self.add_k(a, b))
    }

    fn add_k<const K: usize>(&self, a: &FpElement, b: &FpElement) -> FpElement {
        let (mut x, y) = (words::<K>(a), words::<K>(b));
        let (x, p) = (&mut x[..K], &self.modulus_words[..K]);
        if word::add_into(x, &y[..K]) || word::cmp(x, p) != Ordering::Less {
            word::sub_into(x, p);
        }
        self.element_from_words(x)
    }

    /// `a - b mod p` — subtraction with a conditional add-back of the
    /// modulus (§4.2.4).
    pub fn sub(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        by_width!(self.sub_k(a, b))
    }

    fn sub_k<const K: usize>(&self, a: &FpElement, b: &FpElement) -> FpElement {
        let (mut x, y) = (words::<K>(a), words::<K>(b));
        let x = &mut x[..K];
        if word::sub_into(x, &y[..K]) {
            word::add_into(x, &self.modulus_words[..K]);
        }
        self.element_from_words(x)
    }

    /// `-a mod p`.
    pub fn neg(&self, a: &FpElement) -> FpElement {
        self.sub(&self.zero(), a)
    }

    /// `a * b mod p`: operand-scanning multiplication (Algorithm 2) on
    /// 64-bit words plus fast reduction.
    pub fn mul(&self, a: &FpElement, b: &FpElement) -> FpElement {
        self.check(a);
        self.check(b);
        by_width!(self.mul_k(a, b))
    }

    fn mul_k<const K: usize>(&self, a: &FpElement, b: &FpElement) -> FpElement {
        let (x, y) = (words::<K>(a), words::<K>(b));
        let mut wide = [0; 2 * MAX_WORDS];
        word::mul(&mut wide[..2 * K], &x[..K], &y[..K]);
        self.reduce_k::<K>(&wide)
    }

    /// `a^2 mod p`.
    pub fn sqr(&self, a: &FpElement) -> FpElement {
        self.mul(a, a)
    }

    /// Doubles an element (`2a mod p`).
    pub fn dbl(&self, a: &FpElement) -> FpElement {
        self.add(a, a)
    }

    /// Multiplies by a small scalar: double-and-add from `a` at the top
    /// set bit of `s`, so `×3` costs two additions and `×8` three.
    pub fn mul_u64(&self, a: &FpElement, s: u64) -> FpElement {
        if s == 0 {
            return self.zero();
        }
        let mut acc = *a;
        for i in (0..63 - s.leading_zeros() as usize).rev() {
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
        let mut w = [0; 2 * MAX_WORDS];
        word::pack(wide, &mut w);
        by_width!(self.reduce_k(&w))
    }

    /// Reduces the `2K`-word product in `wide[..2K]` by congruency
    /// folding.
    fn reduce_k<const K: usize>(&self, wide: &[u64; 2 * MAX_WORDS]) -> FpElement {
        // Accumulator with two guard words: low half + sum of K folded rows.
        let mut buf = [0; MAX_WORDS + 2];
        let acc = &mut buf[..K + 2];
        acc[..K].copy_from_slice(&wide[..K]);
        for (row, &h) in self.fold.iter().zip(&wide[K..2 * K]) {
            let carry = word::mul_add(acc, &row[..K], h);
            debug_assert_eq!(carry, 0, "guard words overflowed");
        }
        // Fold the guard words themselves, then finish at bit granularity.
        loop {
            let hi0 = acc[K];
            let hi1 = acc[K + 1];
            if hi0 == 0 && hi1 == 0 {
                break;
            }
            acc[K] = 0;
            acc[K + 1] = 0;
            word::mul_add(acc, &self.fold[0][..K], hi0);
            if hi1 != 0 {
                word::mul_add(acc, &self.fold[1][..K], hi1);
            }
        }
        // acc < 2^(64K), so the bits at and above `bits` span at most 63
        // bits: fold them back as `hi * (2^bits mod p)` (K+1 words hold
        // the sum) until acc < 2^bits, then a final conditional
        // subtraction (2^bits < 2p, so at most one).
        let t = &mut acc[..K + 1];
        let (top, sh) = (self.bits / 64, self.bits % 64);
        loop {
            let hi = if sh == 0 {
                t[top]
            } else {
                debug_assert_eq!(t[top + 1] >> sh, 0, "tail wider than one word");
                (t[top] >> sh) | (t[top + 1] << (64 - sh))
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
            word::mul_add(t, &self.two_b[..K], hi);
        }
        let (t, p) = (&mut t[..K], &self.modulus_words[..K]);
        if word::cmp(t, p) != Ordering::Less {
            word::sub_into(t, p);
        }
        self.element_from_words(t)
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
    /// Runs on 64-bit words: `u, v <= p` fit in `K` words; the
    /// coefficients `x1, x2` stay below `p` but `x + p` needs one guard
    /// word.
    pub fn inv(&self, a: &FpElement) -> Option<FpElement> {
        self.check(a);
        if a.is_zero() {
            return None;
        }
        Some(by_width!(self.inv_k(a)))
    }

    fn inv_k<const K: usize>(&self, a: &FpElement) -> FpElement {
        let p = &self.modulus_words[..K];
        let (mut u, mut v) = (words::<K>(a), self.modulus_words);
        let (u, v) = (&mut u[..K], &mut v[..K]);
        let (mut x1, mut x2) = ([0; MAX_WORDS + 1], [0; MAX_WORDS + 1]);
        let (x1, x2) = (&mut x1[..K + 1], &mut x2[..K + 1]);
        x1[0] = 1;
        while !is_one(u) && !is_one(v) {
            while u[0] & 1 == 0 {
                word::shr1(u);
                halve_mod(x1, p);
            }
            while v[0] & 1 == 0 {
                word::shr1(v);
                halve_mod(x2, p);
            }
            if word::cmp(u, v) != Ordering::Less {
                word::sub_into(u, v);
                sub_mod(x1, x2, p);
            } else {
                word::sub_into(v, u);
                sub_mod(x2, x1, p);
            }
        }
        let r = if is_one(u) { x1 } else { x2 };
        self.element_from_words(&r[..K])
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

    /// Wraps words holding a value below `p` as an element.
    fn element_from_words(&self, w: &[u64]) -> FpElement {
        let mut out = [0; MAX_LIMBS];
        word::unpack(w, &mut out[..2 * w.len()]);
        self.element(out)
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

/// The first `K` words of an element (zero past its `k` limbs).
fn words<const K: usize>(a: &FpElement) -> [u64; MAX_WORDS] {
    let mut out = [0; MAX_WORDS];
    word::pack(&a.limbs[..2 * K], &mut out[..K]);
    out
}

fn is_one(x: &[u64]) -> bool {
    x[0] == 1 && x[1..].iter().all(|&w| w == 0)
}

/// `x = x / 2 mod p` for `x < p`, over `K + 1` words: an odd `x` becomes
/// the even `x + p` first.
fn halve_mod(x: &mut [u64], p: &[u64]) {
    if x[0] & 1 == 1 {
        word::add_into(x, p);
    }
    word::shr1(x);
}

/// `x = x - y mod p` for `x, y < p`, over `K + 1` words: on a borrow the
/// wrapped difference plus `p` wraps back to `x - y + p`.
fn sub_mod(x: &mut [u64], y: &[u64], p: &[u64]) {
    if word::sub_into(x, y) {
        word::add_into(x, p);
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
