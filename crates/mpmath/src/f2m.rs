//! Binary-field GF(2^m) arithmetic (§2.1.4, §4.2.2–4.2.4).
//!
//! Binary ("carry-less") arithmetic: addition is bitwise XOR, so no carry
//! chains and no reduction after add/sub. Multiplication is polynomial
//! multiplication over GF(2) followed by reduction modulo the irreducible
//! NIST polynomial (eq. 4.8–4.12).
//!
//! Three multipliers are provided, matching the three software tiers of
//! the paper:
//!
//! * [`BinaryField::mul_comb`] — the left-to-right **comb method with
//!   4-bit windows** (Algorithm 6), what the *baseline* (no carry-less
//!   hardware) runs;
//! * [`BinaryField::mul_clmul`] — carry-less **product scanning**, what the
//!   `MULGF2`/`MADDGF2` ISA extensions (Table 5.2) enable;
//! * [`BinaryField::mul`] — the default (clmul-based) host reference.
//!
//! Squaring uses the zero-interleaving expansion (§4.2.3) via an 8-bit →
//! 16-bit spread table, and reduction is the word-level fast reduction of
//! Algorithm 7, generalized over the sparse term list of the field
//! polynomial.

use crate::mp::{self, Limb, Mp};
use crate::nist::NistBinary;
use std::fmt;

/// Carry-less 32×32 → 64-bit multiplication (the datapath primitive the
/// `MULGF2` instruction provides in hardware).
///
/// Branch-free: each operand is split into four bit classes with
/// three-bit holes between set bits, so sixteen integer products can
/// carry only into the holes, which the final masks drop.
pub fn clmul32(a: u32, b: u32) -> u64 {
    const M: [u32; 4] = [0x1111_1111, 0x2222_2222, 0x4444_4444, 0x8888_8888];
    const W: [u64; 4] = [
        0x1111_1111_1111_1111,
        0x2222_2222_2222_2222,
        0x4444_4444_4444_4444,
        0x8888_8888_8888_8888,
    ];
    let x = M.map(|m| (a & m) as u64);
    let y = M.map(|m| (b & m) as u64);
    let mut z = 0u64;
    for (c, w) in W.iter().enumerate() {
        // Bit class c of the product: x_i * y_j with i + j ≡ c (mod 4).
        let mut t = 0u64;
        for (i, xi) in x.iter().enumerate() {
            t ^= xi.wrapping_mul(y[(c + 4 - i) % 4]);
        }
        z |= t & w;
    }
    z
}

/// An element of a binary field: `k` little-endian limbs with every bit at
/// position `>= m` clear.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct F2mElement(Vec<Limb>);

impl F2mElement {
    /// The little-endian limbs of the element.
    pub fn limbs(&self) -> &[Limb] {
        &self.0
    }

    /// Converts to an integer whose bits are the polynomial coefficients.
    pub fn to_mp(&self) -> Mp {
        Mp::from_limbs(&self.0)
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        mp::is_zero(&self.0)
    }

    /// Returns coefficient `i` of the polynomial.
    pub fn bit(&self, i: usize) -> bool {
        mp::bit(&self.0, i)
    }

    /// Degree of the polynomial (`None` for zero).
    pub fn degree(&self) -> Option<usize> {
        let b = mp::bit_len(&self.0);
        if b == 0 {
            None
        } else {
            Some(b - 1)
        }
    }
}

impl fmt::Debug for F2mElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F2mElement(0x{})", self.to_mp().to_hex())
    }
}

/// A binary-field context GF(2^m) with a sparse irreducible polynomial.
#[derive(Clone, Debug)]
pub struct BinaryField {
    name: String,
    m: usize,
    k: usize,
    /// Term exponents below `m`, decreasing, last is 0.
    terms: Vec<usize>,
    /// Whether the fast word-level fold of Algorithm 7 is applicable
    /// (`m - t1 >= 32` and `m % 32 != 0`, true of every NIST field);
    /// otherwise reduction falls back to a bit-serial fold.
    word_foldable: bool,
    /// 8-bit → 16-bit zero-interleaving table used by fast squaring
    /// (§4.2.3: the software-only system's precomputed table).
    spread: [u16; 256],
}

impl BinaryField {
    /// Creates one of the five NIST binary fields of the study.
    pub fn nist(b: NistBinary) -> Self {
        Self::new(b.name(), b.m(), b.poly_terms())
    }

    /// Creates a field for `f(x) = x^m + sum(x^terms[i])`.
    ///
    /// # Panics
    ///
    /// Panics unless the term list is strictly decreasing and ends with 0.
    /// When `m - terms[0] >= 32` and `m % 32 != 0` (true of every NIST
    /// polynomial) reduction uses the fast word-level fold of Algorithm 7;
    /// otherwise it transparently falls back to a bit-serial fold.
    pub fn new(name: &str, m: usize, terms: &[usize]) -> Self {
        assert!(m >= 2);
        assert!(!terms.is_empty() && *terms.last().unwrap() == 0);
        assert!(terms.windows(2).all(|w| w[0] > w[1]), "terms must decrease");
        assert!(terms[0] < m, "terms must lie below the leading exponent");
        let word_foldable = m - terms[0] >= 32 && !m.is_multiple_of(32);
        let mut spread = [0u16; 256];
        for (b, entry) in spread.iter_mut().enumerate() {
            let mut s = 0u16;
            for i in 0..8 {
                if (b >> i) & 1 == 1 {
                    s |= 1 << (2 * i);
                }
            }
            *entry = s;
        }
        BinaryField {
            name: name.to_owned(),
            m,
            k: m.div_ceil(32),
            terms: terms.to_vec(),
            word_foldable,
            spread,
        }
    }

    /// Field name, e.g. `"B-163"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Extension degree `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Element width in limbs.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Term exponents of the reduction polynomial below `x^m`.
    pub fn terms(&self) -> &[usize] {
        &self.terms
    }

    /// The full reduction polynomial as an integer bit vector (degree `m`).
    pub fn poly_mp(&self) -> Mp {
        let mut f = Mp::one().shl(self.m);
        for &t in &self.terms {
            f = f.add(&Mp::one().shl(t)); // bits are distinct, add == xor
        }
        f
    }

    /// The zero element.
    pub fn zero(&self) -> F2mElement {
        F2mElement(vec![0; self.k])
    }

    /// The one element.
    pub fn one(&self) -> F2mElement {
        let mut v = vec![0; self.k];
        v[0] = 1;
        F2mElement(v)
    }

    /// Builds an element from an integer bit vector, reducing mod `f`.
    pub fn from_mp(&self, v: &Mp) -> F2mElement {
        // Bit-serial reduction of arbitrarily long input: fold every bit
        // >= m. Inputs in practice are <= 2m bits; clarity over speed.
        let mut limbs = v.limbs().to_vec();
        limbs.resize(limbs.len().max(2 * self.k), 0);
        let wide = self.reduce(&limbs);
        F2mElement(wide)
    }

    /// Interprets exactly `k` limbs as an element.
    ///
    /// # Panics
    ///
    /// Panics if the width is wrong or a coefficient at position `>= m` is
    /// set.
    pub fn from_limbs(&self, limbs: &[Limb]) -> F2mElement {
        assert_eq!(limbs.len(), self.k);
        assert!(mp::bit_len(limbs) <= self.m, "element not reduced");
        F2mElement(limbs.to_vec())
    }

    /// `a + b` — bitwise XOR; identical to subtraction (§2.1.4).
    pub fn add(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        F2mElement(a.0.iter().zip(&b.0).map(|(x, y)| x ^ y).collect())
    }

    /// `a * b mod f` via the default (carry-less product scanning)
    /// multiplier.
    pub fn mul(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.mul_clmul(a, b)
    }

    /// Left-to-right comb multiplication with 4-bit windows — Algorithm 6
    /// with `w = 4`, the choice the paper found to balance precomputation
    /// RAM against speed on the software-only system (§4.2.2).
    pub fn mul_comb(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        let k = self.k;
        // Precompute Bu = u(x) * b(x) for all u of degree < 4.
        let mut table = vec![vec![0 as Limb; k + 1]; 16];
        #[allow(clippy::needless_range_loop)]
        for u in 1..16usize {
            let mut row = vec![0 as Limb; k + 1];
            for bit in 0..4 {
                if (u >> bit) & 1 == 1 {
                    let mut carry = 0u32;
                    for (j, &bw) in b.0.iter().enumerate() {
                        row[j] ^= (bw << bit) | carry;
                        carry = if bit == 0 { 0 } else { bw >> (32 - bit) };
                    }
                    row[k] ^= carry;
                }
            }
            table[u] = row;
        }
        let mut c = vec![0 as Limb; 2 * k + 1];
        for j in (0..8).rev() {
            for i in 0..k {
                let u = ((a.0[i] >> (4 * j)) & 0xf) as usize;
                if u != 0 {
                    for (l, &w) in table[u].iter().enumerate() {
                        c[i + l] ^= w;
                    }
                }
            }
            if j != 0 {
                // C <<= 4 (carry-less shift of the whole accumulator).
                let mut carry = 0u32;
                for w in c.iter_mut() {
                    let next = *w >> 28;
                    *w = (*w << 4) | carry;
                    carry = next;
                }
            }
        }
        F2mElement(self.reduce(&c[..2 * k]))
    }

    /// Carry-less product-scanning multiplication — Algorithm 3 with the
    /// `(t,u,v) <- (t,u,v) XOR a_j (x) b_{i-j}` step that the `MADDGF2`
    /// extension performs in hardware (§5.2.2). No precomputation, no
    /// table RAM.
    pub fn mul_clmul(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        let mut wide = vec![0 as Limb; 2 * self.k];
        self.clmul_wide(&a.0, &b.0, &mut wide);
        self.reduce_in_place(&mut wide);
        wide.truncate(self.k);
        F2mElement(wide)
    }

    /// The unreduced carry-less product of two `k`-limb polynomials,
    /// written to `wide[..2k]` — [`BinaryField::mul_clmul`] before its
    /// reduction, on caller-owned storage.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is shorter than `k` or `wide` than `2k`.
    pub fn clmul_wide(&self, a: &[Limb], b: &[Limb], wide: &mut [Limb]) {
        let k = self.k;
        let mut acc: u64 = 0;
        #[allow(clippy::needless_range_loop)]
        for i in 0..(2 * k - 1) {
            let lo = i.saturating_sub(k - 1);
            let hi = i.min(k - 1);
            for j in lo..=hi {
                acc ^= clmul32(a[j], b[i - j]);
            }
            wide[i] = acc as Limb;
            acc >>= 32;
        }
        wide[2 * k - 1] = acc as Limb;
    }

    /// `a^2 mod f` via zero-interleaving expansion (§4.2.3) — `O(k)`,
    /// dramatically cheaper than multiplication, one of the headline
    /// advantages of binary fields.
    pub fn sqr(&self, a: &F2mElement) -> F2mElement {
        self.check(a);
        let mut wide = vec![0 as Limb; 2 * self.k];
        self.sqr_wide(&a.0, &mut wide);
        self.reduce_in_place(&mut wide);
        wide.truncate(self.k);
        F2mElement(wide)
    }

    /// The unreduced square of a `k`-limb polynomial, written to
    /// `wide[..2k]` — [`BinaryField::sqr`] before its reduction.
    ///
    /// # Panics
    ///
    /// Panics if `a` is shorter than `k` or `wide` than `2k`.
    pub fn sqr_wide(&self, a: &[Limb], wide: &mut [Limb]) {
        for (i, &w) in a[..self.k].iter().enumerate() {
            let lo = self.spread[(w & 0xff) as usize] as u32
                | (self.spread[((w >> 8) & 0xff) as usize] as u32) << 16;
            let hi = self.spread[((w >> 16) & 0xff) as usize] as u32
                | (self.spread[(w >> 24) as usize] as u32) << 16;
            wide[2 * i] = lo;
            wide[2 * i + 1] = hi;
        }
    }

    /// Word-level fast reduction (Algorithm 7, generalized): folds a
    /// double-width polynomial back below degree `m` using the sparse term
    /// list. Returns `k` masked limbs.
    ///
    /// # Panics
    ///
    /// Panics if `wide.len() < k`.
    pub fn reduce(&self, wide: &[Limb]) -> Vec<Limb> {
        let mut c = wide.to_vec();
        self.reduce_in_place(&mut c);
        c.truncate(self.k);
        c
    }

    /// [`BinaryField::reduce`] on caller-owned storage: on return
    /// `c[..k]` holds the reduced element and every limb above it is
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() < k`.
    pub fn reduce_in_place(&self, c: &mut [Limb]) {
        assert!(c.len() >= self.k);
        if !self.word_foldable {
            return self.reduce_bit_serial(c);
        }
        let kw = self.m / 32; // word index containing bit m
        let r = self.m % 32;
        for i in (kw + 1..c.len()).rev() {
            let t = c[i];
            if t == 0 {
                continue;
            }
            c[i] = 0;
            let base = 32 * i - self.m;
            for &term in &self.terms {
                let s = base + term;
                let (word, off) = (s / 32, s % 32);
                c[word] ^= t << off;
                if off != 0 {
                    c[word + 1] ^= t >> (32 - off);
                }
            }
        }
        // Partial top word: coefficients m .. 32*(kw+1)-1.
        let t = c[kw] >> r;
        if t != 0 {
            for &term in &self.terms {
                let (word, off) = (term / 32, term % 32);
                c[word] ^= t << off;
                if off != 0 {
                    c[word + 1] ^= t >> (32 - off);
                }
            }
        }
        c[kw] &= (1u32 << r) - 1;
        debug_assert!(mp::bit_len(c) <= self.m);
    }

    /// Bit-serial reduction fallback for polynomials too dense (or fields
    /// too small) for the word fold.
    fn reduce_bit_serial(&self, c: &mut [Limb]) {
        for i in (self.m..32 * c.len()).rev() {
            if (c[i / 32] >> (i % 32)) & 1 == 1 {
                c[i / 32] ^= 1 << (i % 32);
                for &term in &self.terms {
                    let s = i - self.m + term;
                    c[s / 32] ^= 1 << (s % 32);
                }
            }
        }
    }

    /// Inverse by the **polynomial extended Euclidean algorithm**
    /// (§4.2.4), or `None` for zero.
    pub fn inv(&self, a: &F2mElement) -> Option<F2mElement> {
        if a.is_zero() {
            return None;
        }
        // Work on (2k+1)-limb polynomials so g1/g2 shifts never clip.
        let width = 2 * self.k + 1;
        let pad = |v: &[Limb]| {
            let mut out = v.to_vec();
            out.resize(width, 0);
            out
        };
        let mut u = pad(&a.0);
        let mut v = pad(&self.poly_mp().to_limbs(self.k + 1));
        let mut g1 = pad(&[1]);
        let mut g2 = pad(&[]);
        let xor_shifted = |dst: &mut [Limb], src: &[Limb], j: usize| {
            let (ws, bs) = (j / 32, j % 32);
            for i in 0..src.len() {
                if src[i] == 0 {
                    continue;
                }
                dst[i + ws] ^= src[i] << bs;
                if bs != 0 && i + ws + 1 < dst.len() {
                    dst[i + ws + 1] ^= src[i] >> (32 - bs);
                }
            }
        };
        loop {
            let du = mp::bit_len(&u);
            if du <= 1 {
                break; // u == 1 (u can't reach 0 before 1: gcd(a,f)=1)
            }
            let dv = mp::bit_len(&v);
            if dv <= 1 {
                std::mem::swap(&mut u, &mut v);
                std::mem::swap(&mut g1, &mut g2);
                break;
            }
            if du >= dv {
                let j = du - dv;
                xor_shifted(&mut u, &v, j);
                xor_shifted(&mut g1, &g2, j);
            } else {
                let j = dv - du;
                xor_shifted(&mut v, &u, j);
                xor_shifted(&mut g2, &g1, j);
            }
        }
        debug_assert_eq!(mp::bit_len(&u), 1);
        Some(self.from_mp(&Mp::from_limbs(&g1)))
    }

    /// Inverse by **Fermat's little theorem** for GF(2^m):
    /// `a^(2^m - 2)` computed with square-and-multiply, the method the
    /// Billie-accelerated configuration uses because squaring is nearly
    /// free in hardware (§4.2.4, §5.5).
    pub fn inv_fermat(&self, a: &F2mElement) -> Option<F2mElement> {
        if a.is_zero() {
            return None;
        }
        // 2^m - 2 = 0b111...10 (m-1 ones then a zero).
        let mut result = self.one();
        for i in (1..self.m).rev() {
            result = self.sqr(&result);
            let _ = i;
            result = self.mul(&result, a);
        }
        Some(self.sqr(&result))
    }

    fn check(&self, a: &F2mElement) {
        debug_assert_eq!(a.0.len(), self.k, "element belongs to another field");
        debug_assert!(mp::bit_len(&a.0) <= self.m, "element not reduced");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nist::NistBinary;

    fn all_fields() -> Vec<BinaryField> {
        NistBinary::ALL
            .iter()
            .map(|&b| BinaryField::nist(b))
            .collect()
    }

    /// Slow polynomial reference: bit-serial multiply-and-reduce.
    fn slow_mul(f: &BinaryField, a: &F2mElement, b: &F2mElement) -> F2mElement {
        let mut acc = f.zero();
        for i in (0..f.m()).rev() {
            // acc = acc * x mod f
            let mut shifted = acc.to_mp().shl(1);
            if shifted.bit(f.m()) {
                let mut poly = Mp::one().shl(f.m());
                for &t in f.terms() {
                    poly = poly.add(&Mp::one().shl(t));
                }
                // xor == add here because the set bits are disjoint only
                // sometimes; do real xor via limbs.
                let mut l = shifted.to_limbs(f.k() + 1);
                let p = poly.to_limbs(f.k() + 1);
                for (x, y) in l.iter_mut().zip(&p) {
                    *x ^= *y;
                }
                shifted = Mp::from_limbs(&l);
            }
            acc = F2mElement(shifted.to_limbs(f.k()));
            if b.bit(i) {
                acc = f.add(&acc, a);
            }
        }
        acc
    }

    fn sample(f: &BinaryField, seed: u64) -> F2mElement {
        // xorshift-filled element
        let mut x = seed | 1;
        let mut limbs = vec![0u32; f.k()];
        for l in limbs.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *l = x as u32;
        }
        let r = f.m() % 32;
        limbs[f.k() - 1] &= (1u32 << r) - 1;
        f.from_limbs(&limbs)
    }

    #[test]
    fn clmul32_matches_the_bit_serial_definition() {
        let serial = |a: u32, b: u32| {
            (0..32)
                .filter(|i| (b >> i) & 1 == 1)
                .fold(0u64, |acc, i| acc ^ ((a as u64) << i))
        };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        };
        let edges = [0, 1, 2, 0x8000_0000, 0xffff_ffff, 0x1111_1111, 0x8888_8888];
        for &a in &edges {
            for &b in &edges {
                assert_eq!(clmul32(a, b), serial(a, b), "{a:#x} {b:#x}");
            }
        }
        for _ in 0..100_000 {
            let (a, b) = (next(), next());
            assert_eq!(clmul32(a, b), serial(a, b), "{a:#x} {b:#x}");
        }
    }

    #[test]
    fn clmul32_basics() {
        assert_eq!(clmul32(0, 12345), 0);
        assert_eq!(clmul32(1, 0xffff_ffff), 0xffff_ffff);
        // (x+1)(x+1) = x^2 + 1 in GF(2)[x]
        assert_eq!(clmul32(0b11, 0b11), 0b101);
        assert_eq!(clmul32(0xffff_ffff, 0xffff_ffff), 0x5555_5555_5555_5555);
    }

    #[test]
    fn gf2_7_worked_example_from_paper() {
        // §2.1.4: f(x) = x^7 + x + 1,
        // (x^6+x^3+x)(x^6+x^2+1) mod f = x^3 + x + 1
        let f = BinaryField::new("GF(2^7)", 7, &[1, 0]);
        let a = f.from_mp(&Mp::from_u64(0b1001010));
        let b = f.from_mp(&Mp::from_u64(0b1000101));
        assert_eq!(f.mul(&a, &b).to_mp().low_u64(), 0b1011);
        // (x^6+x^3+1)^2 mod f = x^5 + 1
        let c = f.from_mp(&Mp::from_u64(0b1001001));
        assert_eq!(f.sqr(&c).to_mp().low_u64(), 0b100001);
        // addition example: (x6+x4+x3+1) + (x5+x4+x2+1) = x6+x5+x3+x2
        let d = f.from_mp(&Mp::from_u64(0b1011001));
        let e = f.from_mp(&Mp::from_u64(0b0110101));
        assert_eq!(f.add(&d, &e).to_mp().low_u64(), 0b1101100);
    }

    #[test]
    fn multipliers_agree_with_slow_reference() {
        for f in all_fields() {
            let a = sample(&f, 0xabcdef12);
            let b = sample(&f, 0x12345678);
            let reference = slow_mul(&f, &a, &b);
            assert_eq!(f.mul_clmul(&a, &b), reference, "{} clmul", f.name());
            assert_eq!(f.mul_comb(&a, &b), reference, "{} comb", f.name());
        }
    }

    #[test]
    fn sqr_matches_mul() {
        for f in all_fields() {
            let a = sample(&f, 0xdeadbeef);
            assert_eq!(f.sqr(&a), f.mul(&a, &a), "{}", f.name());
        }
    }

    #[test]
    fn inversion_both_methods() {
        for f in all_fields() {
            let a = sample(&f, 0xfeedface);
            let i1 = f.inv(&a).expect("nonzero");
            let i2 = f.inv_fermat(&a).expect("nonzero");
            assert_eq!(i1, i2, "{}", f.name());
            assert_eq!(f.mul(&a, &i1), f.one(), "{}", f.name());
            assert!(f.inv(&f.zero()).is_none());
        }
    }

    #[test]
    fn add_is_involutive_and_sub() {
        for f in all_fields() {
            let a = sample(&f, 1);
            let b = sample(&f, 2);
            let s = f.add(&a, &b);
            assert_eq!(f.add(&s, &b), a); // add == sub
            assert_eq!(f.add(&a, &a), f.zero());
        }
    }

    #[test]
    fn distributivity_spot_check() {
        for f in all_fields() {
            let a = sample(&f, 3);
            let b = sample(&f, 4);
            let c = sample(&f, 5);
            let lhs = f.mul(&a, &f.add(&b, &c));
            let rhs = f.add(&f.mul(&a, &b), &f.mul(&a, &c));
            assert_eq!(lhs, rhs, "{}", f.name());
        }
    }

    #[test]
    fn frobenius_linearity() {
        // (a+b)^2 = a^2 + b^2 in characteristic 2 (§2.1.4).
        for f in all_fields() {
            let a = sample(&f, 6);
            let b = sample(&f, 7);
            assert_eq!(
                f.sqr(&f.add(&a, &b)),
                f.add(&f.sqr(&a), &f.sqr(&b)),
                "{}",
                f.name()
            );
        }
    }
}
