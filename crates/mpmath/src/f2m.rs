//! Binary-field GF(2^m) arithmetic (§2.1.4, §4.2.2–4.2.4).
//!
//! Binary ("carry-less") arithmetic: addition is bitwise XOR, so no carry
//! chains and no reduction after add/sub. Multiplication is polynomial
//! multiplication over GF(2) followed by reduction modulo the irreducible
//! NIST polynomial (eq. 4.8–4.12).
//!
//! Elements are fixed-width arrays of at most [`MAX_LIMBS`] 32-bit limbs,
//! the in-memory representation of the simulated software suite, and every
//! operation runs on stack arrays: the field operations allocate nothing.
//! The host computes on 64-bit words, two limbs at a time, and
//! [`BinaryField::mul_words`] / [`BinaryField::sqr_words`] take and return
//! those words directly (Billie's register file holds them). Two
//! multipliers are provided:
//!
//! * [`BinaryField::mul_comb`] — the left-to-right **comb method with
//!   4-bit windows** (Algorithm 6), what the *baseline* (no carry-less
//!   hardware) runs;
//! * [`BinaryField::mul`] — the host reference: one word-level carry-less
//!   product. Where the host CPU has a carry-less multiplier (x86-64
//!   `pclmulqdq`, detected at run time) it is product scanning on that
//!   instruction; elsewhere it is a **Karatsuba** product over 64-bit
//!   words (the split Pete's hardware multiplier makes, §7.8), where each
//!   64×64-bit word product is itself three [`clmul32`] products. The
//!   Karatsuba path is also the tests' oracle for the hardware one. The
//!   `MULGF2`/`MADDGF2` ISA extensions (Table 5.2) run product scanning on
//!   [`clmul32`]; canonical results make every multiplier agree bit for
//!   bit.
//!
//! Squaring uses the zero-interleaving expansion (§4.2.3), and reduction is
//! the word-level fast reduction of Algorithm 7 on 64-bit words,
//! generalized over the sparse term list of the field polynomial, with
//! each term's word offset fixed when the field is built.

use crate::mp::{self, Limb, Mp};
use crate::nist::NistBinary;
use crate::word;
use std::fmt;

/// Limb capacity of an [`F2mElement`]: 18 limbs (576 bits) hold the widest
/// field, GF(2^571).
pub const MAX_LIMBS: usize = 18;

/// 64-bit words of the widest element: the width of the word operands of
/// [`BinaryField::mul_words`] and [`BinaryField::sqr_words`].
pub const MAX_WORDS: usize = MAX_LIMBS / 2;

/// Words of a reduction input [`BinaryField::reduce`] folds on the stack:
/// a double-width product plus one spare limb.
const WIDE_WORDS: usize = 2 * MAX_WORDS + 1;

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

/// Carry-less 64×64 → 128-bit product by one Karatsuba step over 32-bit
/// halves: three [`clmul32`] products instead of four.
fn clmul64(a: u64, b: u64) -> u128 {
    let (a0, a1) = (a as u32, (a >> 32) as u32);
    let (b0, b1) = (b as u32, (b >> 32) as u32);
    let lo = clmul32(a0, b0);
    let hi = clmul32(a1, b1);
    let mid = clmul32(a0 ^ a1, b0 ^ b1) ^ lo ^ hi;
    lo as u128 ^ (mid as u128) << 32 ^ (hi as u128) << 64
}

/// Scratch words [`karatsuba`] needs for `n`-word operands: `4h` at this
/// level (two half sums and their product, `h = ceil(n/2)`) plus what the
/// middle product needs.
const fn karatsuba_scratch(n: usize) -> usize {
    if n <= 3 {
        0
    } else {
        let h = n.div_ceil(2);
        4 * h + karatsuba_scratch(h)
    }
}

/// The 2-word Karatsuba product on locals: three independent word
/// products.
#[inline(always)]
fn karatsuba2(a0: u64, a1: u64, b0: u64, b1: u64) -> [u64; 4] {
    let lo = clmul64(a0, b0);
    let hi = clmul64(a1, b1);
    let mid = clmul64(a0 ^ a1, b0 ^ b1) ^ lo ^ hi;
    let w = |x: u128| [x as u64, (x >> 64) as u64];
    let ([l0, l1], [m0, m1], [h0, h1]) = (w(lo), w(mid), w(hi));
    [l0, l1 ^ m0, h0 ^ m1, h1]
}

/// `out[..2n] = a * b` over GF(2)[x] for `n`-word operands, by recursive
/// Karatsuba: `a = a1·x^(64h) + a0` with `h = ceil(n/2)` low words, and
/// `a·b = a1b1·x^(128h) + ((a0+a1)(b0+b1) + a0b0 + a1b1)·x^(64h) + a0b0`.
/// Every word of `out` is written; `tmp` holds the half sums and the
/// middle product (see [`karatsuba_scratch`]). Two and three words, the
/// leaves of every split, run the same steps on locals, so their word
/// products are straight-line code the CPU overlaps.
fn karatsuba(a: &[u64], b: &[u64], out: &mut [u64], tmp: &mut [u64]) {
    let n = a.len();
    match n {
        1 => {
            let p = clmul64(a[0], b[0]);
            out[..2].copy_from_slice(&[p as u64, (p >> 64) as u64]);
            return;
        }
        2 => {
            out[..4].copy_from_slice(&karatsuba2(a[0], a[1], b[0], b[1]));
            return;
        }
        3 => {
            // h = 2: a0b0, a1b1 and (a0+a1)(b0+b1), with a1 one word.
            let lo = karatsuba2(a[0], a[1], b[0], b[1]);
            let hi = clmul64(a[2], b[2]);
            let (h0, h1) = (hi as u64, (hi >> 64) as u64);
            let m = karatsuba2(a[0] ^ a[2], a[1], b[0] ^ b[2], b[1]);
            let mid = [
                m[0] ^ lo[0] ^ h0,
                m[1] ^ lo[1] ^ h1,
                m[2] ^ lo[2],
                m[3] ^ lo[3],
            ];
            out[..6].copy_from_slice(&[
                lo[0],
                lo[1],
                lo[2] ^ mid[0],
                lo[3] ^ mid[1],
                h0 ^ mid[2],
                h1 ^ mid[3],
            ]);
            return;
        }
        _ => {}
    }
    let h = n.div_ceil(2);
    let (a0, a1) = a.split_at(h);
    let (b0, b1) = b.split_at(h);
    let (lo, hi) = out[..2 * n].split_at_mut(2 * h);
    karatsuba(a0, b0, lo, tmp);
    karatsuba(a1, b1, hi, tmp);
    let (sums, rest) = tmp.split_at_mut(4 * h);
    let (sa, sums) = sums.split_at_mut(h);
    let (sb, mid) = sums.split_at_mut(h);
    for i in 0..h {
        sa[i] = a0[i] ^ a1.get(i).unwrap_or(&0);
        sb[i] = b0[i] ^ b1.get(i).unwrap_or(&0);
    }
    karatsuba(sa, sb, mid, rest);
    for (i, m) in mid.iter_mut().enumerate() {
        *m ^= lo[i] ^ hi.get(i).unwrap_or(&0);
    }
    for (i, m) in mid.iter().enumerate() {
        out[h + i] ^= m;
    }
}

/// `out[..2n] = a · b` over GF(2)[x] for `n`-word operands, `1 <= n <=`
/// [`MAX_WORDS`]: the host CPU's carry-less multiplier where it has one,
/// else [`karatsuba`]. Every word of `out[..2n]` is written.
///
/// This is the workspace's one `unsafe` call: a `#[target_feature]`
/// function may only be called where the feature is known to be present.
#[allow(unsafe_code)]
fn clmul_words(a: &[u64], b: &[u64], out: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `pclmul::product` needs only the `pclmulqdq` CPU
        // feature (SSE2 is part of the x86-64 baseline), and the check
        // just above detected it on the running CPU.
        return unsafe { pclmul::product(a, b, out) };
    }
    let mut tmp = [0; karatsuba_scratch(MAX_WORDS)];
    karatsuba(a, b, out, &mut tmp);
}

/// The carry-less product on x86-64's `PCLMULQDQ` instruction.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use super::MAX_WORDS;
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_setzero_si128,
        _mm_srli_si128, _mm_xor_si128,
    };

    /// `out[..2n] = a · b` for `n`-word operands: one `match` fixes `n`
    /// at compile time for [`scan`].
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn product(a: &[u64], b: &[u64], out: &mut [u64]) {
        match a.len() {
            1 => scan::<1>(a, b, out),
            2 => scan::<2>(a, b, out),
            3 => scan::<3>(a, b, out),
            4 => scan::<4>(a, b, out),
            5 => scan::<5>(a, b, out),
            6 => scan::<6>(a, b, out),
            7 => scan::<7>(a, b, out),
            8 => scan::<8>(a, b, out),
            9 => scan::<9>(a, b, out),
            n => panic!("{n}-word operands: 1 to {MAX_WORDS} supported"),
        }
    }

    /// Operand scanning: the 128-bit product `a[i]·b[j]` is XORed into
    /// column `i + j`, whose low word, with the previous column's high
    /// word, is output word `i + j`. Both loops run `N` times, so they
    /// unroll fully. (Product scanning, whose inner trip count changes
    /// with the column, stayed a loop past four words and ran three to
    /// four times slower there.)
    #[target_feature(enable = "pclmulqdq")]
    #[inline]
    fn scan<const N: usize>(a: &[u64], b: &[u64], out: &mut [u64]) {
        let (a, b, out) = (&a[..N], &b[..N], &mut out[..2 * N]);
        let mut y = [_mm_setzero_si128(); N];
        for (y, &b) in y.iter_mut().zip(b) {
            *y = _mm_cvtsi64_si128(b as i64);
        }
        let mut col = [_mm_setzero_si128(); 2 * MAX_WORDS];
        for (i, &a) in a.iter().enumerate() {
            let x = _mm_cvtsi64_si128(a as i64);
            for (j, &y) in y.iter().enumerate() {
                col[i + j] = _mm_xor_si128(col[i + j], _mm_clmulepi64_si128::<0>(x, y));
            }
        }
        let mut carry = 0;
        for (o, &c) in out.iter_mut().zip(&col) {
            *o = _mm_cvtsi128_si64(c) as u64 ^ carry;
            carry = _mm_cvtsi128_si64(_mm_srli_si128::<8>(c)) as u64;
        }
    }
}

/// Zero-interleaving expansion of one limb: bit `i` moves to bit `2i`, so
/// the result is the limb's square in GF(2)[x] (§4.2.3).
fn spread32(x: Limb) -> u64 {
    let mut x = x as u64;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// An element of a binary field: `k` little-endian limbs with every bit at
/// position `>= m` clear, in a fixed array whose limbs past `k` are zero.
///
/// The width is a `u32`, so the element takes 76 bytes and a binary
/// `ecdsa::PublicKey` fits beside the 168-byte prime one.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct F2mElement {
    limbs: [Limb; MAX_LIMBS],
    k: u32,
}

impl F2mElement {
    /// The little-endian limbs of the element.
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs[..self.k as usize]
    }

    /// Converts to an integer whose bits are the polynomial coefficients.
    pub fn to_mp(&self) -> Mp {
        Mp::from_limbs(self.limbs())
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        mp::is_zero(self.limbs())
    }

    /// Returns coefficient `i` of the polynomial.
    pub fn bit(&self, i: usize) -> bool {
        mp::bit(self.limbs(), i)
    }

    /// Degree of the polynomial (`None` for zero).
    pub fn degree(&self) -> Option<usize> {
        mp::bit_len(self.limbs()).checked_sub(1)
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
    /// The fast word-level fold of Algorithm 7, where it applies
    /// (`m - t1 >= 64` and `m % 64 != 0`, true of every NIST field);
    /// otherwise reduction falls back to a bit-serial fold.
    fold: Option<WordFold>,
}

/// Where Algorithm 7 XORs each folded word, fixed when the field is built.
///
/// Bit `m + j` of a polynomial is congruent to the sum of bits `t + j`
/// over the terms `t`. Word `i` above the word holding bit `m` therefore
/// lands, for each term, at bit `64(i − top − 1) + 64 − r + t`, with
/// `top = m / 64` and `r = m % 64`.
#[derive(Clone, Debug)]
struct WordFold {
    /// Word index of bit `m`.
    top: usize,
    /// Bit of bit `m` within word `top`.
    r: u32,
    /// Per term: word and shift of `64 − r + t`, the target of word
    /// `top + 1` (word `i` lands `i − top − 1` words higher).
    words: Vec<(usize, u32)>,
    /// Per term: word and shift of `t`, the target of the bits of word
    /// `top` at and above `r`.
    bits: Vec<(usize, u32)>,
}

impl WordFold {
    /// Folds every coefficient at or above `m` of `c` below it, in place.
    /// Every term lies at least 64 bits below `m`, so a folded word lands
    /// wholly in lower words, which the top-down sweep reaches later.
    fn apply(&self, c: &mut [u64]) {
        // `t >> 1 >> (63 − s)` is `t >> (64 − s)`, and 0 at s = 0.
        let xor_at = |c: &mut [u64], (w, s): (usize, u32), t: u64| {
            c[w] ^= t << s;
            c[w + 1] ^= t >> 1 >> (63 - s);
        };
        for i in (self.top + 1..c.len()).rev() {
            let t = std::mem::take(&mut c[i]);
            let base = i - self.top - 1;
            for &(w, s) in &self.words {
                xor_at(c, (base + w, s), t);
            }
        }
        let t = c[self.top] >> self.r;
        c[self.top] ^= t << self.r;
        for &at in &self.bits {
            xor_at(c, at, t);
        }
    }
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
    /// Panics unless the term list is strictly decreasing and ends with 0,
    /// or if `m` needs more than [`MAX_LIMBS`] limbs. When
    /// `m - terms[0] >= 64` and `m % 64 != 0` (true of every NIST
    /// polynomial) reduction uses the fast word-level fold of Algorithm 7;
    /// otherwise it transparently falls back to a bit-serial fold.
    pub fn new(name: &str, m: usize, terms: &[usize]) -> Self {
        assert!(m >= 2);
        assert!(!terms.is_empty() && *terms.last().unwrap() == 0);
        assert!(terms.windows(2).all(|w| w[0] > w[1]), "terms must decrease");
        assert!(terms[0] < m, "terms must lie below the leading exponent");
        let k = m.div_ceil(32);
        assert!(
            k <= MAX_LIMBS,
            "{name}: GF(2^{m}) needs {k} limbs, more than MAX_LIMBS = {MAX_LIMBS}"
        );
        let (top, r) = (m / 64, m % 64);
        let split = |b: usize| (b / 64, (b % 64) as u32);
        let fold = (m - terms[0] >= 64 && r != 0).then(|| WordFold {
            top,
            r: r as u32,
            words: terms.iter().map(|&t| split(64 - r + t)).collect(),
            bits: terms.iter().map(|&t| split(t)).collect(),
        });
        BinaryField {
            name: name.to_owned(),
            m,
            k,
            terms: terms.to_vec(),
            fold,
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
        self.element([0; MAX_LIMBS])
    }

    /// The one element.
    pub fn one(&self) -> F2mElement {
        let mut limbs = [0; MAX_LIMBS];
        limbs[0] = 1;
        self.element(limbs)
    }

    /// Builds an element from an integer bit vector of any length,
    /// reducing mod `f`.
    pub fn from_mp(&self, v: &Mp) -> F2mElement {
        self.reduce(v.limbs())
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
        let mut out = [0; MAX_LIMBS];
        out[..self.k].copy_from_slice(limbs);
        self.element(out)
    }

    /// `a + b` — bitwise XOR; identical to subtraction (§2.1.4).
    pub fn add(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        let mut limbs = a.limbs;
        for (x, y) in limbs.iter_mut().zip(&b.limbs) {
            *x ^= y;
        }
        self.element(limbs)
    }

    /// `a * b mod f` via the word-level carry-less product
    /// ([`BinaryField::mul_words`]).
    pub fn mul(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        self.element_of(&self.mul_words(&Self::words_of(a), &Self::words_of(b)))
    }

    /// `a * b mod f` on 64-bit words: word `i` holds coefficients
    /// `64i .. 64i + 63`. The double-width product comes from the host's
    /// carry-less multiplier (or the Karatsuba fallback) and is folded in
    /// place on the stack; the words of the result past `ceil(k/2)` are
    /// zero.
    ///
    /// Operands must be reduced (no coefficient at or above `m`, words
    /// past `ceil(k/2)` ignored); this is checked in debug builds only.
    pub fn mul_words(&self, a: &[u64; MAX_WORDS], b: &[u64; MAX_WORDS]) -> [u64; MAX_WORDS] {
        debug_assert!(
            self.words_reduced(a) && self.words_reduced(b),
            "element not reduced"
        );
        let n = self.words();
        let mut wide = [0; WIDE_WORDS];
        clmul_words(&a[..n], &b[..n], &mut wide);
        self.fold(&mut wide[..2 * n]);
        low_words(&wide, n)
    }

    /// `a^2 mod f` on 64-bit words, as [`BinaryField::mul_words`] with
    /// the zero-interleaving expansion (§4.2.3) for the product.
    pub fn sqr_words(&self, a: &[u64; MAX_WORDS]) -> [u64; MAX_WORDS] {
        debug_assert!(self.words_reduced(a), "element not reduced");
        let n = self.words();
        let mut wide = [0; WIDE_WORDS];
        for (pair, &w) in wide.chunks_exact_mut(2).zip(&a[..n]) {
            pair[0] = spread32(w as Limb);
            pair[1] = spread32((w >> 32) as Limb);
        }
        self.fold(&mut wide[..2 * n]);
        low_words(&wide, n)
    }

    /// Whether words hold a reduced element: no coefficient at or above
    /// `m` in any word.
    pub fn words_reduced(&self, a: &[u64; MAX_WORDS]) -> bool {
        let (top, r) = (self.m / 64, self.m % 64);
        a.iter()
            .enumerate()
            .skip(top)
            .all(|(i, &w)| (if i == top { w >> r } else { w }) == 0)
    }

    /// Left-to-right comb multiplication with 4-bit windows — Algorithm 6
    /// with `w = 4`, the choice the paper found to balance precomputation
    /// RAM against speed on the software-only system (§4.2.2).
    pub fn mul_comb(&self, a: &F2mElement, b: &F2mElement) -> F2mElement {
        self.check(a);
        self.check(b);
        let k = self.k;
        // Precompute Bu = u(x) * b(x) for all u of degree < 4.
        let mut table = [[0 as Limb; MAX_LIMBS + 1]; 16];
        for (u, row) in table.iter_mut().enumerate().skip(1) {
            for bit in 0..4 {
                if (u >> bit) & 1 == 1 {
                    let mut carry = 0u32;
                    for (j, &bw) in b.limbs().iter().enumerate() {
                        row[j] ^= (bw << bit) | carry;
                        carry = if bit == 0 { 0 } else { bw >> (32 - bit) };
                    }
                    row[k] ^= carry;
                }
            }
        }
        let mut c = [0 as Limb; 2 * MAX_LIMBS + 1];
        for j in (0..8).rev() {
            for i in 0..k {
                let u = ((a.limbs[i] >> (4 * j)) & 0xf) as usize;
                if u != 0 {
                    for (l, &w) in table[u][..=k].iter().enumerate() {
                        c[i + l] ^= w;
                    }
                }
            }
            if j != 0 {
                // C <<= 4 (carry-less shift of the whole accumulator).
                let mut carry = 0u32;
                for w in c[..=2 * k].iter_mut() {
                    let next = *w >> 28;
                    *w = (*w << 4) | carry;
                    carry = next;
                }
            }
        }
        self.reduce(&c[..2 * k])
    }

    /// `a^2 mod f` via zero-interleaving expansion (§4.2.3) — `O(k)`,
    /// dramatically cheaper than multiplication, one of the headline
    /// advantages of binary fields.
    pub fn sqr(&self, a: &F2mElement) -> F2mElement {
        self.check(a);
        // Word j of the square is limb j spread to 64 bits: the same
        // expansion as `sqr_words`, without packing the limbs first.
        let mut wide = [0; WIDE_WORDS];
        for (w, &l) in wide.iter_mut().zip(a.limbs()) {
            *w = spread32(l);
        }
        self.reduce_words(&mut wide[..2 * self.words()])
    }

    /// Word-level fast reduction (Algorithm 7, generalized): folds a
    /// polynomial of any length below degree `m` using the sparse term
    /// list. Inputs up to a double-width product plus one limb reduce on
    /// the stack.
    pub fn reduce(&self, wide: &[Limb]) -> F2mElement {
        let n = wide.len().div_ceil(2).max(self.words());
        if n <= WIDE_WORDS {
            let mut c = [0; WIDE_WORDS];
            word::pack(wide, &mut c);
            self.reduce_words(&mut c[..n])
        } else {
            let mut c = vec![0; n];
            word::pack(wide, &mut c);
            self.reduce_words(&mut c)
        }
    }

    /// Folds words `>= m` of `c` (at least `ceil(k/2)` words) back below
    /// degree `m` and returns the low words as an element.
    fn reduce_words(&self, c: &mut [u64]) -> F2mElement {
        self.fold(c);
        self.element_of(c)
    }

    /// Folds every coefficient at or above `m` of `c` below it, in place.
    fn fold(&self, c: &mut [u64]) {
        match &self.fold {
            Some(fold) => fold.apply(c),
            None => self.fold_bit_serial(c),
        }
        debug_assert!(c[self.words()..].iter().all(|&w| w == 0));
    }

    /// Bit-serial reduction fallback for polynomials too dense (or fields
    /// too small) for the word fold.
    fn fold_bit_serial(&self, c: &mut [u64]) {
        for i in (self.m..64 * c.len()).rev() {
            if (c[i / 64] >> (i % 64)) & 1 == 1 {
                c[i / 64] ^= 1 << (i % 64);
                for &term in &self.terms {
                    let s = i - self.m + term;
                    c[s / 64] ^= 1 << (s % 64);
                }
            }
        }
    }

    /// Inverse by the **polynomial extended Euclidean algorithm**
    /// (§4.2.4), or `None` for zero.
    ///
    /// Runs on 64-bit words. With `a·g1 ≡ u` and `a·g2 ≡ v (mod f)`, the
    /// loop keeps `deg g1 <= m - deg v` and `deg g2 <= m - deg u`, so all
    /// four polynomials fit in the `m + 1` bits of `f`, and the result
    /// lies below degree `m` without a final reduction.
    pub fn inv(&self, a: &F2mElement) -> Option<F2mElement> {
        self.check(a);
        if a.is_zero() {
            return None;
        }
        let w = (self.m + 1).div_ceil(64);
        let mut u = [0; MAX_WORDS + 1];
        word::pack(a.limbs(), &mut u);
        let mut v = [0; MAX_WORDS + 1];
        v[self.m / 64] |= 1 << (self.m % 64);
        for &t in &self.terms {
            v[t / 64] |= 1 << (t % 64);
        }
        let (mut g1, mut g2) = ([0; MAX_WORDS + 1], [0; MAX_WORDS + 1]);
        g1[0] = 1;
        let (u, v, g1, g2) = (&mut u[..w], &mut v[..w], &mut g1[..w], &mut g2[..w]);
        let (mut du, mut dv) = (degree(u, w), self.m);
        // u and v never reach 0: gcd(a, f) = 1.
        let r = loop {
            if du == 0 {
                break g1;
            }
            if dv == 0 {
                break g2;
            }
            if du >= dv {
                let j = du - dv;
                xor_shifted(u, v, j);
                xor_shifted(g1, g2, j);
                du = degree(u, du / 64 + 1);
            } else {
                let j = dv - du;
                xor_shifted(v, u, j);
                xor_shifted(g2, g1, j);
                dv = degree(v, dv / 64 + 1);
            }
        };
        let mut limbs = [0; MAX_LIMBS];
        word::unpack(r, &mut limbs[..self.k]);
        debug_assert!(mp::bit_len(&limbs) <= self.m, "inverse not reduced");
        Some(self.element(limbs))
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
        for _ in 1..self.m {
            result = self.sqr(&result);
            result = self.mul(&result, a);
        }
        Some(self.sqr(&result))
    }

    /// Element width in 64-bit words.
    fn words(&self) -> usize {
        self.k.div_ceil(2)
    }

    /// The element's limbs packed into words (zero past `ceil(k/2)`).
    fn words_of(a: &F2mElement) -> [u64; MAX_WORDS] {
        let mut out = [0; MAX_WORDS];
        word::pack(&a.limbs, &mut out);
        out
    }

    /// Unpacks reduced words (zero past `ceil(k/2)`) into an element.
    fn element_of(&self, words: &[u64]) -> F2mElement {
        let mut limbs = [0; MAX_LIMBS];
        word::unpack(words, &mut limbs[..self.k]);
        self.element(limbs)
    }

    /// Wraps limbs (zero past `k`, no bit at or above `m`) as an element.
    fn element(&self, limbs: [Limb; MAX_LIMBS]) -> F2mElement {
        F2mElement {
            limbs,
            k: self.k as u32,
        }
    }

    fn check(&self, a: &F2mElement) {
        debug_assert_eq!(a.k as usize, self.k, "element belongs to another field");
        debug_assert!(mp::bit_len(a.limbs()) <= self.m, "element not reduced");
    }
}

/// The low `n` words of a reduced product, zero past them.
fn low_words(wide: &[u64], n: usize) -> [u64; MAX_WORDS] {
    let mut out = [0; MAX_WORDS];
    out[..n].copy_from_slice(&wide[..n]);
    out
}

/// Degree of a nonzero polynomial whose words at and above `top` are zero.
fn degree(x: &[u64], top: usize) -> usize {
    let i = (0..top)
        .rev()
        .find(|&i| x[i] != 0)
        .expect("nonzero polynomial");
    64 * i + 63 - x[i].leading_zeros() as usize
}

/// `dst ^= src · x^j`, dropping bits past the end of `dst` (the callers
/// keep every product within it).
fn xor_shifted(dst: &mut [u64], src: &[u64], j: usize) {
    let (ws, bs) = (j / 64, j % 64);
    let n = dst.len() - ws;
    if bs == 0 {
        for (d, s) in dst[ws..].iter_mut().zip(&src[..n]) {
            *d ^= s;
        }
    } else {
        dst[ws] ^= src[0] << bs;
        for i in 1..n {
            dst[ws + i] ^= (src[i] << bs) | (src[i - 1] >> (64 - bs));
        }
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
            acc = f.from_limbs(&shifted.to_limbs(f.k()));
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
    fn karatsuba_matches_schoolbook_at_every_width() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in 1..=MAX_WORDS {
            for _ in 0..50 {
                let a: Vec<u64> = (0..n).map(|_| next()).collect();
                let b: Vec<u64> = (0..n).map(|_| next()).collect();
                let mut expect = vec![0u64; 2 * n];
                for (i, &ai) in a.iter().enumerate() {
                    for (j, &bj) in b.iter().enumerate() {
                        let p = clmul64(ai, bj);
                        expect[i + j] ^= p as u64;
                        expect[i + j + 1] ^= (p >> 64) as u64;
                    }
                }
                let mut out = [u64::MAX; WIDE_WORDS];
                let mut tmp = [0; karatsuba_scratch(MAX_WORDS)];
                karatsuba(&a, &b, &mut out, &mut tmp);
                assert_eq!(out[..2 * n], expect[..], "n = {n}");
            }
        }
    }

    /// The path [`clmul_words`] takes on this host.
    fn kernel_path() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            return "pclmulqdq";
        }
        "karatsuba"
    }

    #[test]
    fn hardware_product_matches_karatsuba_at_every_width() {
        let path = kernel_path();
        eprintln!("clmul_words runs the {path} product on this host");
        if path == "karatsuba" {
            eprintln!("no pclmulqdq: this compares the Karatsuba fallback with itself");
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in 1..=MAX_WORDS {
            let (zero, ones) = (vec![0u64; n], vec![u64::MAX; n]);
            let mut cases = vec![
                (zero.clone(), ones.clone()),
                (ones.clone(), zero.clone()),
                (ones.clone(), ones.clone()),
            ];
            let random: Vec<Vec<u64>> = (0..64).map(|_| (0..n).map(|_| next()).collect()).collect();
            for pair in random.chunks(2) {
                cases.push((pair[0].clone(), pair[1].clone()));
            }
            for bit in 0..64 * n {
                let mut one = zero.clone();
                one[bit / 64] = 1 << (bit % 64);
                let mut other = zero.clone();
                other[n - 1 - bit / 64] = 1 << (63 - bit % 64);
                cases.push((one.clone(), random[bit % 64].clone()));
                cases.push((ones.clone(), one.clone()));
                cases.push((one, other));
            }
            for (a, b) in &cases {
                let mut hw = [u64::MAX; WIDE_WORDS];
                clmul_words(a, b, &mut hw);
                let mut sw = [0; WIDE_WORDS];
                let mut tmp = [0; karatsuba_scratch(MAX_WORDS)];
                karatsuba(a, b, &mut sw, &mut tmp);
                assert_eq!(hw[..2 * n], sw[..2 * n], "{path}, n = {n}, {a:x?} · {b:x?}");
            }
        }
    }

    #[test]
    fn word_api_matches_the_element_api() {
        for f in all_fields() {
            let (a, b) = (sample(&f, 0x5eed), sample(&f, 0xfade));
            let (x, y) = (BinaryField::words_of(&a), BinaryField::words_of(&b));
            assert!(f.words_reduced(&x) && f.words_reduced(&y), "{}", f.name());
            assert_eq!(
                f.element_of(&f.mul_words(&x, &y)),
                f.mul(&a, &b),
                "{}",
                f.name()
            );
            assert_eq!(f.element_of(&f.sqr_words(&x)), f.sqr(&a), "{}", f.name());
            let mut over = x;
            over[f.m() / 64] |= 1 << (f.m() % 64);
            assert!(!f.words_reduced(&over), "{}", f.name());
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
            assert_eq!(f.mul(&a, &b), reference, "{} karatsuba", f.name());
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
