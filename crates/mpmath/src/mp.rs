//! Multi-precision unsigned integers on 32-bit limbs.
//!
//! Large integers are stored as little-endian arrays of [`Limb`]s, exactly
//! as the paper's software suite stores them in RAM (§4.2: "large integers
//! are stored in memory as arrays of w-bit words", with `w = 32` for every
//! architecture evaluated).
//!
//! Two layers are provided:
//!
//! * **slice primitives** ([`add_into`], [`sub_into`],
//!   [`mul_operand_scanning`], [`mul_product_scanning`], …) operating on
//!   caller-provided limb slices — these mirror the multi-precision
//!   routines of §4.2 one-to-one (the host fields run the same algorithms
//!   on 64-bit words);
//! * the owned [`Mp`] big-integer type for ergonomic host-side use
//!   (tests, curve parameter handling, division-based reference reduction).

use std::cmp::Ordering;
use std::fmt;

/// The machine word of the modeled datapath (`w = 32`, §4.2).
pub type Limb = u32;

/// Number of bits in a [`Limb`].
pub const LIMB_BITS: usize = 32;

// ---------------------------------------------------------------------------
// Slice primitives
// ---------------------------------------------------------------------------

/// Adds `b` into `a` in place, returning the final carry.
///
/// `b` may be shorter than `a`; the carry is propagated through the
/// remaining limbs of `a`.
///
/// # Panics
///
/// Panics if `b` is longer than `a`.
pub fn add_into(a: &mut [Limb], b: &[Limb]) -> bool {
    assert!(b.len() <= a.len(), "addend longer than accumulator");
    let mut carry = 0u64;
    for (i, limb) in a.iter_mut().enumerate() {
        let rhs = if i < b.len() { b[i] as u64 } else { 0 };
        if i >= b.len() && carry == 0 {
            return false;
        }
        let sum = *limb as u64 + rhs + carry;
        *limb = sum as Limb;
        carry = sum >> LIMB_BITS;
    }
    carry != 0
}

/// Subtracts `b` from `a` in place, returning the final borrow.
///
/// # Panics
///
/// Panics if `b` is longer than `a`.
pub fn sub_into(a: &mut [Limb], b: &[Limb]) -> bool {
    assert!(b.len() <= a.len(), "subtrahend longer than accumulator");
    let mut borrow = 0i64;
    for (i, limb) in a.iter_mut().enumerate() {
        let rhs = if i < b.len() { b[i] as i64 } else { 0 };
        if i >= b.len() && borrow == 0 {
            return false;
        }
        let diff = *limb as i64 - rhs - borrow;
        *limb = diff as Limb;
        borrow = (diff < 0) as i64;
    }
    borrow != 0
}

/// Compares two limb slices as little-endian integers.
///
/// The slices may have different lengths; the shorter one is treated as
/// zero-extended.
pub fn cmp(a: &[Limb], b: &[Limb]) -> Ordering {
    let n = a.len().max(b.len());
    for i in (0..n).rev() {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        match x.cmp(&y) {
            Ordering::Equal => {}
            non_eq => return non_eq,
        }
    }
    Ordering::Equal
}

/// Returns `true` when every limb of `a` is zero.
pub fn is_zero(a: &[Limb]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Returns bit `i` of the little-endian integer `a` (bits beyond the slice
/// are zero).
pub fn bit(a: &[Limb], i: usize) -> bool {
    a.get(i / LIMB_BITS)
        .is_some_and(|&l| (l >> (i % LIMB_BITS)) & 1 == 1)
}

/// Number of significant bits of `a` (0 for the zero integer).
pub fn bit_len(a: &[Limb]) -> usize {
    for i in (0..a.len()).rev() {
        if a[i] != 0 {
            return i * LIMB_BITS + (LIMB_BITS - a[i].leading_zeros() as usize);
        }
    }
    0
}

/// Shifts `a` right by one bit in place (divides by two).
pub fn shr1_into(a: &mut [Limb]) {
    let mut carry = 0u32;
    for limb in a.iter_mut().rev() {
        let next = *limb & 1;
        *limb = (*limb >> 1) | (carry << (LIMB_BITS - 1));
        carry = next;
    }
}

/// Operand-scanning ("school-book") multiplication — Algorithm 2 of the
/// paper.
///
/// Returns a product of `a.len() + b.len()` limbs. The outer loop iterates
/// over the multiplier `b`, the inner loop over the multiplicand `a`,
/// accumulating with the `(u, v) <- a[j] * b[i] + p[i+j] + u` multiply-add
/// step that the baseline architecture's statically scheduled multiplier
/// executes (§5.1.1).
pub fn mul_operand_scanning(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let mut p = vec![0 as Limb; a.len() + b.len()];
    for (i, &bi) in b.iter().enumerate() {
        p[i + a.len()] = mul_add_limb(&mut p[i..i + a.len()], a, bi);
    }
    p
}

/// Product-scanning ("Comba") multiplication — Algorithm 3 of the paper.
///
/// Returns a product of `a.len() + b.len()` limbs. The inner loop performs
/// the `(t, u, v) <- (t, u, v) + a[j] * b[i-j]` multiply-accumulate step
/// that the prime-field ISA extensions (`MADDU`, `SHA`; Table 5.1)
/// accelerate.
///
/// # Panics
///
/// Panics if the operands have different lengths (the paper only uses the
/// algorithm on equal-length field elements).
pub fn mul_product_scanning(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    assert_eq!(a.len(), b.len(), "product scanning expects equal lengths");
    let k = a.len();
    let mut p = vec![0 as Limb; 2 * k];
    // (t, u, v) accumulator: t the overflow word, (u, v) a 64-bit pair.
    let mut acc: u64 = 0; // (u, v)
    let mut t: u32 = 0; // OvFlo register
    for i in 0..(2 * k - 1) {
        let lo = i.saturating_sub(k - 1);
        let hi = i.min(k - 1);
        for j in lo..=hi {
            let prod = a[j] as u64 * b[i - j] as u64;
            let (sum, ov) = acc.overflowing_add(prod);
            acc = sum;
            t = t.wrapping_add(ov as u32);
        }
        p[i] = acc as Limb;
        acc = (acc >> LIMB_BITS) | ((t as u64) << LIMB_BITS);
        t = 0;
    }
    p[2 * k - 1] = acc as Limb;
    p
}

/// Multiplies `a` by the single limb `m` and accumulates into `acc`
/// (`acc += a * m`), returning the final carry out of `acc`.
///
/// This is the row operation at the heart of both CIOS loops (Algorithm 5)
/// and of the FFAU arithmetic core (Table 5.4).
///
/// # Panics
///
/// Panics if `acc` is shorter than `a`.
pub fn mul_add_limb(acc: &mut [Limb], a: &[Limb], m: Limb) -> Limb {
    assert!(acc.len() >= a.len());
    let (lo, hi) = acc.split_at_mut(a.len());
    let mut carry = 0u64;
    for (r, &aj) in lo.iter_mut().zip(a) {
        let uv = aj as u64 * m as u64 + *r as u64 + carry;
        *r = uv as Limb;
        carry = uv >> LIMB_BITS;
    }
    for limb in hi {
        if carry == 0 {
            return 0;
        }
        let sum = *limb as u64 + carry;
        *limb = sum as Limb;
        carry = sum >> LIMB_BITS;
    }
    carry as Limb
}

// ---------------------------------------------------------------------------
// Owned big-integer type
// ---------------------------------------------------------------------------

/// An owned, normalized, arbitrary-precision unsigned integer.
///
/// `Mp` is the ergonomic host-side integer used for curve parameters, test
/// oracles, and the division-based reference reduction that the fast
/// NIST reductions are verified against. It is *not* intended to be
/// constant-time; the energy study measures simulated targets, not the
/// host.
///
/// The limb vector is always normalized (no most-significant zero limbs;
/// zero is the empty vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Mp {
    limbs: Vec<Limb>,
}

impl Mp {
    /// The integer zero.
    pub fn zero() -> Self {
        Mp { limbs: Vec::new() }
    }

    /// The integer one.
    pub fn one() -> Self {
        Mp { limbs: vec![1] }
    }

    /// Creates an integer from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut m = Mp {
            limbs: vec![v as Limb, (v >> 32) as Limb],
        };
        m.normalize();
        m
    }

    /// Creates an integer from little-endian limbs (extra zero limbs are
    /// stripped).
    pub fn from_limbs(limbs: &[Limb]) -> Self {
        let mut m = Mp {
            limbs: limbs.to_vec(),
        };
        m.normalize();
        m
    }

    /// Parses a big-endian hexadecimal string (an optional `0x` prefix and
    /// internal whitespace/underscores are accepted).
    ///
    /// # Errors
    ///
    /// Returns an error message naming the offending character if the
    /// string contains a non-hex digit.
    pub fn from_hex(s: &str) -> Result<Self, String> {
        let mut nibbles = Vec::new();
        let body = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        for c in body.chars() {
            if c.is_whitespace() || c == '_' {
                continue;
            }
            let d = c
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit {c:?}"))?;
            nibbles.push(d);
        }
        let mut limbs = vec![0 as Limb; nibbles.len().div_ceil(8)];
        for (i, d) in nibbles.iter().rev().enumerate() {
            limbs[i / 8] |= (*d as Limb) << (4 * (i % 8));
        }
        let mut m = Mp { limbs };
        m.normalize();
        Ok(m)
    }

    /// Formats the integer as a lowercase big-endian hex string (no prefix,
    /// `"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.limbs.is_empty() {
            return "0".to_owned();
        }
        let mut s = format!("{:x}", self.limbs[self.limbs.len() - 1]);
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:08x}"));
        }
        s
    }

    /// The normalized little-endian limbs (empty for zero).
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// The little-endian limbs zero-padded or truncated to exactly `k`
    /// limbs.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `k` limbs.
    pub fn to_limbs(&self, k: usize) -> Vec<Limb> {
        assert!(
            self.limbs.len() <= k,
            "value of {} limbs does not fit in {k}",
            self.limbs.len()
        );
        let mut v = self.limbs.clone();
        v.resize(k, 0);
        v
    }

    /// Returns `true` if the integer is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        bit_len(&self.limbs)
    }

    /// Returns bit `i` (false beyond the top).
    pub fn bit(&self, i: usize) -> bool {
        bit(&self.limbs, i)
    }

    /// The lowest 64 bits of the integer.
    pub fn low_u64(&self) -> u64 {
        let lo = self.limbs.first().copied().unwrap_or(0) as u64;
        let hi = self.limbs.get(1).copied().unwrap_or(0) as u64;
        lo | (hi << 32)
    }

    /// `self + other`.
    pub fn add(&self, other: &Mp) -> Mp {
        let n = self.limbs.len().max(other.limbs.len()) + 1;
        let mut out = self.to_padded(n);
        add_into(&mut out, &other.limbs);
        Mp::from_limbs(&out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (this type is unsigned).
    pub fn sub(&self, other: &Mp) -> Mp {
        assert!(
            cmp(&self.limbs, &other.limbs) != Ordering::Less,
            "Mp::sub underflow"
        );
        let mut out = self.limbs.clone();
        sub_into(&mut out, &other.limbs);
        Mp::from_limbs(&out)
    }

    /// `self * other` (operand scanning).
    pub fn mul(&self, other: &Mp) -> Mp {
        if self.is_zero() || other.is_zero() {
            return Mp::zero();
        }
        Mp::from_limbs(&mul_operand_scanning(&self.limbs, &other.limbs))
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> Mp {
        if self.is_zero() {
            return Mp::zero();
        }
        let limb_shift = bits / LIMB_BITS;
        let bit_shift = bits % LIMB_BITS;
        let mut limbs = vec![0 as Limb; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            limbs[i + limb_shift] |= l << bit_shift;
            if bit_shift != 0 {
                limbs[i + limb_shift + 1] |= l >> (LIMB_BITS - bit_shift);
            }
        }
        Mp::from_limbs(&limbs)
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> Mp {
        let limb_shift = bits / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return Mp::zero();
        }
        let bit_shift = bits % LIMB_BITS;
        let mut limbs = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            for i in 0..limbs.len() {
                let hi = limbs.get(i + 1).copied().unwrap_or(0);
                limbs[i] = (limbs[i] >> bit_shift) | (hi << (LIMB_BITS - bit_shift));
            }
        }
        Mp::from_limbs(&limbs)
    }

    /// Euclidean division: returns `(self / divisor, self % divisor)`.
    ///
    /// Implemented as binary long division — slow but obviously correct;
    /// this is the oracle the fast reductions are tested against (the paper
    /// notes "big integer division is extremely costly" §2.1.3, which is
    /// exactly why the targets never run it). The remainder and the
    /// shifted divisor live in two buffers allocated once; each quotient
    /// bit compares, subtracts and shifts only the limbs the shifted
    /// divisor spans.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Mp) -> (Mp, Mp) {
        assert!(!divisor.is_zero(), "division by zero");
        if cmp(&self.limbs, &divisor.limbs) == Ordering::Less {
            return (Mp::zero(), self.clone());
        }
        let dbits = divisor.bit_len();
        let shift = self.bit_len() - dbits;
        let mut r = self.limbs.clone();
        // d = divisor << shift, as wide as the dividend.
        let mut d = divisor.shl(shift).limbs;
        d.resize(r.len(), 0);
        let mut quotient = vec![0 as Limb; shift / LIMB_BITS + 1];
        for i in (0..=shift).rev() {
            // d = divisor << i spans limbs lo..hi, and r < 2d, so r's
            // nonzero limbs end at hi as well.
            let lo = i / LIMB_BITS;
            let hi = (dbits + i + 1).div_ceil(LIMB_BITS).min(r.len());
            if cmp(&r[lo..hi], &d[lo..hi]) != Ordering::Less {
                sub_into(&mut r[lo..hi], &d[lo..hi]);
                quotient[i / LIMB_BITS] |= 1 << (i % LIMB_BITS);
            }
            shr1_into(&mut d[i.saturating_sub(1) / LIMB_BITS..hi]);
        }
        (Mp::from_limbs(&quotient), Mp::from_limbs(&r))
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &Mp) -> Mp {
        self.div_rem(m).1
    }

    /// `self^e mod m` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, e: &Mp, m: &Mp) -> Mp {
        let mut result = Mp::one().rem(m);
        let base = self.rem(m);
        for i in (0..e.bit_len()).rev() {
            result = result.mul(&result).rem(m);
            if e.bit(i) {
                result = result.mul(&base).rem(m);
            }
        }
        result
    }

    /// Miller–Rabin probabilistic primality test with the given number of
    /// fixed-base rounds (bases 2, 3, 5, 7, …). Deterministic enough for
    /// validating curve orders.
    pub fn is_probable_prime(&self, rounds: usize) -> bool {
        const SMALL: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
        if self.bit_len() <= 6 {
            let v = self.low_u64();
            return SMALL.contains(&v)
                || (v > 37 && SMALL.iter().all(|&p| !v.is_multiple_of(p)) && {
                    // trial division for tiny values
                    let mut d = 41u64;
                    let mut prime = true;
                    while d * d <= v {
                        if v.is_multiple_of(d) {
                            prime = false;
                            break;
                        }
                        d += 2;
                    }
                    prime
                });
        }
        if !self.bit(0) {
            return false;
        }
        let one = Mp::one();
        let n_minus_1 = self.sub(&one);
        let s = (0..n_minus_1.bit_len())
            .position(|i| n_minus_1.bit(i))
            .unwrap_or(0);
        let d = n_minus_1.shr(s);
        'witness: for &a in SMALL.iter().take(rounds.max(1)) {
            let a = Mp::from_u64(a);
            let mut x = a.modpow(&d, self);
            if x == one || x == n_minus_1 {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.mul(&x).rem(self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    fn to_padded(&self, n: usize) -> Vec<Limb> {
        let mut v = self.limbs.clone();
        v.resize(n.max(v.len()), 0);
        v
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl PartialOrd for Mp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mp {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp(&self.limbs, &other.limbs)
    }
}

impl fmt::Debug for Mp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mp(0x{})", self.to_hex())
    }
}

impl fmt::Display for Mp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::LowerHex for Mp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<u64> for Mp {
    fn from(v: u64) -> Self {
        Mp::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let m = Mp::from_hex("0xDEADBEEF00112233445566778899AABB").unwrap();
        assert_eq!(m.to_hex(), "deadbeef00112233445566778899aabb");
        assert_eq!(Mp::zero().to_hex(), "0");
        assert!(Mp::from_hex("xyz").is_err());
    }

    #[test]
    fn add_sub_round_trip() {
        let a = Mp::from_hex("ffffffffffffffffffffffff").unwrap();
        let b = Mp::from_u64(1);
        let c = a.add(&b);
        assert_eq!(c.to_hex(), "1000000000000000000000000");
        assert_eq!(c.sub(&b), a);
    }

    #[test]
    fn mul_known_value() {
        let a = Mp::from_hex("ffffffff").unwrap();
        let b = Mp::from_hex("ffffffff").unwrap();
        assert_eq!(a.mul(&b).to_hex(), "fffffffe00000001");
    }

    #[test]
    fn operand_and_product_scanning_agree() {
        let a = [0xffff_ffff, 0x1234_5678, 0x9abc_def0, 0x0fed_cba9];
        let b = [0x8765_4321, 0xffff_ffff, 0x0000_0001, 0xdead_beef];
        assert_eq!(mul_operand_scanning(&a, &b), mul_product_scanning(&a, &b));
    }

    #[test]
    fn div_rem_identity() {
        let a = Mp::from_hex("123456789abcdef0fedcba9876543210aabbccdd").unwrap();
        let b = Mp::from_hex("fedcba987654321").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn div_rem_identity_at_edge_and_random_widths() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut limbs = |n: usize| -> Vec<Limb> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as Limb
                })
                .collect()
        };
        let mut cases = vec![
            (Mp::from_u64(7), Mp::from_u64(7)),
            (Mp::from_u64(6), Mp::from_u64(7)),
            (Mp::one().shl(512), Mp::one()),
            (
                Mp::one().shl(512).sub(&Mp::one()),
                Mp::one().shl(256).sub(&Mp::one()),
            ),
            (Mp::from_limbs(&[u32::MAX; 17]), Mp::from_u64(u64::MAX)),
            (Mp::one().shl(96), Mp::one().shl(95).add(&Mp::one())),
        ];
        for (an, dn) in [(1, 1), (2, 1), (16, 8), (17, 9), (36, 18), (9, 17), (5, 2)] {
            for _ in 0..20 {
                let a = Mp::from_limbs(&limbs(an));
                let mut d = Mp::from_limbs(&limbs(dn));
                if d.is_zero() {
                    d = Mp::one();
                }
                cases.push((a, d));
            }
        }
        for (a, d) in cases {
            let (q, r) = a.div_rem(&d);
            assert!(r < d, "{a:?} / {d:?}");
            assert_eq!(q.mul(&d).add(&r), a, "{a:?} / {d:?}");
        }
    }

    #[test]
    fn modpow_small() {
        // 5^117 mod 19 == 1 (since 5^18 == 1 mod 19 and 117 mod 18 == 9; 5^9 mod 19 == 1)
        let base = Mp::from_u64(5);
        let m = Mp::from_u64(19);
        assert_eq!(
            base.modpow(&Mp::from_u64(117), &m).low_u64(),
            5u64.pow(9) % 19
        );
    }

    #[test]
    fn primality_small() {
        assert!(Mp::from_u64(2).is_probable_prime(8));
        assert!(Mp::from_u64(97).is_probable_prime(8));
        assert!(!Mp::from_u64(91).is_probable_prime(8)); // 7 * 13
        assert!(!Mp::from_u64(1).is_probable_prime(8));
        // 2^127 - 1 is a Mersenne prime.
        let m127 = Mp::one().shl(127).sub(&Mp::one());
        assert!(m127.is_probable_prime(8));
        // 2^128 - 1 = (2^64-1)(2^64+1) is not.
        assert!(!Mp::one().shl(128).sub(&Mp::one()).is_probable_prime(8));
    }

    #[test]
    fn shifts() {
        let a = Mp::from_hex("123456789abcdef").unwrap();
        assert_eq!(a.shl(4).to_hex(), "123456789abcdef0");
        assert_eq!(a.shr(4).to_hex(), "123456789abcde");
        assert_eq!(a.shl(37).shr(37), a);
    }

    #[test]
    fn mul_add_limb_matches_mul() {
        let a = [0xffff_ffff, 0xffff_ffff, 0xffff_ffff];
        let mut acc = [0u32; 4];
        let carry = mul_add_limb(&mut acc, &a, 0xffff_ffff);
        assert_eq!(carry, 0);
        let expect = Mp::from_limbs(&a).mul(&Mp::from_u64(0xffff_ffff));
        assert_eq!(Mp::from_limbs(&acc), expect);
    }

    #[test]
    fn bit_helpers() {
        let a = Mp::from_hex("8000000000000001").unwrap();
        assert_eq!(a.bit_len(), 64);
        assert!(a.bit(0));
        assert!(a.bit(63));
        assert!(!a.bit(32));
        assert!(!a.bit(1000));
    }
}
