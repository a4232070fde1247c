//! 64-bit word primitives the host fields compute on.
//!
//! Elements keep the 32-bit limbs of the modeled datapath (§4.2), but the
//! host multiplies, reduces and inverts them two limbs at a time: a field
//! operation packs its operands into `u64` words, works on those, and
//! unpacks the result. Word `i` holds limbs `2i` (low half) and `2i + 1`
//! (high half), so the packed value is the same little-endian integer.

use crate::mp::Limb;
use std::cmp::Ordering;

/// Packs little-endian limbs into words: `words[i] = limbs[2i] |
/// limbs[2i+1] << 32`. Words past the last limb are left as they are.
///
/// # Panics
///
/// Panics if `words` is shorter than `limbs.len().div_ceil(2)`.
pub(crate) fn pack(limbs: &[Limb], words: &mut [u64]) {
    let pairs = limbs.chunks(2);
    assert!(words.len() >= pairs.len(), "word buffer too short");
    for (w, pair) in words.iter_mut().zip(pairs) {
        let hi = pair.get(1).copied().unwrap_or(0);
        *w = pair[0] as u64 | (hi as u64) << 32;
    }
}

/// Unpacks words into `limbs` (as many limbs as `limbs` holds).
///
/// # Panics
///
/// Panics if `words` is shorter than `limbs.len().div_ceil(2)`.
pub(crate) fn unpack(words: &[u64], limbs: &mut [Limb]) {
    let pairs = limbs.chunks_mut(2);
    assert!(words.len() >= pairs.len(), "word buffer too short");
    for (pair, &w) in pairs.zip(words) {
        pair[0] = w as Limb;
        if let Some(hi) = pair.get_mut(1) {
            *hi = (w >> 32) as Limb;
        }
    }
}

/// `acc += a * m`, with the carry rippling through the rest of `acc`;
/// returns the carry out of `acc`.
///
/// # Panics
///
/// Panics if `acc` is shorter than `a`.
pub(crate) fn mul_add(acc: &mut [u64], a: &[u64], m: u64) -> u64 {
    let (lo, hi) = acc.split_at_mut(a.len());
    let mut carry = 0u64;
    for (r, &aj) in lo.iter_mut().zip(a) {
        let uv = aj as u128 * m as u128 + *r as u128 + carry as u128;
        *r = uv as u64;
        carry = (uv >> 64) as u64;
    }
    for w in hi {
        if carry == 0 {
            return 0;
        }
        let (sum, over) = w.overflowing_add(carry);
        *w = sum;
        carry = over as u64;
    }
    carry
}

/// Operand-scanning product `p = a * b` (Algorithm 2 on 64-bit words).
///
/// # Panics
///
/// Panics if `p.len() != a.len() + b.len()`.
pub(crate) fn mul(p: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(p.len(), a.len() + b.len(), "product width mismatch");
    p[..a.len()].fill(0);
    for (i, &bi) in b.iter().enumerate() {
        p[i + a.len()] = mul_add(&mut p[i..i + a.len()], a, bi);
    }
}

/// `a += b` over the length of `a` (`b` zero-extended); returns the carry.
pub(crate) fn add_into(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (i, w) in a.iter_mut().enumerate() {
        let rhs = b.get(i).copied().unwrap_or(0);
        if i >= b.len() && !carry {
            break;
        }
        let (s1, o1) = w.overflowing_add(rhs);
        let (s2, o2) = s1.overflowing_add(carry as u64);
        *w = s2;
        carry = o1 | o2;
    }
    carry
}

/// `a -= b` over the length of `a` (`b` zero-extended); returns the borrow.
pub(crate) fn sub_into(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (i, w) in a.iter_mut().enumerate() {
        let rhs = b.get(i).copied().unwrap_or(0);
        if i >= b.len() && !borrow {
            break;
        }
        let (d1, o1) = w.overflowing_sub(rhs);
        let (d2, o2) = d1.overflowing_sub(borrow as u64);
        *w = d2;
        borrow = o1 | o2;
    }
    borrow
}

/// Compares equal-length word slices as little-endian integers.
pub(crate) fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    a.iter().rev().cmp(b.iter().rev())
}

/// Shifts `a` right by one bit in place.
pub(crate) fn shr1(a: &mut [u64]) {
    let mut carry = 0u64;
    for w in a.iter_mut().rev() {
        let next = *w & 1;
        *w = (*w >> 1) | (carry << 63);
        carry = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mp::Mp;

    fn mp(words: &[u64]) -> Mp {
        let mut limbs = vec![0; 2 * words.len()];
        unpack(words, &mut limbs);
        Mp::from_limbs(&limbs)
    }

    #[test]
    fn pack_unpack_round_trip_odd_length() {
        let limbs = [1u32, 2, 3, 4, 5];
        let mut words = [u64::MAX; 4];
        pack(&limbs, &mut words);
        assert_eq!(words, [2 << 32 | 1, 4 << 32 | 3, 5, u64::MAX]);
        let mut back = [0u32; 5];
        unpack(&words, &mut back);
        assert_eq!(back, limbs);
    }

    #[test]
    fn mul_matches_mp() {
        let a = [u64::MAX, 0x1234_5678_9abc_def0, u64::MAX];
        let b = [u64::MAX, 3];
        let mut p = [0u64; 5];
        mul(&mut p, &a, &b);
        assert_eq!(mp(&p), mp(&a).mul(&mp(&b)));
    }

    #[test]
    fn add_sub_carry_and_borrow_ripple() {
        let mut a = [u64::MAX, u64::MAX, 0];
        assert!(!add_into(&mut a, &[1]));
        assert_eq!(a, [0, 0, 1]);
        assert!(!sub_into(&mut a, &[1]));
        assert_eq!(a, [u64::MAX, u64::MAX, 0]);
        let mut z = [0u64, 0];
        assert!(sub_into(&mut z, &[1]));
        assert_eq!(z, [u64::MAX, u64::MAX]);
        assert!(add_into(&mut z, &[1]));
        assert_eq!(z, [0, 0]);
    }

    #[test]
    fn cmp_and_shr1() {
        assert_eq!(cmp(&[5, 1], &[0, 2]), Ordering::Less);
        assert_eq!(cmp(&[5, 2], &[0, 2]), Ordering::Greater);
        assert_eq!(cmp(&[5, 2], &[5, 2]), Ordering::Equal);
        let mut a = [0, 1];
        shr1(&mut a);
        assert_eq!(a, [1 << 63, 0]);
    }
}
