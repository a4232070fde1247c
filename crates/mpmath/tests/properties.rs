//! Property-based tests for the multi-precision and finite-field layers.
//!
//! These are the invariants the paper's whole evaluation rests on: if the
//! host arithmetic is wrong, every differential test of the simulated
//! software and of the accelerators is meaningless.
//!
//! Each test draws 64 cases from a seeded `ule_testkit::Rng`, so runs
//! are deterministic and reproducible by seed.

use ule_mpmath::f2m::{clmul32, BinaryField};
use ule_mpmath::fp::PrimeField;
use ule_mpmath::mont::Montgomery;
use ule_mpmath::mp::{self, Mp};
use ule_mpmath::nist::{NistBinary, NistPrime};
use ule_testkit::Rng;

const CASES: usize = 64;

fn rand_mp(rng: &mut Rng, max_limbs: usize) -> Mp {
    let n = rng.below(max_limbs as u64 + 1) as usize;
    Mp::from_limbs(&rng.vec_u32(n))
}

/// A random fully-reduced element of the given prime field.
fn rand_fp(rng: &mut Rng, p: NistPrime) -> Mp {
    Mp::from_limbs(&rng.vec_u32(p.limbs())).rem(&p.modulus())
}

fn rand_f2m(rng: &mut Rng, b: NistBinary) -> Vec<u32> {
    let k = b.limbs();
    let mut v = rng.vec_u32(k);
    let r = b.m() % 32;
    v[k - 1] &= (1u32 << r) - 1;
    v
}

#[test]
fn mp_add_sub_round_trip() {
    let mut rng = Rng::new(0x5eed_0001);
    for _ in 0..CASES {
        let a = rand_mp(&mut rng, 20);
        let b = rand_mp(&mut rng, 20);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
    }
}

#[test]
fn mp_mul_agrees_with_u128() {
    let mut rng = Rng::new(0x5eed_0002);
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let p = Mp::from_u64(a).mul(&Mp::from_u64(b));
        let expect = a as u128 * b as u128;
        let got = (p.low_u64() as u128) | ((p.shr(64).low_u64() as u128) << 64);
        assert_eq!(got, expect);
    }
}

#[test]
fn mp_div_rem_invariant() {
    let mut rng = Rng::new(0x5eed_0003);
    for _ in 0..CASES {
        let a = rand_mp(&mut rng, 20);
        let b = rand_mp(&mut rng, 8);
        if b.is_zero() {
            continue;
        }
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }
}

#[test]
fn scanning_methods_agree() {
    let mut rng = Rng::new(0x5eed_0004);
    for _ in 0..CASES {
        let n = rng.range(1, 12);
        let a = rng.vec_u32(n);
        let b: Vec<u32> = a.iter().rev().copied().collect();
        assert_eq!(
            mp::mul_operand_scanning(&a, &b),
            mp::mul_product_scanning(&a, &b)
        );
    }
}

#[test]
fn fp_field_axioms_p192() {
    let mut rng = Rng::new(0x5eed_0005);
    let f = PrimeField::nist(NistPrime::P192);
    for _ in 0..CASES {
        let a = f.from_mp(&rand_fp(&mut rng, NistPrime::P192));
        let b = f.from_mp(&rand_fp(&mut rng, NistPrime::P192));
        let c = f.from_mp(&rand_fp(&mut rng, NistPrime::P192));
        // commutativity
        assert_eq!(f.add(&a, &b), f.add(&b, &a));
        assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
        // associativity
        assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
        // distributivity
        assert_eq!(
            f.mul(&a, &f.add(&b, &c)),
            f.add(&f.mul(&a, &b), &f.mul(&a, &c))
        );
        // additive inverse
        assert_eq!(f.add(&a, &f.neg(&a)), f.zero());
    }
}

#[test]
fn fp_mul_matches_division_all_fields() {
    let mut rng = Rng::new(0x5eed_0006);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        for p in NistPrime::ALL {
            let f = PrimeField::nist(p);
            let a = f.from_mp(&Mp::from_u64(seed).mul(&Mp::from_u64(0x9E3779B97F4A7C15)));
            let b = f.from_mp(&f.modulus().sub(&Mp::from_u64(seed | 1)));
            let fast = f.mul(&a, &b).to_mp();
            let slow = a.to_mp().mul(&b.to_mp()).rem(f.modulus());
            assert_eq!(fast, slow);
        }
    }
}

#[test]
fn fp_inverse_is_inverse() {
    let mut rng = Rng::new(0x5eed_0007);
    let f = PrimeField::nist(NistPrime::P256);
    for _ in 0..CASES {
        let a = f.from_mp(&rand_fp(&mut rng, NistPrime::P256));
        if a.is_zero() {
            continue;
        }
        let inv = f.inv(&a).unwrap();
        assert_eq!(f.mul(&a, &inv), f.one());
        assert_eq!(f.inv_fermat(&a).unwrap(), inv);
    }
}

#[test]
fn montgomery_matches_division() {
    let mut rng = Rng::new(0x5eed_0008);
    let n = NistPrime::P384.modulus();
    let m = Montgomery::new(&n);
    for _ in 0..CASES {
        let a = rand_fp(&mut rng, NistPrime::P384);
        let b = rand_fp(&mut rng, NistPrime::P384);
        assert_eq!(m.modmul(&a, &b), a.mul(&b).rem(&n));
    }
}

#[test]
fn montgomery_generic_modulus() {
    let mut rng = Rng::new(0x5eed_0009);
    for _ in 0..CASES {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let m_seed = rng.next_u32();
        // random odd modulus >= 3, 96 bits
        let n = Mp::from_u64(m_seed as u64 | 1)
            .shl(64)
            .add(&Mp::from_u64(a | 1));
        if n.bit_len() <= 64 {
            continue;
        }
        let mont = Montgomery::new(&n);
        let x = Mp::from_u64(a);
        let y = Mp::from_u64(b);
        assert_eq!(mont.modmul(&x, &y), x.mul(&y).rem(&n));
    }
}

#[test]
fn clmul_is_commutative_distributive() {
    let mut rng = Rng::new(0x5eed_000a);
    for _ in 0..CASES {
        let (a, b, c) = (rng.next_u32(), rng.next_u32(), rng.next_u32());
        assert_eq!(clmul32(a, b), clmul32(b, a));
        assert_eq!(clmul32(a, b ^ c), clmul32(a, b) ^ clmul32(a, c));
    }
}

#[test]
fn f2m_multipliers_agree() {
    let mut rng = Rng::new(0x5eed_000b);
    let f = BinaryField::nist(NistBinary::B163);
    for _ in 0..CASES {
        let a = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B163));
        let b = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B163));
        assert_eq!(f.mul_comb(&a, &b), f.mul(&a, &b));
    }
}

#[test]
fn f2m_multipliers_agree_b571() {
    let mut rng = Rng::new(0x5eed_000c);
    let f = BinaryField::nist(NistBinary::B571);
    for _ in 0..CASES {
        let a = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B571));
        let b = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B571));
        assert_eq!(f.mul_comb(&a, &b), f.mul(&a, &b));
    }
}

#[test]
fn f2m_square_is_mul() {
    let mut rng = Rng::new(0x5eed_000d);
    let f = BinaryField::nist(NistBinary::B283);
    for _ in 0..CASES {
        let a = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B283));
        assert_eq!(f.sqr(&a), f.mul(&a, &a));
    }
}

#[test]
fn f2m_inverse() {
    let mut rng = Rng::new(0x5eed_000e);
    let f = BinaryField::nist(NistBinary::B233);
    for _ in 0..CASES {
        let a = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B233));
        if a.is_zero() {
            continue;
        }
        let inv = f.inv(&a).unwrap();
        assert_eq!(f.mul(&a, &inv), f.one());
        assert_eq!(f.inv_fermat(&a).unwrap(), inv);
    }
}

#[test]
fn f2m_field_axioms() {
    let mut rng = Rng::new(0x5eed_000f);
    let f = BinaryField::nist(NistBinary::B163);
    for _ in 0..CASES {
        let a = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B163));
        let b = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B163));
        let c = f.from_limbs(&rand_f2m(&mut rng, NistBinary::B163));
        assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
        assert_eq!(
            f.mul(&a, &f.add(&b, &c)),
            f.add(&f.mul(&a, &b), &f.mul(&a, &c))
        );
        // Frobenius is additive.
        assert_eq!(f.sqr(&f.add(&a, &b)), f.add(&f.sqr(&a), &f.sqr(&b)));
    }
}

#[test]
fn fp_reduce_wide_random() {
    let mut rng = Rng::new(0x5eed_0010);
    let f = PrimeField::nist(NistPrime::P192);
    for _ in 0..CASES {
        let w = rng.vec_u32(12);
        let got = f.reduce_wide(&w).to_mp();
        let expect = Mp::from_limbs(&w).rem(f.modulus());
        assert_eq!(got, expect);
    }
}

#[test]
fn fp_reduce_wide_random_p521() {
    let mut rng = Rng::new(0x5eed_0011);
    let f = PrimeField::nist(NistPrime::P521);
    for _ in 0..CASES {
        let w = rng.vec_u32(34);
        let got = f.reduce_wide(&w).to_mp();
        let expect = Mp::from_limbs(&w).rem(f.modulus());
        assert_eq!(got, expect);
    }
}
