//! Every `BinaryField` operation checked against an independent
//! bit-serial reference on every binary field the repository uses, at the
//! edge values where fixed-width word code goes wrong: 0, 1, x^(m−1),
//! all-ones, one bit per limb, and random elements.
//!
//! The reference multiplies by shift-and-add over the bits of one operand
//! and reduces one bit at a time from the top, so it shares no code with
//! the library's carry-less product (hardware or Karatsuba) or word-level
//! fold: a `mul_words` bug that Billie, the suite diff tests and the host
//! would all share shows up here. The fields are the five NIST binary fields and the paper's
//! GF(2^7) toy (f = x^7 + x + 1), which takes the bit-serial reduction
//! path. Random cases come from a seeded `ule_testkit::Rng`.

use ule_mpmath::f2m::{BinaryField, F2mElement, MAX_WORDS};
use ule_mpmath::mp::Mp;
use ule_mpmath::nist::NistBinary;
use ule_testkit::Rng;

/// Random operands per field, on top of the edge values.
const RANDOM: usize = 6;

fn fields() -> Vec<BinaryField> {
    let mut v: Vec<BinaryField> = NistBinary::ALL.map(BinaryField::nist).to_vec();
    v.push(BinaryField::new("GF(2^7)", 7, &[1, 0]));
    v
}

fn bit(v: &[u32], i: usize) -> bool {
    v.get(i / 32).is_some_and(|&l| (l >> (i % 32)) & 1 == 1)
}

/// `acc ^= v · x^s`, bit by bit.
fn xor_shifted(acc: &mut [u32], v: &[u32], s: usize) {
    for i in (0..32 * v.len()).filter(|&i| bit(v, i)) {
        acc[(i + s) / 32] ^= 1 << ((i + s) % 32);
    }
}

/// The unreduced product by shift-and-add over the bits of `b`.
fn ref_product(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut acc = vec![0; a.len() + b.len()];
    for i in (0..32 * b.len()).filter(|&i| bit(b, i)) {
        xor_shifted(&mut acc, a, i);
    }
    acc
}

/// `w mod f`, clearing the top set bit with a shifted `f` until the
/// degree drops below `m`; returns `k` limbs.
fn ref_reduce(f: &BinaryField, w: &[u32]) -> Vec<u32> {
    let poly = f.poly_mp().to_limbs(f.k() + 1);
    let mut w = w.to_vec();
    w.resize(w.len().max(f.k()), 0);
    for i in (f.m()..32 * w.len()).rev() {
        if bit(&w, i) {
            xor_shifted(&mut w, &poly, i - f.m());
        }
    }
    assert!(w[f.k()..].iter().all(|&l| l == 0));
    w.truncate(f.k());
    w
}

fn ref_mul(f: &BinaryField, a: &F2mElement, b: &F2mElement) -> Vec<u32> {
    ref_reduce(f, &ref_product(a.limbs(), b.limbs()))
}

/// 0, 1, x^(m−1), all-ones, one bit per limb and a few random elements.
fn operands(f: &BinaryField, rng: &mut Rng) -> Vec<F2mElement> {
    let (m, k) = (f.m(), f.k());
    let per_limb = (0..k).fold(Mp::zero(), |acc, i| {
        acc.add(&Mp::one().shl((32 * i + 7 * i % 32).min(m - 1)))
    });
    let mut v = vec![
        Mp::zero(),
        Mp::one(),
        Mp::one().shl(m - 1),
        Mp::one().shl(m).sub(&Mp::one()),
        per_limb,
    ];
    v.extend((0..RANDOM).map(|_| Mp::from_limbs(&rng.vec_u32(k))));
    v.iter()
        .map(|x| {
            let mut limbs = x.to_limbs(k);
            if m % 32 != 0 {
                limbs[k - 1] &= (1 << (m % 32)) - 1;
            }
            f.from_limbs(&limbs)
        })
        .collect()
}

#[test]
fn mul_sqr_add_match_bit_serial() {
    let mut rng = Rng::new(0xf2e0_0001);
    for f in fields() {
        let name = f.name();
        let ops = operands(&f, &mut rng);
        for a in &ops {
            assert_eq!(f.sqr(a).limbs(), ref_mul(&f, a, a), "{name} sqr {a:?}");
            for b in &ops {
                assert_eq!(f.mul(a, b).limbs(), ref_mul(&f, a, b), "{name} mul");
                assert_eq!(f.mul_comb(a, b).limbs(), ref_mul(&f, a, b), "{name} comb");
                let xor: Vec<u32> = a
                    .limbs()
                    .iter()
                    .zip(b.limbs())
                    .map(|(x, y)| x ^ y)
                    .collect();
                assert_eq!(f.add(a, b).limbs(), xor, "{name} add");
            }
        }
    }
}

/// Limbs packed two to a word, low limb in the low half.
fn words(limbs: &[u32]) -> [u64; MAX_WORDS] {
    let mut w = [0; MAX_WORDS];
    for (i, &l) in limbs.iter().enumerate() {
        w[i / 2] |= (l as u64) << (32 * (i % 2));
    }
    w
}

/// The first `k` limbs of words.
fn limbs(words: &[u64; MAX_WORDS], k: usize) -> Vec<u32> {
    (0..k)
        .map(|i| (words[i / 2] >> (32 * (i % 2))) as u32)
        .collect()
}

#[test]
fn word_products_match_bit_serial() {
    let mut rng = Rng::new(0xf2e0_0002);
    for f in fields() {
        let (name, k) = (f.name(), f.k());
        let ops = operands(&f, &mut rng);
        for a in &ops {
            let x = words(a.limbs());
            assert!(f.words_reduced(&x), "{name} {a:?}");
            let sq = f.sqr_words(&x);
            assert_eq!(limbs(&sq, k), ref_mul(&f, a, a), "{name} sqr_words {a:?}");
            assert_eq!(sq, words(&limbs(&sq, k)), "{name} sqr_words high words");
            for b in &ops {
                let p = f.mul_words(&x, &words(b.limbs()));
                assert_eq!(limbs(&p, k), ref_mul(&f, a, b), "{name} mul_words");
                assert_eq!(p, words(&limbs(&p, k)), "{name} mul_words high words");
            }
        }
        // One coefficient at x^m is not reduced.
        let mut over = [0; MAX_WORDS];
        over[f.m() / 64] = 1 << (f.m() % 64);
        assert!(!f.words_reduced(&over), "{name}");
    }
}

#[test]
fn inverse_times_element_is_one() {
    let mut rng = Rng::new(0xf2e0_0003);
    for f in fields() {
        assert!(f.inv(&f.zero()).is_none());
        assert!(f.inv_fermat(&f.zero()).is_none());
        for a in operands(&f, &mut rng).iter().filter(|a| !a.is_zero()) {
            let i = f.inv(a).expect("nonzero is invertible");
            assert_eq!(
                ref_mul(&f, a, &i),
                f.one().limbs(),
                "{} inv {a:?}",
                f.name()
            );
            assert_eq!(Some(i), f.inv_fermat(a), "{} fermat", f.name());
        }
    }
}

#[test]
fn reduce_and_from_mp_match_bit_serial() {
    let mut rng = Rng::new(0xf2e0_0004);
    for f in fields() {
        let k = f.k();
        // Double width, one spare limb, and longer than any product (the
        // reduction's heap fallback).
        for len in [2 * k, 2 * k + 1, 4 * k + 40] {
            for w in [vec![0; len], vec![u32::MAX; len], rng.vec_u32(len)] {
                let expect = ref_reduce(&f, &w);
                assert_eq!(f.reduce(&w).limbs(), expect, "{} reduce {len}", f.name());
                let e = f.from_mp(&Mp::from_limbs(&w));
                assert_eq!(e.limbs(), expect, "{} from_mp {len}", f.name());
            }
        }
    }
}
