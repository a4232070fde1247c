//! Every `PrimeField` operation checked against `Mp` division on every
//! modulus the repository uses, at the edge values where fixed-width limb
//! code goes wrong: 0, 1, p−1, p−2, all-ones wide operands, and `from_mp`
//! inputs at or above `p` and above `2^(32k)`.
//!
//! The moduli are the five NIST primes, the group-order field of every
//! curve (the ten of the study and the two RFC 7748 curves; 6 to 18
//! limbs), the two RFC 7748 ladder primes, GF(97) and the Mersenne prime
//! 2^127 − 1. Random cases come from a seeded `ule_testkit::Rng`.

use std::sync::OnceLock;
use ule_curves::params::{CurveId, CurveKind};
use ule_mpmath::fp::{FpElement, PrimeField, MAX_LIMBS};
use ule_mpmath::mp::Mp;
use ule_mpmath::nist::NistPrime;
use ule_mpmath::xprime::XPrime;
use ule_testkit::Rng;

/// Random operands per field, on top of the four edge values.
const RANDOM: usize = 6;

fn fields() -> &'static [PrimeField] {
    static FIELDS: OnceLock<Vec<PrimeField>> = OnceLock::new();
    FIELDS.get_or_init(|| {
        let mut v: Vec<PrimeField> = NistPrime::ALL.map(PrimeField::nist).to_vec();
        for id in CurveId::ALL.iter().chain(&CurveId::XCURVES) {
            v.push(id.curve().order_field().clone());
        }
        for x in XPrime::ALL {
            v.push(PrimeField::new(x.name(), &x.modulus()));
        }
        v.push(PrimeField::new("GF(97)", &Mp::from_u64(97)));
        v.push(PrimeField::new("M127", &Mp::one().shl(127).sub(&Mp::one())));
        v
    })
}

/// A random integer below `2^(32 * limbs)`.
fn rand_mp(rng: &mut Rng, limbs: usize) -> Mp {
    Mp::from_limbs(&rng.vec_u32(limbs))
}

/// 0, 1, p−1, p−2 and a few random elements, as reference integers.
fn operands(f: &PrimeField, rng: &mut Rng) -> Vec<Mp> {
    let p = f.modulus();
    let mut v = vec![
        Mp::zero(),
        Mp::one(),
        p.sub(&Mp::one()),
        p.sub(&Mp::from_u64(2)),
    ];
    v.extend((0..RANDOM).map(|_| rand_mp(rng, f.k()).rem(p)));
    v
}

fn el(f: &PrimeField, v: &Mp) -> FpElement {
    let e = f.from_mp(v);
    assert_eq!(e.to_mp(), *v, "{}: from_mp of a reduced value", f.name());
    assert_eq!(e.limbs().len(), f.k());
    e
}

#[test]
fn add_sub_neg_mul_sqr_match_division() {
    let mut rng = Rng::new(0xf1fe_0001);
    for f in fields() {
        let p = f.modulus();
        let ops = operands(f, &mut rng);
        for a in &ops {
            let ea = el(f, a);
            assert_eq!(f.neg(&ea).to_mp(), p.sub(a).rem(p), "{} neg", f.name());
            assert_eq!(f.sqr(&ea).to_mp(), a.mul(a).rem(p), "{} sqr", f.name());
            assert_eq!(f.dbl(&ea).to_mp(), a.add(a).rem(p), "{} dbl", f.name());
            for b in &ops {
                let eb = el(f, b);
                let name = f.name();
                assert_eq!(f.add(&ea, &eb).to_mp(), a.add(b).rem(p), "{name} add");
                assert_eq!(
                    f.sub(&ea, &eb).to_mp(),
                    a.add(p).sub(b).rem(p),
                    "{name} sub"
                );
                assert_eq!(f.mul(&ea, &eb).to_mp(), a.mul(b).rem(p), "{name} mul");
            }
        }
    }
}

#[test]
fn mul_u64_and_from_u64_match_division() {
    let mut rng = Rng::new(0xf1fe_0002);
    for f in fields() {
        let p = f.modulus();
        let scalars = [0, 1, 2, 97, u64::MAX, rng.next_u64(), rng.next_u64()];
        for a in operands(f, &mut rng) {
            let ea = el(f, &a);
            for s in scalars {
                let expect = a.mul(&Mp::from_u64(s)).rem(p);
                assert_eq!(f.mul_u64(&ea, s).to_mp(), expect, "{} mul_u64", f.name());
            }
        }
        for s in scalars {
            let expect = Mp::from_u64(s).rem(p);
            assert_eq!(f.from_u64(s).to_mp(), expect, "{} from_u64", f.name());
        }
    }
}

#[test]
fn reduce_wide_matches_division() {
    let mut rng = Rng::new(0xf1fe_0003);
    for f in fields() {
        let k = f.k();
        let mut wides = vec![vec![0; 2 * k], vec![u32::MAX; 2 * k]];
        // p^2-ish, (p-1)^2 and random double-width values.
        let pm1 = f.modulus().sub(&Mp::one());
        wides.push(pm1.mul(&pm1).to_limbs(2 * k));
        wides.extend((0..RANDOM).map(|_| rng.vec_u32(2 * k)));
        for w in wides {
            let expect = Mp::from_limbs(&w).rem(f.modulus());
            assert_eq!(f.reduce_wide(&w).to_mp(), expect, "{}", f.name());
        }
    }
}

#[test]
fn from_mp_reduces_wide_and_unreduced_inputs() {
    let mut rng = Rng::new(0xf1fe_0004);
    for f in fields() {
        let p = f.modulus();
        let k = f.k();
        let mut inputs = vec![
            p.clone(),
            p.add(&Mp::one()),
            p.add(p).sub(&Mp::one()),
            Mp::one().shl(32 * k),
            Mp::one().shl(32 * k).sub(&Mp::one()),
            Mp::from_limbs(&vec![u32::MAX; 2 * k + 3]),
        ];
        inputs.extend((0..RANDOM).map(|_| rand_mp(&mut rng, k + 2)));
        for v in inputs {
            let e = f.from_mp(&v);
            assert_eq!(e.to_mp(), v.rem(p), "{} from_mp", f.name());
            assert_eq!(e.limbs().len(), k);
            assert_eq!(e, f.from_mp(&v.rem(p)), "{}: canonical form", f.name());
        }
    }
}

#[test]
fn inversion_methods_agree_and_invert() {
    let mut rng = Rng::new(0xf1fe_0005);
    for f in fields() {
        let p = f.modulus();
        assert!(f.inv(&f.zero()).is_none());
        assert!(f.inv_fermat(&f.zero()).is_none());
        for a in operands(f, &mut rng) {
            if a.is_zero() {
                continue;
            }
            let ea = el(f, &a);
            let i = f.inv(&ea).expect("nonzero is invertible");
            assert_eq!(Some(i), f.inv_fermat(&ea), "{}", f.name());
            assert_eq!(a.mul(&i.to_mp()).rem(p), Mp::one(), "{}", f.name());
        }
    }
}

#[test]
fn pow_matches_modpow() {
    let mut rng = Rng::new(0xf1fe_0006);
    for f in fields() {
        let p = f.modulus();
        // Full-width exponents are covered by `inv_fermat` (p − 2) above;
        // `Mp::modpow` is the slow reference, so keep these to 64 bits.
        let exps = [
            Mp::zero(),
            Mp::one(),
            Mp::from_u64(2),
            Mp::from_u64(rng.next_u64()),
        ];
        for a in operands(f, &mut rng).iter().take(5) {
            for e in &exps {
                let got = f.pow(&el(f, a), e);
                assert_eq!(got.to_mp(), a.modpow(e, p), "{} pow", f.name());
            }
        }
    }
}

#[test]
fn every_curve_field_fits_max_limbs() {
    for id in CurveId::ALL.iter().chain(&CurveId::XCURVES) {
        let c = id.curve();
        let n_limbs = c.n().bit_len().div_ceil(32);
        assert!(n_limbs <= MAX_LIMBS, "{} order: {n_limbs} limbs", id.name());
        assert_eq!(c.order_field().k(), n_limbs);
        let prime_field = match c.kind() {
            CurveKind::Prime(pc) => Some(pc.field()),
            CurveKind::Mont(mc) => Some(mc.field()),
            CurveKind::Binary(_) => None,
        };
        if let Some(f) = prime_field {
            assert!(f.k() <= MAX_LIMBS, "{} field: {} limbs", id.name(), f.k());
        }
    }
    for f in fields() {
        assert!(f.k() <= MAX_LIMBS, "{}", f.name());
    }
    // The widest field in use sets the limit: K-571's 570-bit order.
    let widest = fields().iter().map(PrimeField::k).max();
    assert_eq!(widest, Some(MAX_LIMBS));
}

#[test]
#[should_panic(expected = "MAX_LIMBS")]
fn nineteen_limb_modulus_is_rejected() {
    // 2^607 − 1 is a Mersenne prime of 19 limbs.
    let p = Mp::one().shl(607).sub(&Mp::one());
    PrimeField::new("M607", &p);
}
