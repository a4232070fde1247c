//! Property-style tests of the curve layer: group laws under random
//! scalars, algorithm agreement, and ECDSA round trips. Randomness comes
//! from the workspace's deterministic PRNG (`ule-testkit`) so every run
//! exercises the same reproducible operand set.

use ule_curves::ecdsa::{self, Keypair};
use ule_curves::params::{CurveId, CurveKind};
use ule_curves::scalar;
use ule_mpmath::mp::Mp;
use ule_testkit::Rng;

fn scalar_bits(rng: &mut Rng, bits: usize) -> Mp {
    Mp::from_limbs(&rng.vec_u32(bits.div_ceil(32)))
}

#[test]
fn window_equals_binary_oracle_p192() {
    let mut rng = Rng::new(0x7192);
    let curve = CurveId::P192.curve();
    let c = curve.prime();
    let g = c.generator();
    for _ in 0..12 {
        let k = scalar_bits(&mut rng, 96);
        assert_eq!(scalar::mul_window(c, &k, &g), scalar::mul_binary(c, &k, &g));
    }
}

#[test]
fn window_equals_binary_oracle_k163() {
    let mut rng = Rng::new(0x7163);
    let curve = CurveId::K163.curve();
    let c = curve.binary();
    let g = c.generator();
    for _ in 0..12 {
        let k = scalar_bits(&mut rng, 96);
        assert_eq!(scalar::mul_window(c, &k, &g), scalar::mul_binary(c, &k, &g));
    }
}

/// The fixed-base comb against the sliding window and double-and-add
/// on one curve: the edge scalars, one bit under each tooth, the widest
/// scalar the comb takes unreduced (and one bit wider), and 64 random
/// scalars below `n`. No table entry may be infinity.
fn comb_agrees<C: scalar::GroupOps>(name: &str, c: &C, g: &C::Aff, n: &Mp, rng: &mut Rng)
where
    C::Aff: std::fmt::Debug,
{
    let comb = scalar::FixedBase::new(c, g, n);
    let inf = c.affine_infinity();
    assert!(
        comb.table().iter().all(|p| *p != inf),
        "{name}: infinity in the comb table"
    );
    let d = comb.spacing();
    let full = Mp::one().shl(scalar::COMB_TEETH * d);
    let mut ks = vec![
        Mp::zero(),
        Mp::one(),
        Mp::from_u64(2),
        n.sub(&Mp::from_u64(2)),
        n.sub(&Mp::one()),
        full.sub(&Mp::one()),
        full,
    ];
    ks.extend((0..scalar::COMB_TEETH).map(|t| Mp::one().shl(t * d)));
    ks.extend((0..64).map(|_| scalar_bits(rng, n.bit_len()).rem(n)));
    for k in &ks {
        let want = scalar::mul_binary(c, k, g);
        assert_eq!(scalar::mul_window(c, k, g), want, "{name}: window, k={k}");
        assert_eq!(comb.mul(c, k), want, "{name}: comb, k={k}");
    }
}

/// Runs [`comb_agrees`] on every ECDSA curve of one family (two tests,
/// so the two families run side by side).
fn comb_agrees_on(binary: bool) {
    let mut rng = Rng::new(0xc0b);
    for id in CurveId::ALL
        .into_iter()
        .filter(|id| id.is_binary() == binary)
    {
        let curve = id.curve();
        match curve.kind() {
            CurveKind::Prime(c) => comb_agrees(id.name(), c, &c.generator(), curve.n(), &mut rng),
            CurveKind::Binary(c) => comb_agrees(id.name(), c, &c.generator(), curve.n(), &mut rng),
            CurveKind::Mont(_) => unreachable!("CurveId::ALL holds the ECDSA curves"),
        }
    }
}

#[test]
fn comb_equals_window_and_binary_oracle_prime() {
    comb_agrees_on(false);
}

#[test]
fn comb_equals_window_and_binary_oracle_binary() {
    comb_agrees_on(true);
}

#[test]
fn scalar_mult_distributes_over_addition() {
    // (a + b)G == aG + bG
    let mut rng = Rng::new(0xadd);
    let curve = CurveId::P192.curve();
    let c = curve.prime();
    let g = c.generator();
    for _ in 0..12 {
        let a = scalar_bits(&mut rng, 64);
        let b = scalar_bits(&mut rng, 64);
        let lhs = scalar::mul_window(c, &a.add(&b), &g);
        let ag = scalar::mul_window(c, &a, &g);
        let bg = scalar::mul_window(c, &b, &g);
        let rhs = c.affine_add(&ag, &bg);
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn twin_is_the_sum_of_singles() {
    let mut rng = Rng::new(0x2720);
    let curve = CurveId::K163.curve();
    let c = curve.binary();
    let g = c.generator();
    let q = scalar::mul_window(c, &Mp::from_u64(0xdead_beef), &g);
    for _ in 0..12 {
        let u1 = scalar_bits(&mut rng, 64);
        let u2 = scalar_bits(&mut rng, 64);
        let lhs = scalar::twin_mul(c, &u1, &g, &u2, &q);
        let rhs = c.affine_add(
            &scalar::mul_window(c, &u1, &g),
            &scalar::mul_window(c, &u2, &q),
        );
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn ecdsa_round_trip_random_messages() {
    let mut rng = Rng::new(0xec5a);
    let curve = CurveId::P192.curve();
    for _ in 0..12 {
        let len = rng.range(0, 200);
        let msg = rng.bytes(len);
        let seed = rng.next_u64();
        let keys = Keypair::derive(&curve, &seed.to_be_bytes());
        let sig = ecdsa::sign(&curve, &keys, &msg, b"prop nonce");
        assert!(ecdsa::verify(&curve, &keys.public(), &msg, &sig));
        // Any bit flip in the message must be rejected.
        if !msg.is_empty() {
            let mut bad = msg.clone();
            bad[0] ^= 1;
            assert!(!ecdsa::verify(&curve, &keys.public(), &bad, &sig));
        }
    }
}

#[test]
fn signature_malleability_rejected() {
    // Any (r, s + delta) must fail.
    let mut rng = Rng::new(0x3a11);
    let curve = CurveId::P192.curve();
    let keys = Keypair::derive(&curve, b"malleability");
    let e = ecdsa::hash_to_scalar(&curve, b"fixed message");
    let nonce = ecdsa::derive_scalar(&curve, b"fixed nonce", b"n");
    let sig = ecdsa::sign_with_nonce(&curve, keys.private(), &e, &nonce).unwrap();
    for _ in 0..12 {
        let extra = 1 + rng.below(999);
        let bad = ecdsa::Signature {
            r: sig.r.clone(),
            s: sig.s.add(&Mp::from_u64(extra)).rem(curve.n()),
        };
        assert!(!ecdsa::verify_prehashed(&curve, &keys.public(), &e, &bad));
    }
}

#[test]
fn montgomery_ladder_agrees() {
    let mut rng = Rng::new(0x1add);
    let curve = CurveId::K163.curve();
    let c = curve.binary();
    let g = c.generator();
    for _ in 0..12 {
        let k = scalar_bits(&mut rng, 48);
        if k.is_zero() {
            continue;
        }
        let (ladder, _) = scalar::montgomery_ladder_2m(c, &k, &g);
        assert_eq!(ladder, scalar::mul_window(c, &k, &g));
    }
}
