//! ECDSA — the Elliptic Curve Digital Signature Algorithm, the benchmark
//! workload of the entire study (§4.1).
//!
//! A **signature** costs one single scalar point multiplication
//! (`X = kG`) plus protocol arithmetic modulo the group order; a
//! **verification** costs one *twin* scalar multiplication
//! (`X = u1·G + u2·Q`). The paper's headline metric is the energy of one
//! *signature followed by one verification* ("closely models an SSL
//! handshake on the client side", §7.6).
//!
//! Nonces and keys are derived deterministically from seeds via SHA-256 so
//! that every experiment in the repository is reproducible; see
//! `DESIGN.md` for why this substitution is sound (nonce generation is
//! not part of the paper's measured energy).

use crate::binary::AffinePoint2m;
use crate::params::{Curve, CurveKind};
use crate::prime::AffinePoint;
use crate::scalar;
use crate::sha256::Sha256;
use ule_mpmath::fp::FpElement;
use ule_mpmath::mp::Mp;

/// A public key: a point on the curve, family-specific.
#[derive(Clone, PartialEq, Debug)]
pub enum PublicKey {
    /// Public point on a prime curve.
    Prime(AffinePoint),
    /// Public point on a binary curve.
    Binary(AffinePoint2m),
}

impl PublicKey {
    /// The affine coordinates as limb vectors, as the simulated kernels
    /// read and write them; the identity is the kernels' `(0, 0)`
    /// sentinel at `k` limbs.
    pub fn xy_limbs(&self, k: usize) -> (Vec<u32>, Vec<u32>) {
        match self {
            PublicKey::Prime(AffinePoint::Point { x, y }) => {
                (x.limbs().to_vec(), y.limbs().to_vec())
            }
            PublicKey::Binary(AffinePoint2m::Point { x, y }) => {
                (x.limbs().to_vec(), y.limbs().to_vec())
            }
            _ => (vec![0; k], vec![0; k]),
        }
    }
}

/// A private/public key pair.
#[derive(Clone, Debug)]
pub struct Keypair {
    d: Mp,
    public: PublicKey,
}

impl Keypair {
    /// Derives a key pair deterministically from a seed.
    pub fn derive(curve: &Curve, seed: &[u8]) -> Keypair {
        let d = derive_scalar(curve, seed, b"key");
        Keypair::from_private(curve, d)
    }

    /// Builds the key pair for a given private scalar.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero or `>= n`.
    pub fn from_private(curve: &Curve, d: Mp) -> Keypair {
        assert!(!d.is_zero() && &d < curve.n(), "private key out of range");
        let public = curve.mul_g(&d);
        Keypair { d, public }
    }

    /// The private scalar.
    pub fn private(&self) -> &Mp {
        &self.d
    }

    /// The public point.
    pub fn public(&self) -> PublicKey {
        self.public.clone()
    }
}

/// An ECDSA signature `(r, s)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature {
    /// The `r` component (`x(kG) mod n`).
    pub r: Mp,
    /// The `s` component (`k^{-1}(e + r d) mod n`).
    pub s: Mp,
}

/// Hashes a message and truncates it into a scalar, per the ECDSA
/// convention (leftmost `bits(n)` bits of the digest, then reduced).
pub fn hash_to_scalar(curve: &Curve, msg: &[u8]) -> Mp {
    let digest = crate::sha256::sha256(msg);
    digest_to_scalar(curve, &digest)
}

/// Truncates an externally computed digest into a scalar.
pub fn digest_to_scalar(curve: &Curve, digest: &[u8]) -> Mp {
    let mut limbs = Vec::with_capacity(digest.len().div_ceil(4));
    // big-endian bytes -> little-endian limbs
    for chunk in digest.rchunks(4) {
        let mut w = 0u32;
        for &b in chunk {
            w = (w << 8) | b as u32;
        }
        limbs.push(w);
    }
    let mut e = Mp::from_limbs(&limbs);
    let digest_bits = digest.len() * 8;
    let n_bits = curve.n().bit_len();
    if digest_bits > n_bits {
        e = e.shr(digest_bits - n_bits);
    }
    e.rem(curve.n())
}

/// Derives a scalar in `[1, n-1]` from a seed by iterated hashing
/// (deterministic; used for keys and nonces).
pub fn derive_scalar(curve: &Curve, seed: &[u8], label: &[u8]) -> Mp {
    let n = curve.n();
    let mut counter = 0u32;
    loop {
        // Concatenate as many digests as needed to cover bits(n) + 64.
        let mut material = Vec::new();
        let blocks = (n.bit_len() + 64).div_ceil(256);
        for i in 0..blocks {
            let mut h = Sha256::new();
            h.update(label);
            h.update(seed);
            h.update(&counter.to_be_bytes());
            h.update(&(i as u32).to_be_bytes());
            material.extend_from_slice(&h.finalize());
        }
        let mut limbs = Vec::new();
        for chunk in material.rchunks(4) {
            let mut w = 0u32;
            for &b in chunk {
                w = (w << 8) | b as u32;
            }
            limbs.push(w);
        }
        let k = Mp::from_limbs(&limbs).rem(n);
        if !k.is_zero() {
            return k;
        }
        counter += 1;
    }
}

/// Signs a prehashed scalar `e` with an explicit nonce `k` — the exact
/// computation the simulated software performs. Returns `None` if the
/// nonce yields `r = 0` or `s = 0` (caller picks a new nonce).
pub fn sign_with_nonce(curve: &Curve, d: &Mp, e: &Mp, k: &Mp) -> Option<Signature> {
    sign_with_nonce_recoverable(curve, d, e, k).map(|(sig, _)| sig)
}

/// [`sign_with_nonce`], additionally returning the nonce point
/// `R = k·G` the signer already computed. `R` is public (it is
/// recoverable from the signature) and is the *hint* that lets a batch
/// verifier replace each per-signature twin multiplication with one
/// random-linear-combination check — see [`verify_batch_prehashed`].
pub fn sign_with_nonce_recoverable(
    curve: &Curve,
    d: &Mp,
    e: &Mp,
    k: &Mp,
) -> Option<(Signature, PublicKey)> {
    assert!(!k.is_zero() && k < curve.n(), "nonce out of range");
    let nf = curve.order_field();
    let point = curve.mul_g(k);
    let x_int = match (curve.kind(), &point) {
        (CurveKind::Prime(c), PublicKey::Prime(p)) => c.x_as_integer(p)?,
        (CurveKind::Binary(c), PublicKey::Binary(p)) => c.x_as_integer(p)?,
        _ => unreachable!("mul_g answers in the curve's own family"),
    };
    let r = x_int.rem(curve.n());
    if r.is_zero() {
        return None;
    }
    // s = k^{-1} (e + r d) mod n
    let e_el = nf.from_mp(e);
    let r_el = nf.from_mp(&r);
    let d_el = nf.from_mp(d);
    let k_el = nf.from_mp(k);
    let kinv = nf.inv(&k_el).expect("k nonzero mod prime n");
    let s_el = nf.mul(&kinv, &nf.add(&e_el, &nf.mul(&r_el, &d_el)));
    if s_el.is_zero() {
        return None;
    }
    Some((Signature { r, s: s_el.to_mp() }, point))
}

/// Signs a message with a deterministic nonce derived from `nonce_seed`.
pub fn sign(curve: &Curve, keys: &Keypair, msg: &[u8], nonce_seed: &[u8]) -> Signature {
    let e = hash_to_scalar(curve, msg);
    let mut attempt = 0u32;
    loop {
        let mut seed = nonce_seed.to_vec();
        seed.extend_from_slice(&attempt.to_be_bytes());
        let k = derive_scalar(curve, &seed, b"nonce");
        if let Some(sig) = sign_with_nonce(curve, keys.private(), &e, &k) {
            return sig;
        }
        attempt += 1;
    }
}

/// Verifies a signature over a prehashed scalar `e` — the exact
/// computation the simulated software performs (twin scalar
/// multiplication `u1·G + u2·Q`, §4.1).
pub fn verify_prehashed(curve: &Curve, public: &PublicKey, e: &Mp, sig: &Signature) -> bool {
    let n = curve.n();
    if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
        return false;
    }
    let nf = curve.order_field();
    let w = nf.inv(&nf.from_mp(&sig.s)).expect("s nonzero mod prime n");
    let u1 = nf.mul(&nf.from_mp(e), &w).to_mp();
    let u2 = nf.mul(&nf.from_mp(&sig.r), &w).to_mp();
    let x_int = match (curve.kind(), public) {
        (CurveKind::Prime(c), PublicKey::Prime(q)) => {
            let x = scalar::twin_mul(c, &u1, &c.generator(), &u2, q);
            match c.x_as_integer(&x) {
                Some(v) => v,
                None => return false,
            }
        }
        (CurveKind::Binary(c), PublicKey::Binary(q)) => {
            let x = scalar::twin_mul(c, &u1, &c.generator(), &u2, q);
            match c.x_as_integer(&x) {
                Some(v) => v,
                None => return false,
            }
        }
        _ => return false, // key from the wrong family
    };
    x_int.rem(n) == sig.r
}

/// Verifies a signature on a message.
pub fn verify(curve: &Curve, public: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    let e = hash_to_scalar(curve, msg);
    verify_prehashed(curve, public, &e, sig)
}

/// Helper for simulated targets: the `r` component as a field element of
/// the order field (used when cross-checking simulator RAM contents).
pub fn r_as_order_element(curve: &Curve, sig: &Signature) -> FpElement {
    curve.order_field().from_mp(&sig.r)
}

/// One signature in a batch-verification request: the prehashed message
/// scalar, the signature, and optionally the signer's nonce point
/// `R = k·G` (from [`sign_with_nonce_recoverable`]). With consistent
/// hints on every in-range item, the whole batch collapses to a single
/// random-linear-combination multi-scalar multiplication; without them
/// the verifier falls back to per-signature checks over a shared
/// [`scalar::TwinTables`] grid.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The prehashed message scalar `e`.
    pub e: Mp,
    /// The signature under test.
    pub sig: Signature,
    /// The signer-provided nonce point `R = k·G`, if known.
    pub hint: Option<PublicKey>,
}

/// Outcome of [`verify_batch_prehashed`].
#[derive(Clone, Debug)]
pub struct BatchVerdict {
    /// Per-item accept/reject, in input order — the contract is
    /// elementwise equality with [`verify_prehashed`].
    pub ok: Vec<bool>,
    /// True iff the random-linear-combination fast path proved the
    /// whole batch in one multi-scalar multiplication (it can only ever
    /// conclude *all-accept*; any failure falls back to per-item
    /// verification to isolate the culprits).
    pub rlc_accepted: bool,
    /// Total host group-operation census, including shared precompute —
    /// what the service layer's energy model scales by.
    pub ops: scalar::OpCount,
}

/// Verifies a batch of signatures under one public key, accept/reject
/// per item exactly as per-signature [`verify_prehashed`] would decide.
///
/// Strategy, fastest first:
///
/// 1. **Range rejects** (`r, s ∉ [1, n)`, wrong-family key) cost no
///    group operations, exactly as in [`verify_prehashed`].
/// 2. **Random linear combination.** If ≥ 2 items survive and every
///    one carries a consistent `R` hint (on the right family and with
///    `x(R) mod n = r`), draw deterministic 64-bit coefficients
///    `z_i` from SHA-256 over `(seed, i, r_i, s_i)` (with `z_0 = 1`)
///    and test `Σ zᵢ(u1ᵢ·G + u2ᵢ·Q − Rᵢ) = O` as one multi-scalar
///    multiplication — per extra signature this adds only three short
///    64-bit scalar terms instead of a full-width twin multiplication.
///    Success accepts the whole batch; a forged batch passes with
///    probability ≤ 2⁻⁶⁴ per random `seed` (see `DESIGN.md` §13).
/// 3. **Fallback** — on any RLC failure or missing hint: per-item
///    interleaved twin multiplication over a shared
///    [`scalar::TwinTables`] grid, which is structurally the same
///    check as [`verify_prehashed`] and therefore exact.
pub fn verify_batch_prehashed(
    curve: &Curve,
    public: &PublicKey,
    items: &[BatchItem],
    seed: u64,
) -> BatchVerdict {
    match (curve.kind(), public) {
        (CurveKind::Prime(c), PublicKey::Prime(q)) => verify_batch_family(
            curve,
            c,
            &c.generator(),
            q,
            &|p| c.x_as_integer(p),
            &|h| match h {
                PublicKey::Prime(p) => Some(p),
                PublicKey::Binary(_) => None,
            },
            items,
            seed,
        ),
        (CurveKind::Binary(c), PublicKey::Binary(q)) => verify_batch_family(
            curve,
            c,
            &c.generator(),
            q,
            &|p| c.x_as_integer(p),
            &|h| match h {
                PublicKey::Binary(p) => Some(p),
                PublicKey::Prime(_) => None,
            },
            items,
            seed,
        ),
        // Key from the wrong family: every item rejects, exactly as
        // `verify_prehashed` does.
        _ => BatchVerdict {
            ok: vec![false; items.len()],
            rlc_accepted: false,
            ops: scalar::OpCount::default(),
        },
    }
}

/// Deterministic RLC coefficient for item `i`: a nonzero 64-bit scalar
/// from SHA-256 over the batch seed, the item index, and the signature
/// components (so a tampered component changes its own coefficient).
fn rlc_coefficient(seed: u64, index: usize, sig: &Signature) -> u64 {
    let mut h = Sha256::new();
    h.update(b"ule-serve rlc");
    h.update(&seed.to_be_bytes());
    h.update(&(index as u64).to_be_bytes());
    h.update(sig.r.to_hex().as_bytes());
    h.update(sig.s.to_hex().as_bytes());
    let digest = h.finalize();
    let z = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
    if z == 0 {
        1
    } else {
        z
    }
}

/// Family-generic batch verification body; see
/// [`verify_batch_prehashed`] for the contract.
#[allow(clippy::too_many_arguments)]
fn verify_batch_family<C: scalar::GroupOps>(
    curve: &Curve,
    ops_curve: &C,
    g: &C::Aff,
    q: &C::Aff,
    x_of: &dyn Fn(&C::Aff) -> Option<Mp>,
    hint_of: &dyn Fn(&PublicKey) -> Option<&C::Aff>,
    items: &[BatchItem],
    seed: u64,
) -> BatchVerdict {
    let n = curve.n();
    let nf = curve.order_field();
    let mut ok = vec![false; items.len()];
    let mut ops = scalar::OpCount::default();

    // Stage 1: range rejects (no group operations), u1/u2 for the rest.
    struct LiveItem {
        idx: usize,
        u1: Mp,
        u2: Mp,
    }
    let mut live: Vec<LiveItem> = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        let sig = &item.sig;
        if sig.r.is_zero() || &sig.r >= n || sig.s.is_zero() || &sig.s >= n {
            continue;
        }
        let w = nf.inv(&nf.from_mp(&sig.s)).expect("s nonzero mod prime n");
        live.push(LiveItem {
            idx,
            u1: nf.mul(&nf.from_mp(&item.e), &w).to_mp(),
            u2: nf.mul(&nf.from_mp(&sig.r), &w).to_mp(),
        });
    }

    // Stage 2: the RLC fast path needs a consistent hint on every live
    // item (a hint whose x-coordinate disagrees with `r` could make the
    // combined sum reject a batch `verify_prehashed` accepts).
    let hints: Option<Vec<&C::Aff>> = if live.len() >= 2 {
        live.iter()
            .map(|li| {
                let item = &items[li.idx];
                let h = item.hint.as_ref().and_then(hint_of)?;
                let x = x_of(h)?;
                if x.rem(n) == item.sig.r {
                    Some(h)
                } else {
                    None
                }
            })
            .collect()
    } else {
        None
    };
    if let Some(hints) = hints {
        let mut a = nf.zero(); // Σ zᵢ·u1ᵢ, coefficient of G
        let mut b = nf.zero(); // Σ zᵢ·u2ᵢ, coefficient of Q
        let mut terms: Vec<(Mp, C::Aff)> = Vec::with_capacity(live.len() + 2);
        for (pos, (li, hint)) in live.iter().zip(&hints).enumerate() {
            let z = if pos == 0 {
                1
            } else {
                rlc_coefficient(seed, li.idx, &items[li.idx].sig)
            };
            a = nf.add(&a, &nf.mul_u64(&nf.from_mp(&li.u1), z));
            b = nf.add(&b, &nf.mul_u64(&nf.from_mp(&li.u2), z));
            // −zᵢ·Rᵢ, as the scalar n − zᵢ on the hint point.
            terms.push((n.sub(&Mp::from_u64(z).rem(n)), (*hint).clone()));
        }
        terms.push((a.to_mp(), g.clone()));
        terms.push((b.to_mp(), q.clone()));
        let (sum, msm_ops) = scalar::msm_counted(ops_curve, &terms);
        ops += msm_ops;
        if sum == ops_curve.affine_infinity() {
            for li in &live {
                ok[li.idx] = true;
            }
            return BatchVerdict {
                ok,
                rlc_accepted: true,
                ops,
            };
        }
    }

    // Stage 3: per-item verification over the shared joint grid —
    // structurally the same computation as `verify_prehashed`, so the
    // per-item verdicts are exact.
    let tables = scalar::twin_tables(ops_curve, g, q);
    ops += tables.precompute;
    for li in &live {
        let (point, c) = scalar::twin_mul_tabled(ops_curve, &li.u1, &li.u2, &tables);
        ops += c;
        ok[li.idx] = match x_of(&point) {
            Some(x) => x.rem(n) == items[li.idx].sig.r,
            None => false,
        };
    }
    BatchVerdict {
        ok,
        rlc_accepted: false,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CurveId;

    #[test]
    fn sign_verify_round_trip_p192() {
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"alice");
        let msg = b"the medical telemetry payload";
        let sig = sign(&curve, &keys, msg, b"session 1");
        assert!(verify(&curve, &keys.public(), msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"alice");
        let sig = sign(&curve, &keys, b"original", b"session 2");
        assert!(!verify(&curve, &keys.public(), b"orig1nal", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"alice");
        let mut sig = sign(&curve, &keys, b"msg", b"session 3");
        sig.s = sig.s.add(&Mp::one());
        assert!(!verify(&curve, &keys.public(), b"msg", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let curve = CurveId::P192.curve();
        let alice = Keypair::derive(&curve, b"alice");
        let eve = Keypair::derive(&curve, b"eve");
        let sig = sign(&curve, &alice, b"msg", b"session 4");
        assert!(!verify(&curve, &eve.public(), b"msg", &sig));
    }

    #[test]
    fn sign_verify_binary_k163() {
        let curve = CurveId::K163.curve();
        let keys = Keypair::derive(&curve, b"bob");
        let msg = b"sensor reading 42.0C";
        let sig = sign(&curve, &keys, msg, b"wsn epoch 9");
        assert!(verify(&curve, &keys.public(), msg, &sig));
        assert!(!verify(
            &curve,
            &keys.public(),
            b"sensor reading 43.0C",
            &sig
        ));
    }

    #[test]
    fn signature_bounds_enforced() {
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"alice");
        let e = hash_to_scalar(&curve, b"msg");
        let zero_r = Signature {
            r: Mp::zero(),
            s: Mp::one(),
        };
        assert!(!verify_prehashed(&curve, &keys.public(), &e, &zero_r));
        let big_s = Signature {
            r: Mp::one(),
            s: curve.n().clone(),
        };
        assert!(!verify_prehashed(&curve, &keys.public(), &e, &big_s));
    }

    #[test]
    fn deterministic_signing() {
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"alice");
        let s1 = sign(&curve, &keys, b"m", b"nonce");
        let s2 = sign(&curve, &keys, b"m", b"nonce");
        assert_eq!(s1, s2);
        let s3 = sign(&curve, &keys, b"m", b"other nonce");
        assert_ne!(s1, s3);
        assert!(verify(&curve, &keys.public(), b"m", &s3));
    }

    #[test]
    fn digest_truncation_widths() {
        // 521-bit order: digest shorter than n -> no shift.
        let curve = CurveId::P192.curve();
        let e = hash_to_scalar(&curve, b"x");
        assert!(e.bit_len() <= 192);
        assert!(&e < curve.n());
    }

    /// Exhaustive `r`/`s` range rejects: zero, exactly `n`, and `n+1`
    /// must all fail on both families without reaching the twin
    /// multiplication.
    #[test]
    fn reject_out_of_range_r_s() {
        for id in [CurveId::P192, CurveId::K163] {
            let curve = id.curve();
            let keys = Keypair::derive(&curve, b"range signer");
            let e = hash_to_scalar(&curve, b"range msg");
            let nonce = derive_scalar(&curve, b"range nonce", b"nonce");
            let sig = sign_with_nonce(&curve, keys.private(), &e, &nonce).expect("nonce ok");
            assert!(verify_prehashed(&curve, &keys.public(), &e, &sig));
            let n = curve.n();
            let bad_values = [Mp::zero(), n.clone(), n.add(&Mp::one())];
            for bad in &bad_values {
                let bad_r = Signature {
                    r: bad.clone(),
                    s: sig.s.clone(),
                };
                assert!(
                    !verify_prehashed(&curve, &keys.public(), &e, &bad_r),
                    "{id:?} accepted r = {bad:?}"
                );
                let bad_s = Signature {
                    r: sig.r.clone(),
                    s: bad.clone(),
                };
                assert!(
                    !verify_prehashed(&curve, &keys.public(), &e, &bad_s),
                    "{id:?} accepted s = {bad:?}"
                );
            }
        }
    }

    /// Builds `count` signed batch items (with hints) for one curve.
    fn batch_fixture(curve: &Curve, keys: &Keypair, count: usize) -> Vec<BatchItem> {
        (0..count)
            .map(|i| {
                let e = hash_to_scalar(curve, format!("batch msg {i}").as_bytes());
                let k = derive_scalar(curve, format!("batch nonce {i}").as_bytes(), b"nonce");
                let (sig, r_point) =
                    sign_with_nonce_recoverable(curve, keys.private(), &e, &k).expect("nonce ok");
                BatchItem {
                    e,
                    sig,
                    hint: Some(r_point),
                }
            })
            .collect()
    }

    fn assert_batch_matches_single(
        curve: &Curve,
        public: &PublicKey,
        items: &[BatchItem],
        verdict: &BatchVerdict,
    ) {
        for (i, item) in items.iter().enumerate() {
            let single = verify_prehashed(curve, public, &item.e, &item.sig);
            assert_eq!(
                verdict.ok[i], single,
                "item {i}: batch said {}, verify_prehashed said {single}",
                verdict.ok[i]
            );
        }
    }

    /// An all-valid hinted batch takes the RLC fast path and agrees
    /// with per-signature verification on both families.
    #[test]
    fn batch_verify_all_valid_takes_rlc_path() {
        for id in [CurveId::P192, CurveId::K163] {
            let curve = id.curve();
            let keys = Keypair::derive(&curve, b"batch signer");
            let items = batch_fixture(&curve, &keys, 4);
            let verdict = verify_batch_prehashed(&curve, &keys.public(), &items, 0x5eed);
            assert!(verdict.rlc_accepted, "{id:?}: expected the RLC fast path");
            assert!(verdict.ok.iter().all(|&b| b), "{id:?}");
            assert_batch_matches_single(&curve, &keys.public(), &items, &verdict);
        }
    }

    /// A mixed batch — valid, bit-flipped, and out-of-range items —
    /// must fall back and agree elementwise with `verify_prehashed`.
    #[test]
    fn batch_verify_mixed_batch_is_exact() {
        for id in [CurveId::P192, CurveId::K163] {
            let curve = id.curve();
            let keys = Keypair::derive(&curve, b"batch signer");
            let mut items = batch_fixture(&curve, &keys, 6);
            let n = curve.n();
            items[1].sig.s = items[1].sig.s.add(&Mp::one()).rem(n); // tampered
            items[2].sig.r = Mp::zero(); // range reject
            items[3].sig.s = n.clone(); // range reject
            items[4].sig.r = n.add(&Mp::one()); // range reject
            let verdict = verify_batch_prehashed(&curve, &keys.public(), &items, 0x5eed);
            assert!(
                !verdict.rlc_accepted,
                "{id:?}: a tampered batch must not RLC-accept"
            );
            assert!(verdict.ok[0] && verdict.ok[5], "{id:?}");
            assert!(!verdict.ok[1] && !verdict.ok[2] && !verdict.ok[3] && !verdict.ok[4]);
            assert_batch_matches_single(&curve, &keys.public(), &items, &verdict);
        }
    }

    /// Hints are optional and untrusted: a hint-less batch and a batch
    /// with an inconsistent hint both fall back to exact per-item
    /// verification (a wrong hint must never change a verdict).
    #[test]
    fn batch_verify_without_or_with_bad_hints_is_exact() {
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"batch signer");
        let mut items = batch_fixture(&curve, &keys, 3);
        items[0].hint = None;
        let verdict = verify_batch_prehashed(&curve, &keys.public(), &items, 1);
        assert!(!verdict.rlc_accepted);
        assert!(verdict.ok.iter().all(|&b| b));
        assert_batch_matches_single(&curve, &keys.public(), &items, &verdict);

        // Inconsistent hint: x(R) mod n != r.
        let mut items = batch_fixture(&curve, &keys, 3);
        items[1].hint = Some(keys.public());
        let verdict = verify_batch_prehashed(&curve, &keys.public(), &items, 1);
        assert!(!verdict.rlc_accepted);
        assert!(verdict.ok.iter().all(|&b| b));
        assert_batch_matches_single(&curve, &keys.public(), &items, &verdict);

        // Singleton batches never take the RLC path.
        let items = batch_fixture(&curve, &keys, 1);
        let verdict = verify_batch_prehashed(&curve, &keys.public(), &items, 1);
        assert!(!verdict.rlc_accepted);
        assert!(verdict.ok[0]);
    }

    /// Wrong-family public key: every item rejects, with no group ops,
    /// exactly as `verify_prehashed`.
    #[test]
    fn batch_verify_wrong_family_rejects_all() {
        let prime = CurveId::P192.curve();
        let binary_keys = Keypair::derive(&CurveId::K163.curve(), b"binary");
        let keys = Keypair::derive(&prime, b"batch signer");
        let items = batch_fixture(&prime, &keys, 2);
        let verdict = verify_batch_prehashed(&prime, &binary_keys.public(), &items, 1);
        assert!(verdict.ok.iter().all(|&b| !b));
        assert_eq!(verdict.ops, scalar::OpCount::default());
        assert_batch_matches_single(&prime, &binary_keys.public(), &items, &verdict);
    }

    /// The headline economics: at batch size 16 the RLC path must cost
    /// well under half of 16 independent twin multiplications in
    /// weighted group operations (the ≥1.5× throughput criterion is
    /// checked end-to-end by `repro serve`; this pins the algorithmic
    /// gain that produces it).
    #[test]
    fn batch_verify_ops_gain_at_batch_16() {
        let curve = CurveId::P192.curve();
        let keys = Keypair::derive(&curve, b"batch signer");
        let items = batch_fixture(&curve, &keys, 16);
        let batch = verify_batch_prehashed(&curve, &keys.public(), &items, 7);
        assert!(batch.rlc_accepted);
        let mut single = scalar::OpCount::default();
        for item in &items {
            let verdict =
                verify_batch_prehashed(&curve, &keys.public(), std::slice::from_ref(item), 7);
            assert!(verdict.ok[0]);
            single += verdict.ops;
        }
        let weigh = |o: &scalar::OpCount| 8 * o.doubles + 11 * o.adds + 80 * o.inversions;
        assert!(
            2 * weigh(&batch.ops) < weigh(&single),
            "batch {:?} vs 16 singles {:?}",
            batch.ops,
            single
        );
    }

    /// A public key from the wrong curve family must be rejected, not
    /// misinterpreted as coordinates on the verifying curve.
    #[test]
    fn reject_wrong_family_public_key() {
        let prime = CurveId::P192.curve();
        let binary = CurveId::K163.curve();
        let prime_keys = Keypair::derive(&prime, b"prime signer");
        let binary_keys = Keypair::derive(&binary, b"binary signer");
        let e = hash_to_scalar(&prime, b"family msg");
        let nonce = derive_scalar(&prime, b"family nonce", b"nonce");
        let sig = sign_with_nonce(&prime, prime_keys.private(), &e, &nonce).expect("nonce ok");
        assert!(verify_prehashed(&prime, &prime_keys.public(), &e, &sig));
        assert!(!verify_prehashed(&prime, &binary_keys.public(), &e, &sig));
        let eb = hash_to_scalar(&binary, b"family msg");
        let nonce_b = derive_scalar(&binary, b"family nonce b", b"nonce");
        let sig_b =
            sign_with_nonce(&binary, binary_keys.private(), &eb, &nonce_b).expect("nonce ok");
        assert!(!verify_prehashed(
            &binary,
            &prime_keys.public(),
            &eb,
            &sig_b
        ));
    }

    /// Digest truncation for orders wider than 256 bits (K-409/K-571):
    /// a digest longer than `n` keeps only its leftmost `bits(n)` bits,
    /// and a 256-bit digest passes through unshifted (it is already
    /// shorter than `n`, so no reduction occurs either).
    #[test]
    fn digest_truncation_wide_orders() {
        for id in [CurveId::K409, CurveId::K571] {
            let curve = id.curve();
            let n_bits = curve.n().bit_len();
            assert!(n_bits > 256, "{id:?} order unexpectedly narrow");

            // 64-byte (512-bit) digest of descending bytes: the
            // expected scalar is the digest value shifted down to
            // bits(n), computed here via an independent byte walk.
            let digest: Vec<u8> = (0..64u32).map(|i| 0xff - i as u8).collect();
            let mut expected = Mp::zero();
            for &b in &digest {
                expected = expected.shl(8).add(&Mp::from_u64(b as u64));
            }
            // K-409 shifts (512 > 409); K-571 does not (512 < 570).
            let expected = expected.shr(512usize.saturating_sub(n_bits)).rem(curve.n());
            assert_eq!(digest_to_scalar(&curve, &digest), expected, "{id:?}");

            // SHA-256 output is narrower than n: value passes through.
            let e = hash_to_scalar(&curve, b"wide order msg");
            let raw = crate::sha256::sha256(b"wide order msg");
            let mut raw_val = Mp::zero();
            for &b in &raw {
                raw_val = raw_val.shl(8).add(&Mp::from_u64(b as u64));
            }
            assert_eq!(e, raw_val, "{id:?} narrow digest must not shift");
        }
    }
}
