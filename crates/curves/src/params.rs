//! Curve domain parameters for the ten fields of the design-space study.
//!
//! Prime curves are the NIST `P-*` curves over the generalized-Mersenne
//! primes of eq. 4.3–4.7. Binary curves are Koblitz curves
//! (`y^2 + xy = x^3 + a x^2 + 1`, `a ∈ {0, 1}`) over the NIST binary
//! fields of eq. 4.8–4.12 — the same fields the paper evaluates; see
//! `DESIGN.md` for why Koblitz parameters substitute for the `B-*` sets
//! (the energy results depend only on the field, and Koblitz group orders
//! can be **derived from scratch** via the Lucas sequence of the Frobenius
//! trace, removing any dependence on embedded magic constants).
//!
//! Every parameter set is *self-validated* by [`Curve::validate`]:
//! generator on the curve, group order a probable prime in the Hasse
//! interval, and `n·G = ∞`.

use crate::binary::BinaryCurve;
use crate::ecdsa::PublicKey;
use crate::montgomery::MontCurve;
use crate::prime::PrimeCurve;
use crate::scalar::{self, FixedBase};
use std::sync::OnceLock;
use ule_mpmath::f2m::BinaryField;
use ule_mpmath::fp::PrimeField;
use ule_mpmath::mp::Mp;
use ule_mpmath::nist::{NistBinary, NistPrime};
use ule_mpmath::xprime::XPrime;

/// How a parameter set was obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Standardized NIST constants, embedded and self-validated.
    Nist,
    /// Derived at construction time from first principles (Koblitz group
    /// order via the Lucas sequence; generator from a small-x point).
    Derived,
}

/// Identifier for the ten curves of the study, plus the two RFC 7748
/// Montgomery curves of the ladder subsystem.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum CurveId {
    P192,
    P224,
    P256,
    P384,
    P521,
    K163,
    K233,
    K283,
    K409,
    K571,
    X25519,
    X448,
}

impl CurveId {
    /// All ten curves, primes first.
    pub const ALL: [CurveId; 10] = [
        CurveId::P192,
        CurveId::P224,
        CurveId::P256,
        CurveId::P384,
        CurveId::P521,
        CurveId::K163,
        CurveId::K233,
        CurveId::K283,
        CurveId::K409,
        CurveId::K571,
    ];

    /// The five prime curves in key-size order.
    pub const PRIMES: [CurveId; 5] = [
        CurveId::P192,
        CurveId::P224,
        CurveId::P256,
        CurveId::P384,
        CurveId::P521,
    ];

    /// The five binary curves in key-size order.
    pub const BINARY: [CurveId; 5] = [
        CurveId::K163,
        CurveId::K233,
        CurveId::K283,
        CurveId::K409,
        CurveId::K571,
    ];

    /// The two RFC 7748 Montgomery-ladder curves. Deliberately *not*
    /// part of [`CurveId::ALL`]: the study's ECDSA corpus iterates
    /// `ALL`, and the X-curves support only the ladder workloads.
    pub const XCURVES: [CurveId; 2] = [CurveId::X25519, CurveId::X448];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CurveId::P192 => "P-192",
            CurveId::P224 => "P-224",
            CurveId::P256 => "P-256",
            CurveId::P384 => "P-384",
            CurveId::P521 => "P-521",
            CurveId::K163 => "K-163",
            CurveId::K233 => "K-233",
            CurveId::K283 => "K-283",
            CurveId::K409 => "K-409",
            CurveId::K571 => "K-571",
            CurveId::X25519 => "X25519",
            CurveId::X448 => "X448",
        }
    }

    /// The metrics-schema spelling: the same string as [`CurveId::name`].
    pub fn key(self) -> &'static str {
        self.name()
    }

    /// Field size in bits (the "key size" axis of every figure).
    pub fn bits(self) -> usize {
        match self {
            CurveId::P192 => 192,
            CurveId::P224 => 224,
            CurveId::P256 => 256,
            CurveId::P384 => 384,
            CurveId::P521 => 521,
            CurveId::K163 => 163,
            CurveId::K233 => 233,
            CurveId::K283 => 283,
            CurveId::K409 => 409,
            CurveId::K571 => 571,
            CurveId::X25519 => 255,
            CurveId::X448 => 448,
        }
    }

    /// True for the GF(2^m) curves.
    pub fn is_binary(self) -> bool {
        matches!(
            self,
            CurveId::K163 | CurveId::K233 | CurveId::K283 | CurveId::K409 | CurveId::K571
        )
    }

    /// True for the RFC 7748 Montgomery (x-only ladder) curves.
    pub fn is_mont(self) -> bool {
        matches!(self, CurveId::X25519 | CurveId::X448)
    }

    /// The curve of equivalent security this curve is paired with:
    /// prime ↔ binary per Fig 7.7/7.9, and Montgomery → prime for the
    /// handshake composition (an X25519 key agreement is certified with
    /// a ~128-bit ECDSA signature, i.e. P-256; X448 with P-521).
    pub fn security_pair(self) -> CurveId {
        match self {
            CurveId::P192 => CurveId::K163,
            CurveId::P224 => CurveId::K233,
            CurveId::P256 => CurveId::K283,
            CurveId::P384 => CurveId::K409,
            CurveId::P521 => CurveId::K571,
            CurveId::K163 => CurveId::P192,
            CurveId::K233 => CurveId::P224,
            CurveId::K283 => CurveId::P256,
            CurveId::K409 => CurveId::P384,
            CurveId::K571 => CurveId::P521,
            CurveId::X25519 => CurveId::P256,
            CurveId::X448 => CurveId::P521,
        }
    }

    /// The RFC 7748 ladder prime underlying a Montgomery curve.
    ///
    /// # Panics
    ///
    /// Panics for non-Montgomery curves.
    pub fn xprime(self) -> XPrime {
        match self {
            CurveId::X25519 => XPrime::P25519,
            CurveId::X448 => XPrime::P448,
            _ => panic!("{} is not a Montgomery curve", self.name()),
        }
    }

    /// The NIST prime underlying a prime curve.
    ///
    /// # Panics
    ///
    /// Panics for binary curves.
    pub fn nist_prime(self) -> NistPrime {
        match self {
            CurveId::P192 => NistPrime::P192,
            CurveId::P224 => NistPrime::P224,
            CurveId::P256 => NistPrime::P256,
            CurveId::P384 => NistPrime::P384,
            CurveId::P521 => NistPrime::P521,
            _ => panic!("{} is not a prime curve", self.name()),
        }
    }

    /// The NIST binary field underlying a binary curve.
    ///
    /// # Panics
    ///
    /// Panics for prime curves.
    pub fn nist_binary(self) -> NistBinary {
        match self {
            CurveId::K163 => NistBinary::B163,
            CurveId::K233 => NistBinary::B233,
            CurveId::K283 => NistBinary::B283,
            CurveId::K409 => NistBinary::B409,
            CurveId::K571 => NistBinary::B571,
            _ => panic!("{} is not a binary curve", self.name()),
        }
    }

    /// Constructs the full curve context (field contexts, generator,
    /// group order, mod-n arithmetic).
    pub fn curve(self) -> Curve {
        Curve::new(self)
    }
}

/// The curve-family-specific part of a [`Curve`].
// Variant sizes differ (binary params carry more tables), but curves are
// built once and borrowed everywhere — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum CurveKind {
    /// A prime-field short-Weierstraß curve.
    Prime(PrimeCurve),
    /// A binary-field Koblitz curve.
    Binary(BinaryCurve),
    /// An RFC 7748 Montgomery curve (x-only ladder).
    Mont(MontCurve),
}

/// A fully-constructed curve: group structure plus the protocol-arithmetic
/// context modulo the group order (§4.1).
#[derive(Clone, Debug)]
pub struct Curve {
    id: CurveId,
    kind: CurveKind,
    n: Mp,
    cofactor: u64,
    order_field: PrimeField,
    provenance: Provenance,
    /// G's fixed-base comb, built on the first [`Curve::mul_g`].
    g_comb: OnceLock<GComb>,
}

/// The table behind [`Curve::mul_g`], one variant per Weierstraß family.
#[derive(Clone, Debug)]
enum GComb {
    Prime(FixedBase<PrimeCurve>),
    Binary(FixedBase<BinaryCurve>),
}

/// Whether `input` spells the name `key` under the one policy every
/// design-space name follows: ASCII case is ignored, and `-`, `_` and
/// no separator are the same (`P192`, `p-192` and `P_192` all spell
/// `P-192`; `isa-ext` spells `isa_ext`).
pub fn spells(input: &str, key: &str) -> bool {
    let fold = |s: &str| {
        s.bytes()
            .filter(|b| !matches!(b, b'-' | b'_'))
            .map(|b| b.to_ascii_lowercase())
            .collect::<Vec<u8>>()
    };
    fold(input) == fold(key)
}

/// The member of `all` whose `key` the input [`spells`], or an error
/// that lists the accepted keys: the one `FromStr` behind every
/// design-space name (curve, arch, workload, multiplier variant).
pub fn parse_name<T: Copy>(
    what: &str,
    input: &str,
    all: &[T],
    key: fn(T) -> &'static str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&v| spells(input, key(v)))
        .ok_or_else(|| {
            let keys: Vec<&str> = all.iter().map(|&v| key(v)).collect();
            format!("unknown {what} {input:?} (expected {})", keys.join("|"))
        })
}

impl std::str::FromStr for CurveId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let all = [CurveId::ALL.as_slice(), &CurveId::XCURVES].concat();
        parse_name("curve", s, &all, CurveId::key)
    }
}

impl Curve {
    /// Builds the named curve.
    pub fn new(id: CurveId) -> Self {
        if id.is_binary() {
            Self::new_koblitz(id)
        } else if id.is_mont() {
            Self::new_mont(id)
        } else {
            Self::new_prime(id)
        }
    }

    fn new_mont(id: CurveId) -> Self {
        let curve = MontCurve::new(id.xprime());
        // RFC 7748 subgroup orders: ℓ = 2^252 + δ for curve25519 and
        // ℓ = 2^446 − δ' for curve448; embedded as hex like the NIST
        // constants, self-validated (probable prime + Hasse) below.
        let (n_hex, h) = match id {
            CurveId::X25519 => (
                "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed",
                8u64,
            ),
            CurveId::X448 => (
                "3fffffffffffffffffffffffffffffffffffffffffffffffffffffff\
                 7cca23e9c44edb49aed63690216cc2728dc58f552378c292ab5844f3",
                4u64,
            ),
            _ => unreachable!("only X-curves reach new_mont"),
        };
        let n = Mp::from_hex(n_hex).expect("static hex");
        let order_field = PrimeField::new(&format!("{} order", id.name()), &n);
        Curve {
            id,
            kind: CurveKind::Mont(curve),
            n,
            cofactor: h,
            order_field,
            provenance: Provenance::Nist,
            g_comb: OnceLock::new(),
        }
    }

    fn new_prime(id: CurveId) -> Self {
        let field = PrimeField::nist(id.nist_prime());
        let (b_hex, n_hex, gx_hex, gy_hex) = prime_constants(id);
        let a = field.sub(&field.zero(), &field.from_u64(3));
        let b = field.from_mp(&Mp::from_hex(b_hex).expect("static hex"));
        let gx = field.from_mp(&Mp::from_hex(gx_hex).expect("static hex"));
        let gy = field.from_mp(&Mp::from_hex(gy_hex).expect("static hex"));
        let n = Mp::from_hex(n_hex).expect("static hex");
        let curve = PrimeCurve::new(field, a, b, gx, gy);
        let order_field = PrimeField::new(&format!("{} order", id.name()), &n);
        Curve {
            id,
            kind: CurveKind::Prime(curve),
            n,
            cofactor: 1,
            order_field,
            provenance: Provenance::Nist,
            g_comb: OnceLock::new(),
        }
    }

    fn new_koblitz(id: CurveId) -> Self {
        let nb = id.nist_binary();
        let field = BinaryField::nist(nb);
        // Koblitz parameters: b = 1; a = 1 for K-163, else 0.
        let a_val = if id == CurveId::K163 { 1u64 } else { 0 };
        let a = field.from_mp(&Mp::from_u64(a_val));
        let b = field.one();
        // Group order from the Frobenius trace Lucas sequence:
        //   #E(GF(2^m)) = 2^m + 1 - V_m,  V_0 = 2, V_1 = t, V_{k+1} = t V_k - 2 V_{k-1}
        // with t = 1 for a = 1 and t = -1 for a = 0.
        let h: u64 = if a_val == 1 { 2 } else { 4 };
        let order = koblitz_order(nb.m(), a_val == 1);
        let (n, rem) = order.div_rem(&Mp::from_u64(h));
        assert!(rem.is_zero(), "cofactor must divide the curve order");
        // Derive a generator: first small-x point, multiplied by the
        // cofactor to land in the prime-order subgroup.
        let mut probe = BinaryCurve::new(field.clone(), a, b, field.one(), field.one());
        let mut start = 2u64;
        let g = loop {
            let p = probe.find_point(start);
            let mut q = p.clone();
            for _ in 0..h.trailing_zeros() {
                q = probe.affine_double(&q);
            }
            if !q.is_infinity() {
                break q;
            }
            start = p.x().expect("finite").to_mp().low_u64() + 1;
        };
        probe = BinaryCurve::new(
            field,
            a,
            b,
            *g.x().expect("finite"),
            *g.y().expect("finite"),
        );
        let order_field = PrimeField::new(&format!("{} order", id.name()), &n);
        Curve {
            id,
            kind: CurveKind::Binary(probe),
            n,
            cofactor: h,
            order_field,
            provenance: Provenance::Derived,
            g_comb: OnceLock::new(),
        }
    }

    /// The curve identifier.
    pub fn id(&self) -> CurveId {
        self.id
    }

    /// Field elements' width in 32-bit limbs: the buffer width of the
    /// curve's simulated suite and of every limb vector it reads or
    /// writes.
    pub fn limbs(&self) -> usize {
        match &self.kind {
            CurveKind::Prime(c) => c.field().k(),
            CurveKind::Binary(c) => c.field().k(),
            CurveKind::Mont(c) => c.field().k(),
        }
    }

    /// The family-specific group implementation.
    pub fn kind(&self) -> &CurveKind {
        &self.kind
    }

    /// The prime-curve implementation.
    ///
    /// # Panics
    ///
    /// Panics for binary curves.
    pub fn prime(&self) -> &PrimeCurve {
        match &self.kind {
            CurveKind::Prime(c) => c,
            CurveKind::Binary(_) => panic!("{} is a binary curve", self.id.name()),
            CurveKind::Mont(_) => panic!("{} is a Montgomery curve", self.id.name()),
        }
    }

    /// The binary-curve implementation.
    ///
    /// # Panics
    ///
    /// Panics for prime curves.
    pub fn binary(&self) -> &BinaryCurve {
        match &self.kind {
            CurveKind::Binary(c) => c,
            CurveKind::Prime(_) => panic!("{} is a prime curve", self.id.name()),
            CurveKind::Mont(_) => panic!("{} is a Montgomery curve", self.id.name()),
        }
    }

    /// The Montgomery-curve implementation.
    ///
    /// # Panics
    ///
    /// Panics for non-Montgomery curves.
    pub fn mont(&self) -> &MontCurve {
        match &self.kind {
            CurveKind::Mont(c) => c,
            _ => panic!("{} is not a Montgomery curve", self.id.name()),
        }
    }

    /// The (prime) order of the base point.
    pub fn n(&self) -> &Mp {
        &self.n
    }

    /// The cofactor `h = #E / n`.
    pub fn cofactor(&self) -> u64 {
        self.cofactor
    }

    /// Arithmetic context modulo the group order — the "protocol
    /// arithmetic" field of §4.1, which stays on Pete in every
    /// configuration.
    pub fn order_field(&self) -> &PrimeField {
        &self.order_field
    }

    /// Where the parameters came from.
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// `k·G` through G's fixed-base comb, the host's one path for
    /// multiples of the generator. The first call on a curve builds the
    /// table; later calls reuse it. `k = 0` gives infinity.
    ///
    /// # Panics
    ///
    /// Panics on a Montgomery curve: ECDSA needs a Weierstraß curve.
    pub fn mul_g(&self, k: &Mp) -> PublicKey {
        let comb = self.g_comb.get_or_init(|| match &self.kind {
            CurveKind::Prime(c) => GComb::Prime(FixedBase::new(c, &c.generator(), &self.n)),
            CurveKind::Binary(c) => GComb::Binary(FixedBase::new(c, &c.generator(), &self.n)),
            CurveKind::Mont(_) => panic!("{}: ECDSA needs a Weierstraß curve", self.id.name()),
        });
        match (&self.kind, comb) {
            (CurveKind::Prime(c), GComb::Prime(t)) => PublicKey::Prime(t.mul(c, k)),
            (CurveKind::Binary(c), GComb::Binary(t)) => PublicKey::Binary(t.mul(c, k)),
            _ => unreachable!("the comb is built for the curve's own family"),
        }
    }

    /// Full self-validation of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first failed check: generator on the
    /// curve, `n` probably prime, `h·n` in the Hasse interval, and
    /// `n·G = ∞`.
    pub fn validate(&self) -> Result<(), String> {
        let id = self.id.name();
        if !self.n.is_probable_prime(8) {
            return Err(format!("{id}: group order is not prime"));
        }
        // Hasse bound: |h*n - (q + 1)| <= 2 sqrt(q), with q the actual
        // field order (the prime p, or exactly 2^m for binary fields).
        let q_bits = self.id.bits();
        let q = match &self.kind {
            CurveKind::Prime(c) => c.field().modulus().clone(),
            CurveKind::Binary(c) => Mp::one().shl(c.field().m()),
            CurveKind::Mont(c) => c.prime().modulus(),
        };
        let hn = self.n.mul(&Mp::from_u64(self.cofactor));
        let q_plus_1 = q.add(&Mp::one());
        let diff = if hn >= q_plus_1 {
            hn.sub(&q_plus_1)
        } else {
            q_plus_1.sub(&hn)
        };
        // Allow a loose 2^(bits/2 + 2) bound (covers 2 sqrt(q) for
        // non-power-of-two primes too).
        if diff.bit_len() > q_bits / 2 + 2 {
            return Err(format!("{id}: order violates the Hasse bound"));
        }
        match &self.kind {
            CurveKind::Prime(c) => {
                let g = c.generator();
                if !c.is_on_curve(&g) {
                    return Err(format!("{id}: generator not on curve"));
                }
                let ng = scalar::mul_window(c, &self.n, &g);
                if !ng.is_infinity() {
                    return Err(format!("{id}: n*G != infinity"));
                }
            }
            CurveKind::Binary(c) => {
                let g = c.generator();
                if !c.is_on_curve(&g) {
                    return Err(format!("{id}: generator not on curve"));
                }
                let ng = scalar::mul_window(c, &self.n, &g);
                if !ng.is_infinity() {
                    return Err(format!("{id}: n*G != infinity"));
                }
            }
            CurveKind::Mont(c) => {
                // x-only ladder: "n·G = ∞" is not directly expressible
                // (clamping fixes the scalar's top bit), so validate the
                // base abscissa (quadratic-residue check) and that the
                // subgroup has the claimed order: ladder(ℓ + clamped
                // lift) returns to the base u for a scalar ≡ 1 (mod ℓ)
                // in the clamped range.
                if !c.u_on_curve(c.base_u()) {
                    return Err(format!("{id}: base u not on curve"));
                }
                // k = 4ℓ + 1 ≡ 1 (mod ℓ) still fits the fixed ladder
                // width on both curves (4ℓ < 2^255 and < 2^448), so
                // ladder(k, base) must return the base u.
                let k = self.n.mul(&Mp::from_u64(4)).add(&Mp::one());
                let back = c.ladder(&k, c.base_u());
                if back != *c.base_u() {
                    return Err(format!("{id}: (4n+1)*G != G on the ladder"));
                }
            }
        }
        Ok(())
    }
}

/// Koblitz curve order `#E(GF(2^m)) = 2^m + 1 - V_m` via the Lucas
/// sequence `V_0 = 2, V_1 = t, V_{k+1} = t·V_k - 2·V_{k-1}` with trace
/// `t = 1` when `a = 1` and `t = -1` when `a = 0`.
fn koblitz_order(m: usize, a_is_one: bool) -> Mp {
    // Signed arithmetic on (sign, magnitude).
    #[derive(Clone)]
    struct S {
        neg: bool,
        mag: Mp,
    }
    fn add(x: &S, y: &S) -> S {
        if x.neg == y.neg {
            S {
                neg: x.neg,
                mag: x.mag.add(&y.mag),
            }
        } else if x.mag >= y.mag {
            S {
                neg: x.neg,
                mag: x.mag.sub(&y.mag),
            }
        } else {
            S {
                neg: y.neg,
                mag: y.mag.sub(&x.mag),
            }
        }
    }
    fn neg(x: &S) -> S {
        S {
            neg: !x.neg && !x.mag.is_zero(),
            mag: x.mag.clone(),
        }
    }
    let t_pos = a_is_one;
    let mut v_prev = S {
        neg: false,
        mag: Mp::from_u64(2),
    }; // V_0
    let mut v = S {
        neg: !t_pos,
        mag: Mp::one(),
    }; // V_1 = t
    for _ in 1..m {
        // V_{k+1} = t*V_k - 2*V_{k-1}
        let tv = if t_pos { v.clone() } else { neg(&v) };
        let two_prev = S {
            neg: v_prev.neg,
            mag: v_prev.mag.shl(1),
        };
        let next = add(&tv, &neg(&two_prev));
        v_prev = v;
        v = next;
    }
    // order = 2^m + 1 - V_m
    let base = Mp::one().shl(m).add(&Mp::one());
    if v.neg {
        base.add(&v.mag)
    } else {
        base.sub(&v.mag)
    }
}

/// `(b, n, Gx, Gy)` hex constants for the NIST prime curves (all with
/// `a = p - 3`, cofactor 1). Self-validated by [`Curve::validate`].
fn prime_constants(id: CurveId) -> (&'static str, &'static str, &'static str, &'static str) {
    match id {
        CurveId::P192 => (
            "64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1",
            "ffffffffffffffffffffffff99def836146bc9b1b4d22831",
            "188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012",
            "07192b95ffc8da78631011ed6b24cdd573f977a11e794811",
        ),
        CurveId::P224 => (
            "b4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4",
            "ffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d",
            "b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6115c1d21",
            "bd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34",
        ),
        CurveId::P256 => (
            "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
            "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
        ),
        CurveId::P384 => (
            "b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875ac656398d8a2ed19d2a85c8edd3ec2aef",
            "ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf581a0db248b0a77aecec196accc52973",
            "aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a385502f25dbf55296c3a545e3872760ab7",
            "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c00a60b1ce1d7e819d7a431d7c90ea0e5f",
        ),
        CurveId::P521 => (
            "051953eb9618e1c9a1f929a21a0b68540eea2da725b99b315f3b8b489918ef109e156193951ec7e937b1652c0bd3bb1bf073573df883d2c34f1ef451fd46b503f00",
            "1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffa51868783bf2f966b7fcc0148f709a5d03bb5c9b8899c47aebb6fb71e91386409",
            "c6858e06b70404e9cd9e3ecb662395b4429c648139053fb521f828af606b4d3dbaa14b5e77efe75928fe1dc127a2ffa8de3348b3c1856a429bf97e7e31c2e5bd66",
            "11839296a789a3bc0045c8a5fb42c7d1bd998f54449579b446817afbd17273e662c97ee72995ef42640c550b9013fad0761353c7086a272c24088be94769fd16650",
        ),
        _ => unreachable!("binary curves have derived parameters"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn koblitz_order_k163_matches_published() {
        // The published K-163 subgroup order; our Lucas-derived order must
        // reproduce it exactly (cofactor 2).
        let order = koblitz_order(163, true);
        let n = order.div_rem(&Mp::from_u64(2)).0;
        assert_eq!(n.to_hex(), "4000000000000000000020108a2e0cc0d99f8a5ef");
    }

    #[test]
    fn koblitz_order_k233_matches_published() {
        let order = koblitz_order(233, false);
        let n = order.div_rem(&Mp::from_u64(4)).0;
        assert_eq!(
            n.to_hex(),
            "8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf"
        );
    }

    #[test]
    fn small_curves_validate() {
        for id in [CurveId::P192, CurveId::K163] {
            let c = id.curve();
            c.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn p256_validates() {
        CurveId::P256.curve().validate().unwrap();
    }

    #[test]
    fn curve_accessors() {
        let c = CurveId::P192.curve();
        assert_eq!(c.id(), CurveId::P192);
        assert_eq!(c.cofactor(), 1);
        assert_eq!(c.provenance(), Provenance::Nist);
        assert_eq!(c.order_field().modulus(), c.n());
        let k = CurveId::K163.curve();
        assert_eq!(k.cofactor(), 2);
        assert_eq!(k.provenance(), Provenance::Derived);
        assert!(k.id().is_binary());
        assert_eq!(k.id().security_pair(), CurveId::P192);
    }

    #[test]
    #[should_panic(expected = "binary curve")]
    fn prime_accessor_panics_on_binary() {
        let c = CurveId::K163.curve();
        let _ = c.prime();
    }

    #[test]
    fn x_curves_validate() {
        for id in CurveId::XCURVES {
            let c = id.curve();
            c.validate().unwrap_or_else(|e| panic!("{e}"));
            assert!(id.is_mont() && !id.is_binary());
            assert_eq!(c.order_field().modulus(), c.n());
            assert!(c.n().is_probable_prime(8));
        }
        assert_eq!(CurveId::X25519.curve().cofactor(), 8);
        assert_eq!(CurveId::X448.curve().cofactor(), 4);
        assert_eq!(CurveId::X25519.security_pair(), CurveId::P256);
        assert_eq!(CurveId::X448.security_pair(), CurveId::P521);
        // The study's ALL corpus stays the ten ECDSA curves.
        assert!(!CurveId::ALL.contains(&CurveId::X25519));
    }

    #[test]
    #[should_panic(expected = "not a Montgomery curve")]
    fn mont_accessor_panics_on_prime() {
        let c = CurveId::P192.curve();
        let _ = c.mont();
    }

    #[test]
    fn curve_names_round_trip_under_the_spelling_policy() {
        let pinned = [
            "P-192", "P-224", "P-256", "P-384", "P-521", "K-163", "K-233", "K-283", "K-409",
            "K-571", "X25519", "X448",
        ];
        let all: Vec<CurveId> = CurveId::ALL.into_iter().chain(CurveId::XCURVES).collect();
        for (id, key) in all.into_iter().zip(pinned) {
            assert_eq!(id.key(), key);
            assert_eq!(id.key().parse(), Ok(id));
        }
        for (input, id) in [
            ("P-192", CurveId::P192),
            ("P192", CurveId::P192),
            ("p_192", CurveId::P192),
            ("k571", CurveId::K571),
            ("x25519", CurveId::X25519),
            ("X-448", CurveId::X448),
        ] {
            assert_eq!(input.parse(), Ok(id), "{input}");
        }
        for bad in ["x12345", "P 192", "", "P-1920"] {
            let err = bad.parse::<CurveId>().unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
