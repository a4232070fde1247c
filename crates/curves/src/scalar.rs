//! Scalar point multiplication — the elliptic-curve one-way function
//! (§2.1.5, §4.1).
//!
//! Four algorithms are implemented, generically over both curve families
//! via the [`GroupOps`] trait:
//!
//! * [`mul_binary`] — right-to-left binary double-and-add (Algorithm 1 of
//!   the paper), "shown purely for example sake" there and kept here as a
//!   simple cross-check oracle;
//! * [`mul_window`] — the left-to-right **sliding-window** method with
//!   precomputed small odd multiples, the algorithm the paper uses for a
//!   signature's single scalar multiplication (§4.1);
//! * [`FixedBase`] — a Lim–Lee **fixed-base comb** over a table built
//!   once per point, the host's `k·G` (the group-level form of the
//!   paper's comb, §4.2.2);
//! * [`twin_mul`] — **twin (simultaneous) multiplication**
//!   `u1*P + u2*Q` with precomputed `P+Q` and `P-Q`, the algorithm the
//!   paper uses for verification, costing less than two single
//!   multiplications (§4.1).
//!
//! The Lopez–Dahab **Montgomery ladder** for binary curves — evaluated by
//! the paper for Billie and found *less* efficient than sliding windows
//! (§4.1, Fig 7.14) — lives here too ([`montgomery_ladder_2m`]).
//!
//! Instrumented operation counts ([`OpCount`]) are exposed so the harness
//! can translate algorithm behaviour into accelerator instruction streams.

use crate::binary::{AffinePoint2m, BinaryCurve, LdPoint};
use crate::prime::{AffinePoint, JacobianPoint, PrimeCurve};
use ule_mpmath::mp::Mp;

/// Field-operation census for one scalar multiplication; drives the
/// accelerator performance models and the Fig 7.14 study.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Projective point doublings performed.
    pub doubles: usize,
    /// Projective point additions (or subtractions) performed.
    pub adds: usize,
    /// Field inversions performed (coordinate conversions).
    pub inversions: usize,
}

/// Uniform interface over the two curve families' mixed-coordinate
/// operations, so the scalar-multiplication algorithms are written once.
pub trait GroupOps {
    /// Projective (inner-loop) point representation.
    type Proj: Clone;
    /// Affine point representation (with an infinity encoding).
    type Aff: Clone + PartialEq;

    /// The projective identity.
    fn identity(&self) -> Self::Proj;
    /// True for the identity.
    fn is_identity(&self, p: &Self::Proj) -> bool;
    /// Inversion-free doubling.
    fn double(&self, p: &Self::Proj) -> Self::Proj;
    /// Mixed projective + affine addition.
    fn add_affine(&self, p: &Self::Proj, q: &Self::Aff) -> Self::Proj;
    /// Affine negation (cheap in both families).
    fn neg_affine(&self, q: &Self::Aff) -> Self::Aff;
    /// Convert to affine (costs one field inversion).
    fn to_affine(&self, p: &Self::Proj) -> Self::Aff;
    /// Lift an affine point.
    // `&self` is the curve context, not the value being converted.
    #[allow(clippy::wrong_self_convention)]
    fn from_affine(&self, q: &Self::Aff) -> Self::Proj;
    /// The affine infinity encoding.
    fn affine_infinity(&self) -> Self::Aff;
}

impl GroupOps for PrimeCurve {
    type Proj = JacobianPoint;
    type Aff = AffinePoint;

    fn identity(&self) -> JacobianPoint {
        self.jac_identity()
    }
    fn is_identity(&self, p: &JacobianPoint) -> bool {
        self.jac_is_identity(p)
    }
    fn double(&self, p: &JacobianPoint) -> JacobianPoint {
        self.jac_double(p)
    }
    fn add_affine(&self, p: &JacobianPoint, q: &AffinePoint) -> JacobianPoint {
        self.jac_add_affine(p, q)
    }
    fn neg_affine(&self, q: &AffinePoint) -> AffinePoint {
        self.neg(q)
    }
    fn to_affine(&self, p: &JacobianPoint) -> AffinePoint {
        self.jac_to_affine(p)
    }
    fn from_affine(&self, q: &AffinePoint) -> JacobianPoint {
        self.jac_from_affine(q)
    }
    fn affine_infinity(&self) -> AffinePoint {
        AffinePoint::Infinity
    }
}

impl GroupOps for BinaryCurve {
    type Proj = LdPoint;
    type Aff = AffinePoint2m;

    fn identity(&self) -> LdPoint {
        self.ld_identity()
    }
    fn is_identity(&self, p: &LdPoint) -> bool {
        self.ld_is_identity(p)
    }
    fn double(&self, p: &LdPoint) -> LdPoint {
        self.ld_double(p)
    }
    fn add_affine(&self, p: &LdPoint, q: &AffinePoint2m) -> LdPoint {
        self.ld_add_affine(p, q)
    }
    fn neg_affine(&self, q: &AffinePoint2m) -> AffinePoint2m {
        self.neg(q)
    }
    fn to_affine(&self, p: &LdPoint) -> AffinePoint2m {
        self.ld_to_affine(p)
    }
    fn from_affine(&self, q: &AffinePoint2m) -> LdPoint {
        self.ld_from_affine(q)
    }
    fn affine_infinity(&self) -> AffinePoint2m {
        AffinePoint2m::Infinity
    }
}

/// Right-to-left binary double-and-add — Algorithm 1 of the paper.
///
/// Kept as the simple oracle the optimized algorithms are tested against
/// (the paper: "shown here purely for example sake. Due to its simplicity,
/// it is relatively inefficient").
pub fn mul_binary<C: GroupOps>(curve: &C, x: &Mp, p: &C::Aff) -> C::Aff {
    let mut q = curve.identity();
    let mut base = p.clone();
    let bits = x.bit_len();
    for i in 0..bits {
        if x.bit(i) {
            q = curve.add_affine(&q, &base);
        }
        if i + 1 < bits {
            // base = 2*base, normalized back to affine so the mixed add
            // stays applicable (oracle only; cost is irrelevant here).
            let d = curve.double(&curve.from_affine(&base));
            base = curve.to_affine(&d);
        }
    }
    curve.to_affine(&q)
}

/// Sliding-window width used by the study's software suite. The paper
/// precomputes `3P` and `5P` and exploits cheap subtraction; we use a
/// plain width-3 sliding window over odd multiples `{P, 3P, 5P, 7P}`, the
/// closest standard formulation (noted in `DESIGN.md`).
pub const WINDOW_WIDTH: usize = 3;

/// Precomputed odd multiples `[P, 3P, 5P, 7P]` for the sliding window.
pub fn precompute_window<C: GroupOps>(curve: &C, p: &C::Aff) -> Vec<C::Aff> {
    let two_p = curve.double(&curve.from_affine(p));
    let two_p_aff = curve.to_affine(&two_p);
    let mut table = Vec::with_capacity(1 << (WINDOW_WIDTH - 1));
    let mut cur = p.clone();
    table.push(cur.clone());
    for _ in 1..(1 << (WINDOW_WIDTH - 1)) {
        let next = curve.add_affine(&curve.from_affine(&cur), &two_p_aff);
        cur = curve.to_affine(&next);
        table.push(cur.clone());
    }
    table
}

/// Left-to-right sliding-window scalar multiplication (§4.1), returning
/// the result and the operation census.
pub fn mul_window_counted<C: GroupOps>(curve: &C, x: &Mp, p: &C::Aff) -> (C::Aff, OpCount) {
    let mut count = OpCount::default();
    if x.is_zero() {
        return (curve.affine_infinity(), count);
    }
    let table = precompute_window(curve, p);
    // Precomputation cost: 1 double + (2^(w-1) - 1) adds, plus the affine
    // normalizations (1 inversion each).
    count.doubles += 1;
    count.adds += table.len() - 1;
    count.inversions += table.len(); // normalizations of the 2P chain
    let mut q = curve.identity();
    let mut i = x.bit_len() as isize - 1;
    while i >= 0 {
        if !x.bit(i as usize) {
            q = curve.double(&q);
            count.doubles += 1;
            i -= 1;
        } else {
            // Take the widest window [j..=i] with bit j set.
            let mut j = (i - (WINDOW_WIDTH as isize - 1)).max(0);
            while !x.bit(j as usize) {
                j += 1;
            }
            let width = (i - j + 1) as usize;
            let mut value = 0usize;
            for b in (j..=i).rev() {
                value = (value << 1) | x.bit(b as usize) as usize;
            }
            for _ in 0..width {
                q = curve.double(&q);
                count.doubles += 1;
            }
            debug_assert!(value % 2 == 1);
            q = curve.add_affine(&q, &table[value / 2]);
            count.adds += 1;
            i = j - 1;
        }
    }
    count.inversions += 1; // final conversion to affine
    (curve.to_affine(&q), count)
}

/// Sliding-window scalar multiplication, result only.
pub fn mul_window<C: GroupOps>(curve: &C, x: &Mp, p: &C::Aff) -> C::Aff {
    mul_window_counted(curve, x, p).0
}

/// Teeth of the fixed-base comb: [`FixedBase`] cuts a scalar into this
/// many rows of `d = ⌈bits(n)/4⌉` bits and indexes its table with one
/// column of bits, one bit per row.
pub const COMB_TEETH: usize = 4;

/// Lim–Lee fixed-base comb (CRYPTO '94) for a point `P` of prime order
/// `n`: the group-level form of the comb the paper uses for binary-field
/// multiplication (§4.2.2, Algorithm 6). Built once per point, it trades
/// [`mul_window`]'s `bits(n)` doublings and per-call table for `d`
/// doublings and at most `d` mixed additions against 15 stored points.
///
/// The host computes `k·G` through it. The simulated suite and its
/// [`OpCount`] keep the paper's sliding window, so no census comes from
/// here.
#[derive(Clone, Debug)]
pub struct FixedBase<C: GroupOps> {
    /// Comb spacing `d`: tooth `t` reads scalar bit `i + t·d`.
    d: usize,
    /// Order of `P`; scalars wider than the comb are reduced by it.
    n: Mp,
    /// `table[u - 1] = Σ_t u_t·2^(t·d)·P` for `u ∈ [1, 2^COMB_TEETH)`.
    table: Vec<C::Aff>,
}

impl<C: GroupOps> FixedBase<C> {
    /// Builds the comb table for `p` of order `n`: three runs of `d`
    /// doublings give the rows `2^(t·d)·P`, and 11 additions fill in the
    /// remaining sums. Every entry is normalised to affine.
    pub fn new(curve: &C, p: &C::Aff, n: &Mp) -> Self {
        let d = n.bit_len().div_ceil(COMB_TEETH);
        let mut rows = vec![p.clone()];
        for t in 1..COMB_TEETH {
            let mut q = curve.from_affine(&rows[t - 1]);
            for _ in 0..d {
                q = curve.double(&q);
            }
            rows.push(curve.to_affine(&q));
        }
        // The build is not part of any census; the count is discarded.
        let mut ops = OpCount::default();
        let mut table: Vec<C::Aff> = Vec::with_capacity((1 << COMB_TEETH) - 1);
        for u in 1usize..1 << COMB_TEETH {
            let top = u.ilog2() as usize;
            let rest = u ^ (1 << top);
            table.push(if rest == 0 {
                rows[top].clone()
            } else {
                affine_add_counted(curve, &table[rest - 1], &rows[top], &mut ops)
            });
        }
        FixedBase {
            d,
            n: n.clone(),
            table,
        }
    }

    /// The comb spacing `d = ⌈bits(n)/4⌉`.
    pub fn spacing(&self) -> usize {
        self.d
    }

    /// The 15 table points, `table()[u - 1] = Σ_t u_t·2^(t·d)·P`.
    pub fn table(&self) -> &[C::Aff] {
        &self.table
    }

    /// `k·P` by the comb: `d` doublings, at most `d` mixed additions and
    /// one inversion. `k = 0` gives infinity, as in [`mul_window`]; a
    /// scalar wider than `4d` bits is first reduced modulo `n`.
    pub fn mul(&self, curve: &C, k: &Mp) -> C::Aff {
        if k.is_zero() {
            return curve.affine_infinity();
        }
        if k.bit_len() > COMB_TEETH * self.d {
            return self.mul(curve, &k.rem(&self.n));
        }
        let inf = curve.affine_infinity();
        let mut q = curve.identity();
        for i in (0..self.d).rev() {
            q = curve.double(&q);
            let u = (0..COMB_TEETH).fold(0, |u, t| u | (k.bit(i + t * self.d) as usize) << t);
            // An infinity entry (`Σ u_t·2^(t·d) ≡ 0 mod n`, possible only
            // on toy curves) adds nothing; the mixed add cannot take it.
            if u != 0 && self.table[u - 1] != inf {
                q = curve.add_affine(&q, &self.table[u - 1]);
            }
        }
        curve.to_affine(&q)
    }
}

/// Twin scalar multiplication `u1*P + u2*Q` by simultaneous scanning with
/// a precomputed joint point (§4.1). Both multipliers are scanned
/// together one bit at a time; per bit-pair `(b1, b2)` the addend is
/// `P`, `Q`, or `P+Q`. Returns the result and the operation census.
///
/// The paper's variant additionally precomputes `P-Q` and uses signed
/// recoding; the plain Shamir trick here has the same structure and the
/// same headline property (one twin multiplication is cheaper than two
/// single ones). The `P-Q` precomputation is retained so the cost model
/// charges for it, as the paper's implementation does.
pub fn twin_mul_counted<C: GroupOps>(
    curve: &C,
    u1: &Mp,
    p: &C::Aff,
    u2: &Mp,
    q: &C::Aff,
) -> (C::Aff, OpCount) {
    let mut count = OpCount::default();
    // `Q = ±P` degenerates the joint precompute: `Q = P` makes it a
    // doubling (which the mixed-addition formulas cannot express) and
    // `Q = -P` makes it the group identity. Handle both explicitly
    // instead of leaning on the primitives' internal fallbacks — the
    // simulated kernels mirror this dispatch, and an ECDSA verification
    // hits `Q = ±G` for the legitimate keys `d = 1` and `d = n-1`.
    let inf = curve.affine_infinity();
    let p_plus_q = if *q == curve.neg_affine(p) {
        inf.clone()
    } else if *q == *p {
        curve.to_affine(&curve.double(&curve.from_affine(p)))
    } else {
        let t = curve.add_affine(&curve.from_affine(p), q);
        curve.to_affine(&t)
    };
    let p_minus_q = {
        let t = curve.add_affine(&curve.from_affine(p), &curve.neg_affine(q));
        curve.to_affine(&t)
    };
    let _ = &p_minus_q;
    count.adds += 2;
    count.inversions += 2;
    let bits = u1.bit_len().max(u2.bit_len());
    let mut r = curve.identity();
    for i in (0..bits).rev() {
        r = curve.double(&r);
        count.doubles += 1;
        match (u1.bit(i), u2.bit(i)) {
            (false, false) => {}
            (true, false) => {
                r = curve.add_affine(&r, p);
                count.adds += 1;
            }
            (false, true) => {
                r = curve.add_affine(&r, q);
                count.adds += 1;
            }
            // An identity joint addend (Q = -P) makes the (1, 1) step a
            // no-op; skipping keeps the census aligned with the kernels,
            // which branch past the `padd` in that case.
            (true, true) if p_plus_q == inf => {}
            (true, true) => {
                r = curve.add_affine(&r, &p_plus_q);
                count.adds += 1;
            }
        }
    }
    count.inversions += 1;
    (curve.to_affine(&r), count)
}

/// Twin multiplication, result only.
pub fn twin_mul<C: GroupOps>(curve: &C, u1: &Mp, p: &C::Aff, u2: &Mp, q: &C::Aff) -> C::Aff {
    twin_mul_counted(curve, u1, p, u2, q).0
}

impl std::ops::AddAssign for OpCount {
    fn add_assign(&mut self, rhs: OpCount) {
        self.doubles += rhs.doubles;
        self.adds += rhs.adds;
        self.inversions += rhs.inversions;
    }
}

/// Affine + affine addition with full degenerate-case dispatch
/// (infinity operands, `b = ±a`), normalized back to affine. The mixed
/// primitives cannot express these cases, so every table-building path
/// routes through here. Census convention matches [`twin_mul_counted`]'s
/// precompute: an addition or doubling costs one group op plus one
/// inversion (the affine normalization); infinity shortcuts are free.
fn affine_add_counted<C: GroupOps>(
    curve: &C,
    a: &C::Aff,
    b: &C::Aff,
    count: &mut OpCount,
) -> C::Aff {
    let inf = curve.affine_infinity();
    if *a == inf {
        return b.clone();
    }
    if *b == inf {
        return a.clone();
    }
    if *b == curve.neg_affine(a) {
        return inf;
    }
    if *b == *a {
        count.doubles += 1;
        count.inversions += 1;
        return curve.to_affine(&curve.double(&curve.from_affine(a)));
    }
    count.adds += 1;
    count.inversions += 1;
    curve.to_affine(&curve.add_affine(&curve.from_affine(a), b))
}

/// Joint precompute for interleaved (Straus–Shamir) twin multiplication:
/// the 4×4 grid `i·P + j·Q` for `i, j ∈ [0, 4)`, shared across a batch
/// of `(u1, u2)` pairs so its cost is amortized — the service-layer
/// analogue of the per-verification `P+Q` precompute in
/// [`twin_mul_counted`].
pub struct TwinTables<C: GroupOps> {
    /// `grid[i * 4 + j] = i·P + j·Q`; entry 0 is the identity.
    grid: Vec<C::Aff>,
    /// Census of building the grid (charge once per batch).
    pub precompute: OpCount,
}

/// Builds the shared [`TwinTables`] grid for base points `(P, Q)`.
/// Degenerate bases (`Q = ±P`, infinity) collapse grid entries to the
/// identity; the scan skips those entries, so results stay correct.
pub fn twin_tables<C: GroupOps>(curve: &C, p: &C::Aff, q: &C::Aff) -> TwinTables<C> {
    let mut count = OpCount::default();
    let inf = curve.affine_infinity();
    let mut grid = vec![inf; 16];
    for i in 0..4usize {
        for j in 0..4usize {
            if i == 0 && j == 0 {
                continue;
            }
            grid[i * 4 + j] = if j == 0 {
                affine_add_counted(curve, &grid[(i - 1) * 4], p, &mut count)
            } else {
                affine_add_counted(curve, &grid[i * 4 + j - 1], q, &mut count)
            };
        }
    }
    TwinTables {
        grid,
        precompute: count,
    }
}

/// Interleaved twin multiplication `u1·P + u2·Q` against a prebuilt
/// [`TwinTables`] grid: both scalars are scanned two bits per iteration
/// (2 doublings + at most one table addition), half the additions of
/// the bit-at-a-time [`twin_mul_counted`] scan. Returns the result and
/// the census of *this* multiplication (the caller charges
/// [`TwinTables::precompute`] once per batch).
pub fn twin_mul_tabled<C: GroupOps>(
    curve: &C,
    u1: &Mp,
    u2: &Mp,
    tables: &TwinTables<C>,
) -> (C::Aff, OpCount) {
    let mut count = OpCount::default();
    let inf = curve.affine_infinity();
    let bits = u1.bit_len().max(u2.bit_len());
    let digits = bits.div_ceil(2);
    let mut r = curve.identity();
    for d in (0..digits).rev() {
        r = curve.double(&r);
        r = curve.double(&r);
        count.doubles += 2;
        let hi = 2 * d + 1;
        let lo = 2 * d;
        let i = ((u1.bit(hi) as usize) << 1) | u1.bit(lo) as usize;
        let j = ((u2.bit(hi) as usize) << 1) | u2.bit(lo) as usize;
        let entry = &tables.grid[i * 4 + j];
        // Identity entries (digit pair zero, or a degenerate base
        // collapsed `i·P + j·Q`): skip, as the mixed add cannot take an
        // infinity operand.
        if (i, j) != (0, 0) && *entry != inf {
            r = curve.add_affine(&r, entry);
            count.adds += 1;
        }
    }
    count.inversions += 1;
    (curve.to_affine(&r), count)
}

/// Straus interleaved multi-scalar multiplication `Σ kᵢ·Pᵢ` with
/// per-point width-2 tables `[P, 2P, 3P]` and one shared doubling
/// chain — the workhorse of random-linear-combination batch
/// verification, where the term count is small (two fixed points plus
/// one `R` hint per signature) but a naive sum of single
/// multiplications would repeat the doubling chain per term.
pub fn msm_counted<C: GroupOps>(curve: &C, terms: &[(Mp, C::Aff)]) -> (C::Aff, OpCount) {
    let mut count = OpCount::default();
    let inf = curve.affine_infinity();
    let live: Vec<&(Mp, C::Aff)> = terms
        .iter()
        .filter(|(k, pt)| !k.is_zero() && *pt != inf)
        .collect();
    let mut tables: Vec<[C::Aff; 3]> = Vec::with_capacity(live.len());
    for (_, pt) in &live {
        let two = affine_add_counted(curve, pt, pt, &mut count);
        let three = affine_add_counted(curve, &two, pt, &mut count);
        tables.push([pt.clone(), two, three]);
    }
    let bits = live.iter().map(|(k, _)| k.bit_len()).max().unwrap_or(0);
    let digits = bits.div_ceil(2);
    let mut r = curve.identity();
    for d in (0..digits).rev() {
        r = curve.double(&r);
        r = curve.double(&r);
        count.doubles += 2;
        for (table, (k, _)) in tables.iter().zip(&live) {
            let digit = ((k.bit(2 * d + 1) as usize) << 1) | k.bit(2 * d) as usize;
            if digit != 0 {
                let entry = &table[digit - 1];
                if *entry != inf {
                    r = curve.add_affine(&r, entry);
                    count.adds += 1;
                }
            }
        }
    }
    count.inversions += 1;
    (curve.to_affine(&r), count)
}

/// Lopez–Dahab **Montgomery ladder** (x-coordinate-only) scalar
/// multiplication for binary curves — the algorithm the paper evaluated
/// for Billie and found more costly than sliding windows (§4.1,
/// Fig 7.14). Returns `k*P` in affine coordinates plus the census
/// (each ladder step counts as 1 double + 1 add).
///
/// # Panics
///
/// Panics if `p` is the point at infinity.
pub fn montgomery_ladder_2m(
    curve: &BinaryCurve,
    k: &Mp,
    p: &AffinePoint2m,
) -> (AffinePoint2m, OpCount) {
    let f = curve.field();
    let mut count = OpCount::default();
    let px = match p {
        AffinePoint2m::Infinity => panic!("ladder base point must be finite"),
        AffinePoint2m::Point { x, .. } => x.clone(),
    };
    if k.is_zero() {
        return (AffinePoint2m::Infinity, count);
    }
    if k.bit_len() == 1 {
        return (p.clone(), count);
    }
    // (X1, Z1) = P ; (X2, Z2) = 2P
    let mut x1 = px.clone();
    let mut z1 = f.one();
    let mut x2 = f.add(&f.sqr(&f.sqr(&px)), curve.b()); // x^4 + b
    let mut z2 = f.sqr(&px);
    for i in (0..k.bit_len() - 1).rev() {
        let bit = k.bit(i);
        if bit {
            std::mem::swap(&mut x1, &mut x2);
            std::mem::swap(&mut z1, &mut z2);
        }
        // Madd into (x2, z2): T = (X1 Z2 + X2 Z1)^2 ; X = x*T + X1Z2 * X2Z1
        let a_t = f.mul(&x1, &z2);
        let b_t = f.mul(&x2, &z1);
        let t = f.sqr(&f.add(&a_t, &b_t));
        x2 = f.add(&f.mul(&px, &t), &f.mul(&a_t, &b_t));
        z2 = t;
        // Mdouble (x1, z1): Z = X^2 Z^2, X = X^4 + b Z^4
        let xx = f.sqr(&x1);
        let zz = f.sqr(&z1);
        z1 = f.mul(&xx, &zz);
        x1 = f.add(&f.sqr(&xx), &f.mul(curve.b(), &f.sqr(&zz)));
        if bit {
            std::mem::swap(&mut x1, &mut x2);
            std::mem::swap(&mut z1, &mut z2);
        }
        count.doubles += 1;
        count.adds += 1;
    }
    // Recover the affine point. x(kP) = X1/Z1, x((k+1)P) = X2/Z2.
    if z1.is_zero() {
        return (AffinePoint2m::Infinity, count);
    }
    let xk = f.mul(&x1, &f.inv(&z1).expect("z1 != 0"));
    count.inversions += 1;
    if z2.is_zero() {
        // kP = -P: same x as P, y = x + y.
        return (curve.neg(p), count);
    }
    let xk1 = f.mul(&x2, &f.inv(&z2).expect("z2 != 0"));
    count.inversions += 1;
    // Two y candidates solve the curve equation at xk; pick the one for
    // which (xk, y) + P lands on x((k+1)P).
    for y in y_candidates(curve, &xk) {
        let cand = AffinePoint2m::new(xk.clone(), y);
        if !curve.is_on_curve(&cand) {
            continue;
        }
        let sum = curve.affine_add(&cand, p);
        if sum.x() == Some(&xk1) {
            return (cand, count);
        }
    }
    // Unreachable for valid inputs; fall back to the oracle.
    (mul_binary(curve, k, p), count)
}

fn y_candidates(
    curve: &BinaryCurve,
    x: &ule_mpmath::f2m::F2mElement,
) -> Vec<ule_mpmath::f2m::F2mElement> {
    let f = curve.field();
    if x.is_zero() {
        return Vec::new();
    }
    let xinv2 = f.sqr(&f.inv(x).expect("x != 0"));
    let c = f.add(&f.add(x, curve.a()), &f.mul(curve.b(), &xinv2));
    match curve.solve_quadratic(&c) {
        Some(z) => {
            let y = f.mul(x, &z);
            let y2 = f.add(&y, x);
            vec![y, y2]
        }
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_mpmath::f2m::BinaryField;
    use ule_mpmath::fp::PrimeField;

    fn tiny_prime() -> PrimeCurve {
        let f = PrimeField::new("GF(97)", &Mp::from_u64(97));
        let a = f.from_u64(2);
        let b = f.from_u64(3);
        let gx = f.from_u64(0);
        let gy = f.from_u64(10);
        PrimeCurve::new(f, a, b, gx, gy)
    }

    fn tiny_binary() -> BinaryCurve {
        let f = BinaryField::new("GF(2^7)", 7, &[1, 0]);
        let a = f.one();
        let b = f.one();
        let c = BinaryCurve::new(f.clone(), a.clone(), b.clone(), f.one(), f.one());
        let g = c.find_point(1);
        BinaryCurve::new(f, a, b, g.x().unwrap().clone(), g.y().unwrap().clone())
    }

    #[test]
    fn window_matches_binary_prime() {
        let c = tiny_prime();
        let g = c.generator();
        for k in [1u64, 2, 3, 7, 12, 31, 97, 1000, 65537, 0xdead_beef] {
            let k = Mp::from_u64(k);
            assert_eq!(mul_window(&c, &k, &g), mul_binary(&c, &k, &g), "k={k}");
        }
    }

    #[test]
    fn window_matches_binary_2m() {
        let c = tiny_binary();
        let g = c.generator();
        for k in [1u64, 2, 3, 5, 19, 101, 4096, 999_983] {
            let k = Mp::from_u64(k);
            assert_eq!(mul_window(&c, &k, &g), mul_binary(&c, &k, &g), "k={k}");
        }
    }

    #[test]
    fn zero_scalar_gives_identity() {
        let c = tiny_prime();
        let g = c.generator();
        assert!(mul_window(&c, &Mp::zero(), &g).is_infinity());
        let cb = tiny_binary();
        let gb = cb.generator();
        assert!(mul_window(&cb, &Mp::zero(), &gb).is_infinity());
    }

    #[test]
    fn twin_matches_separate() {
        let c = tiny_prime();
        let g = c.generator();
        let q = mul_binary(&c, &Mp::from_u64(5), &g);
        for (u1, u2) in [(3u64, 4u64), (1, 1), (100, 7), (0, 9), (9, 0), (255, 254)] {
            let (u1, u2) = (Mp::from_u64(u1), Mp::from_u64(u2));
            let lhs = twin_mul(&c, &u1, &g, &u2, &q);
            let a = mul_binary(&c, &u1, &g);
            let b = mul_binary(&c, &u2, &q);
            let rhs = c.affine_add(&a, &b);
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn twin_matches_separate_2m() {
        let c = tiny_binary();
        let g = c.generator();
        let q = mul_binary(&c, &Mp::from_u64(3), &g);
        for (u1, u2) in [(3u64, 4u64), (17, 29), (64, 63)] {
            let (u1, u2) = (Mp::from_u64(u1), Mp::from_u64(u2));
            let lhs = twin_mul(&c, &u1, &g, &u2, &q);
            let rhs = c.affine_add(&mul_binary(&c, &u1, &g), &mul_binary(&c, &u2, &q));
            assert_eq!(lhs, rhs);
        }
    }

    /// `Q = ±P` and zero multipliers: the degenerate cases the joint
    /// precompute and the (1, 1) scan step must dispatch explicitly.
    /// Runs on both families; every case is checked against two
    /// independent single multiplications.
    #[test]
    fn twin_degenerate_points_prime() {
        let c = tiny_prime();
        let g = c.generator();
        let neg_g = c.neg_affine(&g);
        for q in [g.clone(), neg_g] {
            for (u1, u2) in [
                (3u64, 1u64),
                (1, 1),
                (7, 7),
                (0, 5),
                (5, 0),
                (0, 0),
                (21, 13),
            ] {
                let (u1, u2) = (Mp::from_u64(u1), Mp::from_u64(u2));
                let lhs = twin_mul(&c, &u1, &g, &u2, &q);
                let rhs = c.affine_add(&mul_binary(&c, &u1, &g), &mul_binary(&c, &u2, &q));
                assert_eq!(lhs, rhs, "u1={u1} u2={u2} q={q:?}");
            }
        }
    }

    #[test]
    fn twin_degenerate_points_2m() {
        let c = tiny_binary();
        let g = c.generator();
        let neg_g = c.neg_affine(&g);
        for q in [g.clone(), neg_g] {
            for (u1, u2) in [
                (3u64, 1u64),
                (1, 1),
                (7, 7),
                (0, 5),
                (5, 0),
                (0, 0),
                (21, 13),
            ] {
                let (u1, u2) = (Mp::from_u64(u1), Mp::from_u64(u2));
                let lhs = twin_mul(&c, &u1, &g, &u2, &q);
                let rhs = c.affine_add(&mul_binary(&c, &u1, &g), &mul_binary(&c, &u2, &q));
                assert_eq!(lhs, rhs, "u1={u1} u2={u2} q={q:?}");
            }
        }
    }

    /// Mid-scan equal-point addition: with `Q = P`, `u1 = 3`, `u2 = 1`
    /// the accumulator equals the joint addend `2P` when the (1, 1) bit
    /// fires, forcing the addition primitive through its doubling
    /// fallback (`3P + P = 4P`).
    #[test]
    fn twin_equal_point_addend_mid_scan() {
        let c = tiny_prime();
        let g = c.generator();
        let lhs = twin_mul(&c, &Mp::from_u64(3), &g, &Mp::one(), &g);
        assert_eq!(lhs, mul_window(&c, &Mp::from_u64(4), &g));
    }

    /// The tabled interleaved scan must agree with two independent
    /// single multiplications for every pair, on both families,
    /// including degenerate bases `Q = ±P`.
    #[test]
    fn twin_batch_matches_separate() {
        let pairs: Vec<(Mp, Mp)> = [
            (3u64, 4u64),
            (1, 1),
            (100, 7),
            (0, 9),
            (9, 0),
            (0, 0),
            (255, 254),
            (65535, 12345),
        ]
        .iter()
        .map(|&(a, b)| (Mp::from_u64(a), Mp::from_u64(b)))
        .collect();
        let c = tiny_prime();
        let g = c.generator();
        for q in [
            mul_binary(&c, &Mp::from_u64(5), &g),
            g.clone(),
            c.neg_affine(&g),
        ] {
            let tables = twin_tables(&c, &g, &q);
            let mut ops = tables.precompute;
            for (u1, u2) in &pairs {
                let (lhs, count) = twin_mul_tabled(&c, u1, u2, &tables);
                let rhs = c.affine_add(&mul_binary(&c, u1, &g), &mul_binary(&c, u2, &q));
                assert_eq!(lhs, rhs, "u1={u1} u2={u2}");
                ops += count;
            }
            assert!(ops.doubles > 0 && ops.adds > 0);
        }
        let cb = tiny_binary();
        let gb = cb.generator();
        let qb = mul_binary(&cb, &Mp::from_u64(3), &gb);
        let tables = twin_tables(&cb, &gb, &qb);
        for (u1, u2) in &pairs {
            let (lhs, _) = twin_mul_tabled(&cb, u1, u2, &tables);
            let rhs = cb.affine_add(&mul_binary(&cb, u1, &gb), &mul_binary(&cb, u2, &qb));
            assert_eq!(lhs, rhs, "u1={u1} u2={u2}");
        }
    }

    /// Amortization: per verification, the two-bit tabled scan must
    /// beat the bit-at-a-time `twin_mul_counted` on additions once the
    /// grid cost is spread over a 16-element batch.
    #[test]
    fn twin_batch_amortizes_precompute() {
        let c = tiny_prime();
        let g = c.generator();
        let q = mul_binary(&c, &Mp::from_u64(7), &g);
        let k = Mp::from_u64(0xffff_ffff);
        let tables = twin_tables(&c, &g, &q);
        let mut batch = tables.precompute;
        for _ in 0..16 {
            batch += twin_mul_tabled(&c, &k, &k, &tables).1;
        }
        let (_, single) = twin_mul_counted(&c, &k, &g, &k, &q);
        let weigh = |o: &OpCount| 8 * o.doubles + 11 * o.adds + 80 * o.inversions;
        assert!(
            weigh(&batch) < 16 * weigh(&single),
            "batched {batch:?} must beat 16 x {single:?}"
        );
    }

    /// Straus MSM must match the sum of independent multiplications,
    /// including zero scalars, infinity points, and the empty sum.
    #[test]
    fn msm_matches_separate() {
        let c = tiny_prime();
        let g = c.generator();
        let p2 = mul_binary(&c, &Mp::from_u64(5), &g);
        let p3 = mul_binary(&c, &Mp::from_u64(11), &g);
        let terms = vec![
            (Mp::from_u64(3), g.clone()),
            (Mp::from_u64(0), p2.clone()),
            (Mp::from_u64(97), p3.clone()),
            (Mp::from_u64(41), c.affine_infinity()),
            (Mp::from_u64(0xdead_beef), p2.clone()),
        ];
        let (lhs, ops) = msm_counted(&c, &terms);
        let mut rhs = c.affine_infinity();
        for (k, pt) in &terms {
            rhs = c.affine_add(&rhs, &mul_binary(&c, k, pt));
        }
        assert_eq!(lhs, rhs);
        assert!(ops.doubles > 0);
        let (empty, _) = msm_counted::<PrimeCurve>(&c, &[]);
        assert!(empty.is_infinity());

        let cb = tiny_binary();
        let gb = cb.generator();
        let qb = mul_binary(&cb, &Mp::from_u64(9), &gb);
        let terms2 = vec![
            (Mp::from_u64(29), gb.clone()),
            (Mp::from_u64(61), qb.clone()),
            (Mp::from_u64(7), cb.neg_affine(&gb)),
        ];
        let (lhs2, _) = msm_counted(&cb, &terms2);
        let mut rhs2 = cb.affine_infinity();
        for (k, pt) in &terms2 {
            rhs2 = cb.affine_add(&rhs2, &mul_binary(&cb, k, pt));
        }
        assert_eq!(lhs2, rhs2);
    }

    /// Exhaustive small-scalar sweep of the tabled scan against the
    /// oracle: every `(u1, u2)` in a 17×17 grid, both families.
    #[test]
    fn twin_tabled_exhaustive_small_scalars() {
        let c = tiny_prime();
        let g = c.generator();
        let q = mul_binary(&c, &Mp::from_u64(3), &g);
        let tables = twin_tables(&c, &g, &q);
        for u1 in 0u64..17 {
            for u2 in 0u64..17 {
                let (u1m, u2m) = (Mp::from_u64(u1), Mp::from_u64(u2));
                let (lhs, _) = twin_mul_tabled(&c, &u1m, &u2m, &tables);
                let rhs = c.affine_add(&mul_binary(&c, &u1m, &g), &mul_binary(&c, &u2m, &q));
                assert_eq!(lhs, rhs, "u1={u1} u2={u2}");
            }
        }
    }

    #[test]
    fn ladder_matches_window() {
        let c = tiny_binary();
        let g = c.generator();
        for k in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 31, 63, 64, 100, 121] {
            let k = Mp::from_u64(k);
            let (ladder, _) = montgomery_ladder_2m(&c, &k, &g);
            let window = mul_window(&c, &k, &g);
            assert_eq!(ladder, window, "k={k}");
        }
    }

    #[test]
    fn op_counts_are_sane() {
        let c = tiny_prime();
        let g = c.generator();
        let k = Mp::from_u64(0xffff_ffff); // 32 bits of ones
        let (_, count) = mul_window_counted(&c, &k, &g);
        // ~bits doubles, ~bits/(w+1) adds plus precomputation
        assert!(count.doubles >= 32 && count.doubles <= 40, "{count:?}");
        assert!(count.adds >= 8 && count.adds <= 16, "{count:?}");
        let (_, twin) = twin_mul_counted(&c, &k, &g, &k, &g);
        assert_eq!(twin.doubles, 32);
        assert!(twin.adds <= 32 + 2);
    }
}
