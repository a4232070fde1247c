//! Elliptic-curve point arithmetic over binary fields GF(2^m).
//!
//! Curves are the binary short Weierstraß form `y^2 + xy = x^3 + ax^2 + b`
//! (eq. 2.2). Inversion-free point operations use **Lopez–Dahab (LD)
//! coordinates**, the system the paper selects for GF(2^m) (§2.1.5, §4.1):
//! projective mapping `(X, Y, Z) -> (X/Z, Y/Z^2)`, point at infinity
//! `(1, 0, 0)`, and the negative of `(X, Y, Z)` being `(X, XZ + Y, Z)`
//! (affine: `-(x, y) = (x, x + y)`).
//!
//! Affine formulas are provided as the auditable reference that the LD
//! formulas are tested against.

use ule_mpmath::f2m::{BinaryField, F2mElement};
use ule_mpmath::mp::Mp;

/// An affine point on a binary curve, or the point at infinity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AffinePoint2m {
    /// The group identity.
    Infinity,
    /// A finite point `(x, y)`.
    Point {
        /// x-coordinate.
        x: F2mElement,
        /// y-coordinate.
        y: F2mElement,
    },
}

impl AffinePoint2m {
    /// Convenience constructor for a finite point.
    pub fn new(x: F2mElement, y: F2mElement) -> Self {
        AffinePoint2m::Point { x, y }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, AffinePoint2m::Infinity)
    }

    /// The x-coordinate, or `None` at infinity.
    pub fn x(&self) -> Option<&F2mElement> {
        match self {
            AffinePoint2m::Infinity => None,
            AffinePoint2m::Point { x, .. } => Some(x),
        }
    }

    /// The y-coordinate, or `None` at infinity.
    pub fn y(&self) -> Option<&F2mElement> {
        match self {
            AffinePoint2m::Infinity => None,
            AffinePoint2m::Point { y, .. } => Some(y),
        }
    }
}

/// A Lopez–Dahab point; `Z = 0` encodes the point at infinity.
#[derive(Clone, Debug)]
pub struct LdPoint {
    /// Projective X.
    pub x: F2mElement,
    /// Projective Y.
    pub y: F2mElement,
    /// Projective Z (`0` at infinity).
    pub z: F2mElement,
}

/// A binary Weierstraß curve with its base point.
#[derive(Clone, Debug)]
pub struct BinaryCurve {
    field: BinaryField,
    a: F2mElement,
    b: F2mElement,
    a_kind: Coeff,
    b_kind: Coeff,
    gx: F2mElement,
    gy: F2mElement,
}

/// A curve coefficient classified by [`BinaryCurve::new`], so the LD
/// formulas skip the multiply by 0 or 1 (every Koblitz curve has `b = 1`
/// and `a` in {0, 1}).
#[derive(Clone, Copy, Debug)]
enum Coeff {
    Zero,
    One,
    Other,
}

impl BinaryCurve {
    /// Creates a curve `y^2 + xy = x^3 + ax^2 + b`.
    ///
    /// # Panics
    ///
    /// Panics if `b = 0` (singular).
    pub fn new(
        field: BinaryField,
        a: F2mElement,
        b: F2mElement,
        gx: F2mElement,
        gy: F2mElement,
    ) -> Self {
        assert!(!b.is_zero(), "singular curve (b = 0)");
        let kind = |c: &F2mElement| match (c.is_zero(), *c == field.one()) {
            (true, _) => Coeff::Zero,
            (_, true) => Coeff::One,
            _ => Coeff::Other,
        };
        BinaryCurve {
            a_kind: kind(&a),
            b_kind: kind(&b),
            field,
            a,
            b,
            gx,
            gy,
        }
    }

    /// `coeff · x`, with no multiply when `kind` is 0 or 1.
    fn scale(&self, kind: Coeff, coeff: &F2mElement, x: &F2mElement) -> F2mElement {
        match kind {
            Coeff::Zero => self.field.zero(),
            Coeff::One => *x,
            Coeff::Other => self.field.mul(coeff, x),
        }
    }

    /// The underlying field context.
    pub fn field(&self) -> &BinaryField {
        &self.field
    }

    /// Curve coefficient `a`.
    pub fn a(&self) -> &F2mElement {
        &self.a
    }

    /// Curve coefficient `b`.
    pub fn b(&self) -> &F2mElement {
        &self.b
    }

    /// The base point `G`.
    pub fn generator(&self) -> AffinePoint2m {
        AffinePoint2m::new(self.gx, self.gy)
    }

    /// Checks the curve equation `y^2 + xy = x^3 + ax^2 + b`.
    pub fn is_on_curve(&self, p: &AffinePoint2m) -> bool {
        match p {
            AffinePoint2m::Infinity => true,
            AffinePoint2m::Point { x, y } => {
                let f = &self.field;
                let lhs = f.add(&f.sqr(y), &f.mul(x, y));
                let x2 = f.sqr(x);
                let rhs = f.add(&f.add(&f.mul(x, &x2), &f.mul(&self.a, &x2)), &self.b);
                lhs == rhs
            }
        }
    }

    /// `-P = (x, x + y)` (the LD negative, §2.1.5).
    pub fn neg(&self, p: &AffinePoint2m) -> AffinePoint2m {
        match p {
            AffinePoint2m::Infinity => AffinePoint2m::Infinity,
            AffinePoint2m::Point { x, y } => AffinePoint2m::new(*x, self.field.add(x, y)),
        }
    }

    /// Affine addition: `lambda = (y1 + y2)/(x1 + x2)`,
    /// `x3 = lambda^2 + lambda + x1 + x2 + a`,
    /// `y3 = lambda(x1 + x3) + x3 + y1`.
    pub fn affine_add(&self, p: &AffinePoint2m, q: &AffinePoint2m) -> AffinePoint2m {
        let f = &self.field;
        match (p, q) {
            (AffinePoint2m::Infinity, _) => q.clone(),
            (_, AffinePoint2m::Infinity) => p.clone(),
            (AffinePoint2m::Point { x: x1, y: y1 }, AffinePoint2m::Point { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 {
                        return self.affine_double(p);
                    }
                    return AffinePoint2m::Infinity; // Q = -P
                }
                let dx = f.add(x1, x2);
                let lambda = f.mul(&f.add(y1, y2), &f.inv(&dx).expect("x1 != x2"));
                let x3 = f.add(&f.add(&f.add(&f.sqr(&lambda), &lambda), &dx), &self.a);
                let y3 = f.add(&f.add(&f.mul(&lambda, &f.add(x1, &x3)), &x3), y1);
                AffinePoint2m::new(x3, y3)
            }
        }
    }

    /// Affine doubling: `lambda = x + y/x`, `x3 = lambda^2 + lambda + a`,
    /// `y3 = x^2 + (lambda + 1) x3`.
    pub fn affine_double(&self, p: &AffinePoint2m) -> AffinePoint2m {
        let f = &self.field;
        match p {
            AffinePoint2m::Infinity => AffinePoint2m::Infinity,
            AffinePoint2m::Point { x, y } => {
                if x.is_zero() {
                    return AffinePoint2m::Infinity; // the order-2 point
                }
                let lambda = f.add(x, &f.mul(y, &f.inv(x).expect("x != 0")));
                let x3 = f.add(&f.add(&f.sqr(&lambda), &lambda), &self.a);
                let y3 = f.add(&f.sqr(x), &f.mul(&f.add(&lambda, &f.one()), &x3));
                AffinePoint2m::new(x3, y3)
            }
        }
    }

    /// The LD identity `(1, 0, 0)`.
    pub fn ld_identity(&self) -> LdPoint {
        LdPoint {
            x: self.field.one(),
            y: self.field.zero(),
            z: self.field.zero(),
        }
    }

    /// Returns `true` for the identity.
    pub fn ld_is_identity(&self, p: &LdPoint) -> bool {
        p.z.is_zero()
    }

    /// Lifts an affine point to LD coordinates (`Z = 1`).
    pub fn ld_from_affine(&self, p: &AffinePoint2m) -> LdPoint {
        match p {
            AffinePoint2m::Infinity => self.ld_identity(),
            AffinePoint2m::Point { x, y } => LdPoint {
                x: *x,
                y: *y,
                z: self.field.one(),
            },
        }
    }

    /// LD point doubling (inversion-free):
    /// `Z3 = X1^2 Z1^2`, `X3 = X1^4 + b Z1^4`,
    /// `Y3 = b Z1^4 Z3 + X3 (a Z3 + Y1^2 + b Z1^4)`.
    pub fn ld_double(&self, p: &LdPoint) -> LdPoint {
        let f = &self.field;
        if p.z.is_zero() {
            return self.ld_identity();
        }
        let x2 = f.sqr(&p.x);
        let z2 = f.sqr(&p.z);
        let bz4 = self.scale(self.b_kind, &self.b, &f.sqr(&z2));
        let z3 = f.mul(&x2, &z2);
        let x3 = f.add(&f.sqr(&x2), &bz4);
        let az3 = self.scale(self.a_kind, &self.a, &z3);
        let y3 = f.add(
            &f.mul(&bz4, &z3),
            &f.mul(&x3, &f.add(&f.add(&az3, &f.sqr(&p.y)), &bz4)),
        );
        LdPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed LD + affine addition — the binary-field counterpart of the
    /// mixed Jacobian–affine addition (§4.1).
    pub fn ld_add_affine(&self, p: &LdPoint, q: &AffinePoint2m) -> LdPoint {
        let f = &self.field;
        let (x2, y2) = match q {
            AffinePoint2m::Infinity => return p.clone(),
            AffinePoint2m::Point { x, y } => (x, y),
        };
        if p.z.is_zero() {
            return LdPoint {
                x: *x2,
                y: *y2,
                z: f.one(),
            };
        }
        let z1sq = f.sqr(&p.z);
        let a_t = f.add(&f.mul(y2, &z1sq), &p.y); // A = Y2 Z1^2 + Y1
        let b_t = f.add(&f.mul(x2, &p.z), &p.x); // B = X2 Z1 + X1
        if b_t.is_zero() {
            if a_t.is_zero() {
                return self.ld_double(p);
            }
            return self.ld_identity();
        }
        let c_t = f.mul(&p.z, &b_t); // C = Z1 B
        let az1sq = self.scale(self.a_kind, &self.a, &z1sq);
        let d_t = f.mul(&f.sqr(&b_t), &f.add(&c_t, &az1sq)); // D = B^2 (C + a Z1^2)
        let z3 = f.sqr(&c_t);
        let e_t = f.mul(&a_t, &c_t);
        let x3 = f.add(&f.add(&f.sqr(&a_t), &d_t), &e_t);
        let f_t = f.add(&x3, &f.mul(x2, &z3));
        let g_t = f.mul(&f.add(x2, y2), &f.sqr(&z3));
        let y3 = f.add(&f.mul(&f.add(&e_t, &z3), &f_t), &g_t);
        LdPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Converts back to affine: `x = X/Z`, `y = Y/Z^2` — the one inversion
    /// per scalar multiplication.
    pub fn ld_to_affine(&self, p: &LdPoint) -> AffinePoint2m {
        let f = &self.field;
        if p.z.is_zero() {
            return AffinePoint2m::Infinity;
        }
        let zinv = f.inv(&p.z).expect("z != 0");
        let x = f.mul(&p.x, &zinv);
        let y = f.mul(&p.y, &f.sqr(&zinv));
        AffinePoint2m::new(x, y)
    }

    /// The x-coordinate bit-vector interpreted as an integer — what ECDSA
    /// reduces modulo the group order to form `r` (§4.1).
    pub fn x_as_integer(&self, p: &AffinePoint2m) -> Option<Mp> {
        p.x().map(|x| x.to_mp())
    }

    /// Solves `z^2 + z = c` by the half-trace (odd `m` only), returning
    /// `None` when no solution exists. Used to construct points from
    /// x-coordinates when deriving Koblitz generators.
    pub fn solve_quadratic(&self, c: &F2mElement) -> Option<F2mElement> {
        let f = &self.field;
        assert!(f.m() % 2 == 1, "half-trace needs odd m");
        let mut h = *c;
        for _ in 0..(f.m() - 1) / 2 {
            h = f.add(&f.sqr(&f.sqr(&h)), c);
        }
        // verify
        if f.add(&f.sqr(&h), &h) == *c {
            Some(h)
        } else {
            None
        }
    }

    /// Finds a point with small x by solving the curve equation; used to
    /// derive generators for Koblitz curves. Returns the first point found
    /// scanning `x = start, start+1, ...` (as integer bit patterns).
    pub fn find_point(&self, start: u64) -> AffinePoint2m {
        let f = &self.field;
        let mut xi = start.max(1);
        loop {
            let x = f.from_mp(&Mp::from_u64(xi));
            if !x.is_zero() {
                // y = x z with z^2 + z = x + a + b / x^2
                let xinv2 = f.sqr(&f.inv(&x).expect("x != 0"));
                let c = f.add(&f.add(&x, &self.a), &f.mul(&self.b, &xinv2));
                if let Some(z) = self.solve_quadratic(&c) {
                    let y = f.mul(&x, &z);
                    let p = AffinePoint2m::new(x, y);
                    debug_assert!(self.is_on_curve(&p));
                    return p;
                }
            }
            xi += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_mpmath::nist::NistBinary;

    /// A tiny binary curve for exhaustive checks:
    /// y^2 + xy = x^3 + x^2 + 1 over GF(2^7), f = x^7 + x + 1.
    fn tiny() -> BinaryCurve {
        tiny_with(1, 1)
    }

    /// y^2 + xy = x^3 + a x^2 + b over the same GF(2^7), with `a` and
    /// `b` given as bit patterns, on a generator found by scanning x.
    fn tiny_with(a: u64, b: u64) -> BinaryCurve {
        let f = BinaryField::new("GF(2^7)", 7, &[1, 0]);
        let (a, b) = (f.from_mp(&Mp::from_u64(a)), f.from_mp(&Mp::from_u64(b)));
        let g = BinaryCurve::new(f.clone(), a, b, f.one(), f.one()).find_point(1);
        let (gx, gy) = (*g.x().unwrap(), *g.y().unwrap());
        BinaryCurve::new(f, a, b, gx, gy)
    }

    /// Walks `G, 2G + G, …` in LD and affine coordinates side by side.
    fn assert_ld_matches_affine(c: &BinaryCurve, steps: usize) {
        assert!(c.is_on_curve(&c.generator()));
        let g = c.generator();
        let mut aff = g.clone();
        let mut ld = c.ld_from_affine(&g);
        for _ in 0..steps {
            aff = c.affine_double(&aff);
            ld = c.ld_double(&ld);
            assert_eq!(c.ld_to_affine(&ld), aff);
            aff = c.affine_add(&aff, &g);
            ld = c.ld_add_affine(&ld, &g);
            assert_eq!(c.ld_to_affine(&ld), aff);
        }
    }

    #[test]
    fn tiny_generator_on_curve() {
        let c = tiny();
        assert!(c.is_on_curve(&c.generator()));
    }

    #[test]
    fn tiny_group_laws_exhaustive() {
        let c = tiny();
        let f = c.field().clone();
        let mut points = vec![AffinePoint2m::Infinity];
        for x in 0..128u64 {
            for y in 0..128u64 {
                let p =
                    AffinePoint2m::new(f.from_mp(&Mp::from_u64(x)), f.from_mp(&Mp::from_u64(y)));
                if c.is_on_curve(&p) {
                    points.push(p);
                }
            }
        }
        let n = points.len() as i64;
        // Hasse: |#E - 129| <= 2*sqrt(128) ~ 22.6
        assert!((n - 129).abs() <= 22, "order {n} violates Hasse bound");
        for p in points.iter().step_by(5) {
            for q in points.iter().step_by(9) {
                let s1 = c.affine_add(p, q);
                assert!(c.is_on_curve(&s1));
                assert_eq!(s1, c.affine_add(q, p));
            }
        }
        for p in &points {
            assert_eq!(&c.affine_add(p, &AffinePoint2m::Infinity), p);
            assert!(c.affine_add(p, &c.neg(p)).is_infinity());
        }
    }

    #[test]
    fn ld_matches_affine_tiny() {
        // a = 0 and a = 1 take the multiply-free paths (b = 1 too); the
        // other coefficients take the general multiply.
        for (a, b) in [
            (0, 1),
            (1, 1),
            (0b101, 1),
            (0, 0b11),
            (1, 0b1011),
            (0b110, 0b1001),
        ] {
            let c = tiny_with(a, b);
            assert!(
                matches!(
                    (a, c.a_kind),
                    (0, Coeff::Zero) | (1, Coeff::One) | (2.., Coeff::Other)
                ),
                "a = {a:#b} classified {:?}",
                c.a_kind
            );
            assert_ld_matches_affine(&c, 40);
        }
    }

    #[test]
    fn ld_matches_affine_b163() {
        let f = BinaryField::nist(NistBinary::B163);
        let x3 = f.from_mp(&Mp::from_u64(0b1000));
        for (a, b) in [(f.one(), f.one()), (f.zero(), f.one()), (f.one(), x3)] {
            let probe = BinaryCurve::new(f.clone(), a, b, f.one(), f.one());
            let g = probe.find_point(2);
            let c = BinaryCurve::new(f.clone(), a, b, *g.x().unwrap(), *g.y().unwrap());
            assert_ld_matches_affine(&c, 6);
        }
    }

    #[test]
    fn ld_special_cases() {
        let c = tiny();
        let g = c.generator();
        let s = c.ld_add_affine(&c.ld_identity(), &g);
        assert_eq!(c.ld_to_affine(&s), g);
        let lg = c.ld_from_affine(&g);
        let d = c.ld_add_affine(&lg, &g);
        assert_eq!(c.ld_to_affine(&d), c.affine_double(&g));
        let z = c.ld_add_affine(&lg, &c.neg(&g));
        assert!(c.ld_is_identity(&z));
    }

    #[test]
    fn half_trace_solves_quadratic() {
        let c = tiny();
        let f = c.field();
        for v in 1..60u64 {
            let cv = f.from_mp(&Mp::from_u64(v));
            if let Some(z) = c.solve_quadratic(&cv) {
                assert_eq!(f.add(&f.sqr(&z), &z), cv);
            }
        }
    }
}
