//! Elliptic-curve point arithmetic over prime fields GF(p).
//!
//! Curves are short Weierstraß, `y^2 = x^3 + ax + b` (eq. 2.1). Point
//! doubling uses **Jacobian coordinates** and point addition adds an
//! *affine* point to a Jacobian point — the mixed Jacobian–affine system
//! the paper selects because it minimizes field operations for GF(p)
//! curves (§4.1). The projective mapping is
//! `(X, Y, Z) -> (X/Z^2, Y/Z^3)`, with the point at infinity `(1, 1, 0)`.
//!
//! Affine formulas (eq. 2.3–2.6) are implemented too; they are the
//! easily-auditable reference that the projective formulas are tested
//! against.

use ule_mpmath::fp::{FpElement, PrimeField};
use ule_mpmath::mp::Mp;

/// An affine point on a prime curve, or the point at infinity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AffinePoint {
    /// The group identity (the point at infinity).
    Infinity,
    /// A finite point `(x, y)`.
    Point {
        /// x-coordinate.
        x: FpElement,
        /// y-coordinate.
        y: FpElement,
    },
}

impl AffinePoint {
    /// Convenience constructor for a finite point.
    pub fn new(x: FpElement, y: FpElement) -> Self {
        AffinePoint::Point { x, y }
    }

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, AffinePoint::Infinity)
    }

    /// The x-coordinate, or `None` at infinity.
    pub fn x(&self) -> Option<&FpElement> {
        match self {
            AffinePoint::Infinity => None,
            AffinePoint::Point { x, .. } => Some(x),
        }
    }

    /// The y-coordinate, or `None` at infinity.
    pub fn y(&self) -> Option<&FpElement> {
        match self {
            AffinePoint::Infinity => None,
            AffinePoint::Point { y, .. } => Some(y),
        }
    }
}

/// A Jacobian-coordinate point; `Z = 0` encodes the point at infinity.
#[derive(Clone, Debug)]
pub struct JacobianPoint {
    /// Projective X.
    pub x: FpElement,
    /// Projective Y.
    pub y: FpElement,
    /// Projective Z (`0` at infinity).
    pub z: FpElement,
}

/// A short-Weierstraß curve over a prime field together with its base
/// point.
#[derive(Clone, Debug)]
pub struct PrimeCurve {
    field: PrimeField,
    a: FpElement,
    b: FpElement,
    gx: FpElement,
    gy: FpElement,
    /// Whether `a = p - 3`, enabling the cheaper doubling used by every
    /// NIST prime curve.
    a_is_minus3: bool,
}

impl PrimeCurve {
    /// Creates a curve. The discriminant condition
    /// `4a^3 + 27b^2 != 0` (eq. 2.1) is checked.
    ///
    /// # Panics
    ///
    /// Panics if the discriminant is zero.
    pub fn new(
        field: PrimeField,
        a: FpElement,
        b: FpElement,
        gx: FpElement,
        gy: FpElement,
    ) -> Self {
        let four_a3 = field.mul_u64(&field.mul(&a, &field.sqr(&a)), 4);
        let twenty7_b2 = field.mul_u64(&field.sqr(&b), 27);
        assert!(
            !field.add(&four_a3, &twenty7_b2).is_zero(),
            "singular curve (zero discriminant)"
        );
        let minus3 = field.sub(&field.zero(), &field.from_u64(3));
        let a_is_minus3 = a == minus3;
        PrimeCurve {
            field,
            a,
            b,
            gx,
            gy,
            a_is_minus3,
        }
    }

    /// The underlying field context.
    pub fn field(&self) -> &PrimeField {
        &self.field
    }

    /// Curve coefficient `a`.
    pub fn a(&self) -> &FpElement {
        &self.a
    }

    /// Curve coefficient `b`.
    pub fn b(&self) -> &FpElement {
        &self.b
    }

    /// The base point `G`.
    pub fn generator(&self) -> AffinePoint {
        AffinePoint::new(self.gx, self.gy)
    }

    /// Checks the curve equation `y^2 = x^3 + ax + b` (infinity is on the
    /// curve).
    pub fn is_on_curve(&self, p: &AffinePoint) -> bool {
        match p {
            AffinePoint::Infinity => true,
            AffinePoint::Point { x, y } => {
                let f = &self.field;
                let lhs = f.sqr(y);
                let rhs = f.add(&f.add(&f.mul(x, &f.sqr(x)), &f.mul(&self.a, x)), &self.b);
                lhs == rhs
            }
        }
    }

    /// `-P` (the x-axis reflection, §2.1.5).
    pub fn neg(&self, p: &AffinePoint) -> AffinePoint {
        match p {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => AffinePoint::new(*x, self.field.neg(y)),
        }
    }

    /// Affine point addition via the chord rule (eq. 2.3–2.4); handles all
    /// special cases. Costs one field inversion — which is exactly why the
    /// scalar-multiplication inner loops use projective coordinates
    /// instead.
    pub fn affine_add(&self, p: &AffinePoint, q: &AffinePoint) -> AffinePoint {
        let f = &self.field;
        match (p, q) {
            (AffinePoint::Infinity, _) => q.clone(),
            (_, AffinePoint::Infinity) => p.clone(),
            (AffinePoint::Point { x: xa, y: ya }, AffinePoint::Point { x: xb, y: yb }) => {
                if xa == xb {
                    if f.add(ya, yb).is_zero() {
                        return AffinePoint::Infinity;
                    }
                    return self.affine_double(p);
                }
                let lambda = f.mul(&f.sub(yb, ya), &f.inv(&f.sub(xb, xa)).expect("xa != xb"));
                let xc = f.sub(&f.sub(&f.sqr(&lambda), xa), xb);
                let yc = f.sub(&f.mul(&lambda, &f.sub(xa, &xc)), ya);
                AffinePoint::new(xc, yc)
            }
        }
    }

    /// Affine doubling via the tangent rule (eq. 2.5–2.6).
    pub fn affine_double(&self, p: &AffinePoint) -> AffinePoint {
        let f = &self.field;
        match p {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => {
                if y.is_zero() {
                    return AffinePoint::Infinity;
                }
                let num = f.add(&f.mul_u64(&f.sqr(x), 3), &self.a);
                let lambda = f.mul(&num, &f.inv(&f.dbl(y)).expect("y != 0"));
                let xc = f.sub(&f.sqr(&lambda), &f.dbl(x));
                let yc = f.sub(&f.mul(&lambda, &f.sub(x, &xc)), y);
                AffinePoint::new(xc, yc)
            }
        }
    }

    /// The Jacobian identity `(1, 1, 0)`.
    pub fn jac_identity(&self) -> JacobianPoint {
        JacobianPoint {
            x: self.field.one(),
            y: self.field.one(),
            z: self.field.zero(),
        }
    }

    /// Returns `true` for the identity.
    pub fn jac_is_identity(&self, p: &JacobianPoint) -> bool {
        p.z.is_zero()
    }

    /// Lifts an affine point into Jacobian coordinates (`Z = 1`).
    pub fn jac_from_affine(&self, p: &AffinePoint) -> JacobianPoint {
        match p {
            AffinePoint::Infinity => self.jac_identity(),
            AffinePoint::Point { x, y } => JacobianPoint {
                x: *x,
                y: *y,
                z: self.field.one(),
            },
        }
    }

    /// Jacobian point doubling — inversion-free (§2.1.5). Uses the `a=-3`
    /// shortcut `E = 3(X - Z^2)(X + Z^2)` when applicable (all NIST prime
    /// curves), the general `3X^2 + aZ^4` form otherwise.
    pub fn jac_double(&self, p: &JacobianPoint) -> JacobianPoint {
        let f = &self.field;
        if p.z.is_zero() || p.y.is_zero() {
            return self.jac_identity();
        }
        let ysq = f.sqr(&p.y);
        let s = f.mul_u64(&f.mul(&p.x, &ysq), 4);
        let m = if self.a_is_minus3 {
            let zsq = f.sqr(&p.z);
            f.mul_u64(&f.mul(&f.sub(&p.x, &zsq), &f.add(&p.x, &zsq)), 3)
        } else {
            let z4 = f.sqr(&f.sqr(&p.z));
            f.add(&f.mul_u64(&f.sqr(&p.x), 3), &f.mul(&self.a, &z4))
        };
        let x3 = f.sub(&f.sqr(&m), &f.dbl(&s));
        let y3 = f.sub(&f.mul(&m, &f.sub(&s, &x3)), &f.mul_u64(&f.sqr(&ysq), 8));
        let z3 = f.mul(&f.dbl(&p.y), &p.z);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed Jacobian + affine addition — the workhorse of the paper's
    /// scalar multiplication (§4.1: "when we perform a point addition, we
    /// actually add an affine point to a Jacobian point").
    pub fn jac_add_affine(&self, p: &JacobianPoint, q: &AffinePoint) -> JacobianPoint {
        let f = &self.field;
        let (x2, y2) = match q {
            AffinePoint::Infinity => return p.clone(),
            AffinePoint::Point { x, y } => (x, y),
        };
        if p.z.is_zero() {
            return JacobianPoint {
                x: *x2,
                y: *y2,
                z: f.one(),
            };
        }
        let z1z1 = f.sqr(&p.z);
        let u2 = f.mul(x2, &z1z1);
        let s2 = f.mul(y2, &f.mul(&z1z1, &p.z));
        let h = f.sub(&u2, &p.x);
        let r = f.sub(&s2, &p.y);
        if h.is_zero() {
            if r.is_zero() {
                return self.jac_double(p);
            }
            return self.jac_identity();
        }
        let hh = f.sqr(&h);
        let hhh = f.mul(&h, &hh);
        let v = f.mul(&p.x, &hh);
        let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.dbl(&v));
        let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&p.y, &hhh));
        let z3 = f.mul(&p.z, &h);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Converts back to affine; the *one* field inversion a scalar
    /// multiplication pays (§2.1.5).
    pub fn jac_to_affine(&self, p: &JacobianPoint) -> AffinePoint {
        let f = &self.field;
        if p.z.is_zero() {
            return AffinePoint::Infinity;
        }
        let zinv = f.inv(&p.z).expect("z != 0");
        let zinv2 = f.sqr(&zinv);
        let x = f.mul(&p.x, &zinv2);
        let y = f.mul(&p.y, &f.mul(&zinv2, &zinv));
        AffinePoint::new(x, y)
    }

    /// The x-coordinate of a point interpreted as an integer — what ECDSA
    /// reduces modulo the group order to form `r`.
    pub fn x_as_integer(&self, p: &AffinePoint) -> Option<Mp> {
        p.x().map(|x| x.to_mp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_mpmath::nist::NistPrime;

    /// A tiny curve for exhaustive checks: y^2 = x^3 + 2x + 3 over GF(97).
    /// 97 is prime; small enough to enumerate.
    fn tiny() -> PrimeCurve {
        let f = PrimeField::new("GF(97)", &Mp::from_u64(97));
        let a = f.from_u64(2);
        let b = f.from_u64(3);
        // (0, 10): 100 mod 97 = 3 = 0 + 0 + 3 ✓
        let gx = f.from_u64(0);
        let gy = f.from_u64(10);
        PrimeCurve::new(f, a, b, gx, gy)
    }

    #[test]
    fn tiny_generator_on_curve() {
        let c = tiny();
        assert!(c.is_on_curve(&c.generator()));
        assert!(c.is_on_curve(&AffinePoint::Infinity));
    }

    #[test]
    fn tiny_group_laws_exhaustive() {
        let c = tiny();
        // Collect all points by brute force.
        let f = c.field().clone();
        let mut points = vec![AffinePoint::Infinity];
        for x in 0..97u64 {
            for y in 0..97u64 {
                let p = AffinePoint::new(f.from_u64(x), f.from_u64(y));
                if c.is_on_curve(&p) {
                    points.push(p);
                }
            }
        }
        // Group order must satisfy the Hasse bound: |#E - 98| <= 2*sqrt(97).
        let n = points.len() as i64;
        assert!((n - 98).abs() <= 19, "order {n} violates Hasse bound");
        // Closure and commutativity on a sample.
        for p in points.iter().step_by(7) {
            for q in points.iter().step_by(11) {
                let s1 = c.affine_add(p, q);
                let s2 = c.affine_add(q, p);
                assert!(c.is_on_curve(&s1));
                assert_eq!(s1, s2);
            }
        }
        // Identity and inverse for every point.
        for p in &points {
            assert_eq!(&c.affine_add(p, &AffinePoint::Infinity), p);
            assert!(c.affine_add(p, &c.neg(p)).is_infinity());
        }
    }

    #[test]
    fn jacobian_matches_affine_tiny() {
        let c = tiny();
        let g = c.generator();
        let mut aff = g.clone();
        let mut jac = c.jac_from_affine(&g);
        for _ in 0..25 {
            aff = c.affine_double(&aff);
            jac = c.jac_double(&jac);
            assert_eq!(c.jac_to_affine(&jac), aff);
            aff = c.affine_add(&aff, &g);
            jac = c.jac_add_affine(&jac, &g);
            assert_eq!(c.jac_to_affine(&jac), aff);
        }
    }

    #[test]
    fn jacobian_matches_affine_p192() {
        let f = PrimeField::nist(NistPrime::P192);
        let a = f.sub(&f.zero(), &f.from_u64(3));
        let b =
            f.from_mp(&Mp::from_hex("64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1").unwrap());
        let gx =
            f.from_mp(&Mp::from_hex("188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012").unwrap());
        let gy =
            f.from_mp(&Mp::from_hex("07192b95ffc8da78631011ed6b24cdd573f977a11e794811").unwrap());
        let c = PrimeCurve::new(f, a, b, gx, gy);
        let g = c.generator();
        assert!(c.is_on_curve(&g), "NIST P-192 generator not on curve");
        let mut aff = g.clone();
        let mut jac = c.jac_from_affine(&g);
        for _ in 0..8 {
            aff = c.affine_double(&aff);
            jac = c.jac_double(&jac);
            assert_eq!(c.jac_to_affine(&jac), aff);
            aff = c.affine_add(&aff, &g);
            jac = c.jac_add_affine(&jac, &g);
            assert_eq!(c.jac_to_affine(&jac), aff);
        }
        assert!(c.is_on_curve(&aff));
    }

    #[test]
    fn mixed_add_special_cases() {
        let c = tiny();
        let g = c.generator();
        // identity + G
        let s = c.jac_add_affine(&c.jac_identity(), &g);
        assert_eq!(c.jac_to_affine(&s), g);
        // G + G triggers the doubling path
        let jg = c.jac_from_affine(&g);
        let d = c.jac_add_affine(&jg, &g);
        assert_eq!(c.jac_to_affine(&d), c.affine_double(&g));
        // G + (-G) is the identity
        let neg = c.neg(&g);
        let z = c.jac_add_affine(&jg, &neg);
        assert!(c.jac_is_identity(&z));
    }
}
