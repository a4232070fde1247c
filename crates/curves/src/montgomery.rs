//! RFC 7748 Montgomery-ladder x-coordinate Diffie–Hellman (X25519/X448).
//!
//! Montgomery curves `v^2 = u^3 + A u^2 + u` admit scalar
//! multiplication on the `u`-coordinate alone via the Montgomery
//! ladder: every bit of the scalar costs exactly the same fixed
//! pattern of field operations (5 mul + 4 sqr + 1 small-constant mul +
//! 8 add/sub), with a **conditional swap** selecting which of the two
//! running points is doubled. This is the *constant-pattern* contract
//! the simulated kernels reproduce:
//!
//! * the ladder executes exactly `bits` iterations regardless of the
//!   scalar value (255 for X25519, 448 for X448),
//! * the cswap is a masked word-level XOR swap
//!   (`mask = 0 − bit; t = mask & (a ^ b); a ^= t; b ^= t`), never a
//!   branch — this module mirrors that exact semantics on host so the
//!   memory-access pattern argument in DESIGN.md is checked, not
//!   asserted,
//! * scalars are **clamped** before use (RFC 7748 §5): X25519 clears
//!   the 3 low bits and bit 255 and sets bit 254; X448 clears the 2
//!   low bits and sets bit 447 — so the iteration count is truly fixed.
//!
//! The all-zero shared secret (peer fed a low-order point) is rejected
//! at this layer, per RFC 7748 §6.1.

use crate::params::CurveId;
use ule_mpmath::fp::{FpElement, PrimeField};
use ule_mpmath::mp::Mp;
use ule_mpmath::xprime::XPrime;
use ule_mpmath::Limb;

/// A Montgomery curve in the RFC 7748 x-only model.
#[derive(Clone, Debug)]
pub struct MontCurve {
    prime: XPrime,
    field: PrimeField,
    a24: FpElement,
    base_u: FpElement,
}

impl MontCurve {
    /// Builds curve25519 or curve448 over its ladder prime.
    pub fn new(prime: XPrime) -> Self {
        let field = PrimeField::new(prime.name(), &prime.modulus());
        let a24 = field.from_u64(prime.a24());
        let base_u = field.from_u64(match prime {
            XPrime::P25519 => 9,
            XPrime::P448 => 5,
        });
        MontCurve {
            prime,
            field,
            a24,
            base_u,
        }
    }

    /// The underlying ladder prime.
    pub fn prime(&self) -> XPrime {
        self.prime
    }

    /// The base field GF(p).
    pub fn field(&self) -> &PrimeField {
        &self.field
    }

    /// The curve `A` coefficient (486662 / 156326).
    pub fn coeff_a(&self) -> u64 {
        self.prime.a24() * 4 + 2
    }

    /// The standard base point's `u`-coordinate (9 / 5).
    pub fn base_u(&self) -> &FpElement {
        &self.base_u
    }

    /// Scalar / coordinate encoding length in bytes (32 / 56).
    pub fn coord_bytes(&self) -> usize {
        match self.prime {
            XPrime::P25519 => 32,
            XPrime::P448 => 56,
        }
    }

    /// Fixed ladder iteration count (255 / 448) — every scalar
    /// multiplication runs exactly this many ladder steps.
    pub fn ladder_bits(&self) -> usize {
        self.prime.bits()
    }

    /// RFC 7748 §5 scalar clamping on the little-endian byte encoding.
    ///
    /// # Panics
    ///
    /// Panics unless `scalar` is exactly [`Self::coord_bytes`] long.
    pub fn clamp(&self, scalar: &[u8]) -> Mp {
        assert_eq!(scalar.len(), self.coord_bytes(), "scalar length");
        let mut b = scalar.to_vec();
        match self.prime {
            XPrime::P25519 => {
                b[0] &= 0xf8;
                b[31] &= 0x7f;
                b[31] |= 0x40;
            }
            XPrime::P448 => {
                b[0] &= 0xfc;
                b[55] |= 0x80;
            }
        }
        mp_from_le_bytes(&b)
    }

    /// RFC 7748 §5 `u`-coordinate decoding: little-endian; X25519 masks
    /// the top bit of the final byte; non-canonical values (≥ p) are
    /// accepted and reduced by the field arithmetic.
    ///
    /// # Panics
    ///
    /// Panics unless `u` is exactly [`Self::coord_bytes`] long.
    pub fn decode_u(&self, u: &[u8]) -> FpElement {
        assert_eq!(u.len(), self.coord_bytes(), "u-coordinate length");
        let mut b = u.to_vec();
        if self.prime == XPrime::P25519 {
            b[31] &= 0x7f;
        }
        self.field.from_mp(&mp_from_le_bytes(&b))
    }

    /// Encodes a field element as the RFC little-endian byte string.
    pub fn encode_u(&self, u: &FpElement) -> Vec<u8> {
        let mut out = vec![0u8; self.coord_bytes()];
        for (i, limb) in u.limbs().iter().enumerate() {
            for j in 0..4 {
                let idx = 4 * i + j;
                if idx < out.len() {
                    out[idx] = (limb >> (8 * j)) as u8;
                }
            }
        }
        out
    }

    /// The Montgomery ladder on an **already-clamped** scalar: exactly
    /// [`Self::ladder_bits`] constant-pattern steps, masked-XOR cswap,
    /// final inversion by Fermat (`z^(p-2)`).
    pub fn ladder(&self, k: &Mp, u: &FpElement) -> FpElement {
        let f = &self.field;
        let x1 = *u;
        let mut x2 = f.one();
        let mut z2 = f.zero();
        let mut x3 = *u;
        let mut z3 = f.one();
        let mut swap = false;
        for t in (0..self.ladder_bits()).rev() {
            let kt = k.bit(t);
            swap ^= kt;
            cswap(f, swap, &mut x2, &mut x3);
            cswap(f, swap, &mut z2, &mut z3);
            swap = kt;
            // One ladder step (RFC 7748 §5): 5M + 4S + 1 small-constant
            // multiplication + 8 additions/subtractions.
            let a = f.add(&x2, &z2);
            let aa = f.sqr(&a);
            let b = f.sub(&x2, &z2);
            let bb = f.sqr(&b);
            let e = f.sub(&aa, &bb);
            let c = f.add(&x3, &z3);
            let d = f.sub(&x3, &z3);
            let da = f.mul(&d, &a);
            let cb = f.mul(&c, &b);
            let s = f.add(&da, &cb);
            x3 = f.sqr(&s);
            let diff = f.sub(&da, &cb);
            z3 = f.mul(&x1, &f.sqr(&diff));
            x2 = f.mul(&aa, &bb);
            z2 = f.mul(&e, &f.add(&aa, &f.mul(&self.a24, &e)));
        }
        cswap(f, swap, &mut x2, &mut x3);
        cswap(f, swap, &mut z2, &mut z3);
        // RFC semantics: x2 * z2^(p-2); for a low-order input z2 may be
        // zero, and 0^(p-2) = 0 yields the all-zero output the caller
        // rejects (no invertibility check, exactly like the kernel).
        let exp = self.prime.modulus().sub(&Mp::from_u64(2));
        f.mul(&x2, &f.pow(&z2, &exp))
    }

    /// The full RFC 7748 X-function on byte strings: clamp, decode,
    /// ladder, encode. Returns `None` when the shared secret is the
    /// all-zero string (peer's point was low-order) — the §6.1
    /// rejection rule.
    pub fn xdh(&self, scalar: &[u8], u: &[u8]) -> Option<Vec<u8>> {
        let k = self.clamp(scalar);
        let out = self.ladder(&k, &self.decode_u(u));
        if out.is_zero() {
            return None;
        }
        Some(self.encode_u(&out))
    }

    /// Checks that `u` is the abscissa of a point on the curve (or its
    /// quadratic twist, which the x-only ladder also handles): used by
    /// the parameter self-validation to confirm the base point lies on
    /// the *curve* — `u^3 + A u^2 + u` must be a quadratic residue.
    pub fn u_on_curve(&self, u: &FpElement) -> bool {
        let f = &self.field;
        let a = f.from_u64(self.coeff_a());
        let u2 = f.sqr(u);
        let rhs = f.add(&f.add(&f.mul(&u2, u), &f.mul(&a, &u2)), u);
        if rhs.is_zero() {
            return true;
        }
        // Euler's criterion: rhs^((p-1)/2) == 1.
        let exp = self.prime.modulus().sub(&Mp::one()).shr(1);
        f.pow(&rhs, &exp) == f.one()
    }

    /// The [`CurveId`] this curve backs.
    pub fn id(&self) -> CurveId {
        match self.prime {
            XPrime::P25519 => CurveId::X25519,
            XPrime::P448 => CurveId::X448,
        }
    }
}

/// Masked word-level conditional swap — the exact operation the
/// simulated kernel performs (`mask = 0 − bit`, XOR-select), executed
/// on host limbs so the host reference shares the kernel's contract
/// rather than merely its result.
fn cswap(f: &PrimeField, bit: bool, a: &mut FpElement, b: &mut FpElement) {
    let mask: Limb = (bit as Limb).wrapping_neg();
    let mut al: Vec<Limb> = a.limbs().to_vec();
    let mut bl: Vec<Limb> = b.limbs().to_vec();
    for (x, y) in al.iter_mut().zip(bl.iter_mut()) {
        let t = mask & (*x ^ *y);
        *x ^= t;
        *y ^= t;
    }
    *a = f.from_limbs(&al);
    *b = f.from_limbs(&bl);
}

/// Little-endian byte string to multi-precision integer.
fn mp_from_le_bytes(b: &[u8]) -> Mp {
    let mut limbs = vec![0 as Limb; b.len().div_ceil(4)];
    for (i, &byte) in b.iter().enumerate() {
        limbs[i / 4] |= (byte as Limb) << (8 * (i % 4));
    }
    Mp::from_limbs(&limbs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn to_hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// RFC 7748's public key: the X-function on the standard base point.
    fn public_key(c: &MontCurve, scalar: &[u8]) -> Vec<u8> {
        c.encode_u(&c.ladder(&c.clamp(scalar), c.base_u()))
    }

    #[test]
    fn x25519_rfc7748_vector_1() {
        let c = MontCurve::new(XPrime::P25519);
        let out = c
            .xdh(
                &hex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
                &hex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
            )
            .unwrap();
        assert_eq!(
            to_hex(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn x25519_rfc7748_vector_2_masks_high_bit() {
        // The input u has its top bit set; decode must mask it.
        let c = MontCurve::new(XPrime::P25519);
        let out = c
            .xdh(
                &hex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
                &hex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
            )
            .unwrap();
        assert_eq!(
            to_hex(&out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn x448_rfc7748_vector_1() {
        let c = MontCurve::new(XPrime::P448);
        let out = c
            .xdh(
                &hex("3d262fddf9ec8e88495266fea19a34d28882acef045104d0d1aae121\
                     700a779c984c24f8cdd78fbff44943eba368f54b29259a4f1c600ad3"),
                &hex("06fce640fa3487bfda5f6cf2d5263f8aad88334cbd07437f020f08f9\
                     814dc031ddbdc38c19c6da2583fa5429db94ada18aa7a7fb4ef8a086"),
            )
            .unwrap();
        assert_eq!(
            to_hex(&out),
            "ce3e4ff95a60dc6697da1db1d85e6afbdf79b50a2412d7546d5f239f\
             e14fbaadeb445fc66a01b0779d98223961111e21766282f73dd96b6f"
        );
    }

    #[test]
    fn x448_rfc7748_vector_2() {
        let c = MontCurve::new(XPrime::P448);
        let out = c
            .xdh(
                &hex("203d494428b8399352665ddca42f9de8fef600908e0d461cb021f8c5\
                     38345dd77c3e4806e25f46d3315c44e0a5b4371282dd2c8d5be3095f"),
                &hex("0fbcc2f993cd56d3305b0b7d9e55d4c1a8fb5dbb52f8e9a1e9b6201b\
                     165d015894e56c4d3570bee52fe205e28a78b91cdfbde71ce8d157db"),
            )
            .unwrap();
        assert_eq!(
            to_hex(&out),
            "884a02576239ff7a2f2f63b2db6a9ff37047ac13568e1e30fe63c4a7\
             ad1b3ee3a5700df34321d62077e63633c575c1c954514e99da7c179d"
        );
    }

    #[test]
    fn x25519_iterated_ladder() {
        // RFC 7748 §5.2: k = u = encode(9); iterate k' = X(k, u), u' = k.
        let c = MontCurve::new(XPrime::P25519);
        let mut k = c.encode_u(c.base_u());
        let mut u = k.clone();
        for i in 1..=1000 {
            let next = c.xdh(&k, &u).unwrap();
            u = k;
            k = next;
            if i == 1 {
                assert_eq!(
                    to_hex(&k),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            to_hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn x448_iterated_ladder_once() {
        // The full 1000-iteration X448 loop is seconds of host time; the
        // single-iteration pin plus the §5.2/§6.2 vectors above already
        // cross three independent published constants.
        let c = MontCurve::new(XPrime::P448);
        let k = c.encode_u(c.base_u());
        let out = c.xdh(&k, &k).unwrap();
        assert_eq!(
            to_hex(&out),
            "3f482c8a9f19b01e6c46ee9711d9dc14fd4bf67af30765c2ae2b846a\
             4d23a8cd0db897086239492caf350b51f833868b9bc2b3bca9cf4113"
        );
    }

    #[test]
    fn x25519_diffie_hellman_agreement() {
        // RFC 7748 §6.1.
        let c = MontCurve::new(XPrime::P25519);
        let a_priv = hex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let b_priv = hex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let a_pub = public_key(&c, &a_priv);
        let b_pub = public_key(&c, &b_priv);
        assert_eq!(
            to_hex(&a_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            to_hex(&b_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let k_ab = c.xdh(&a_priv, &b_pub).unwrap();
        let k_ba = c.xdh(&b_priv, &a_pub).unwrap();
        assert_eq!(k_ab, k_ba);
        assert_eq!(
            to_hex(&k_ab),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn x448_diffie_hellman_agreement() {
        // RFC 7748 §6.2.
        let c = MontCurve::new(XPrime::P448);
        let a_priv = hex("9a8f4925d1519f5775cf46b04b5800d4ee9ee8bae8bc5565d498c28d\
             d9c9baf574a9419744897391006382a6f127ab1d9ac2d8c0a598726b");
        let b_priv = hex("1c306a7ac2a0e2e0990b294470cba339e6453772b075811d8fad0d1d\
             6927c120bb5ee8972b0d3e21374c9c921b09d1b0366f10b65173992d");
        let a_pub = public_key(&c, &a_priv);
        let b_pub = public_key(&c, &b_priv);
        assert_eq!(
            to_hex(&a_pub),
            "9b08f7cc31b7e3e67d22d5aea121074a273bd2b83de09c63faa73d2c\
             22c5d9bbc836647241d953d40c5b12da88120d53177f80e532c41fa0"
        );
        assert_eq!(
            to_hex(&b_pub),
            "3eb7a829b0cd20f5bcfc0b599b6feccf6da4627107bdb0d4f345b430\
             27d8b972fc3e34fb4232a13ca706dcb57aec3dae07bdc1c67bf33609"
        );
        let k_ab = c.xdh(&a_priv, &b_pub).unwrap();
        let k_ba = c.xdh(&b_priv, &a_pub).unwrap();
        assert_eq!(k_ab, k_ba);
        assert_eq!(
            to_hex(&k_ab),
            "07fff4181ac6cc95ec1c16a94a0f74d12da232ce40a77552281d282b\
             b60c0b56fd2464c335543936521c24403085d59a449a5037514a879d"
        );
    }

    #[test]
    fn all_zero_shared_secret_rejected() {
        // u = 0 is a low-order (order-2) point: the ladder output is the
        // all-zero string, which §6.1 requires rejecting. u = 1 (order 4
        // on curve25519) likewise collapses to zero.
        for p in XPrime::ALL {
            let c = MontCurve::new(p);
            let scalar = vec![0x41u8; c.coord_bytes()];
            let zero_u = vec![0u8; c.coord_bytes()];
            assert_eq!(c.xdh(&scalar, &zero_u), None, "{}", p.name());
        }
        let c = MontCurve::new(XPrime::P25519);
        let mut one_u = vec![0u8; 32];
        one_u[0] = 1;
        assert_eq!(c.xdh(&[0x41u8; 32], &one_u), None);
    }

    #[test]
    fn clamp_semantics() {
        let c25519 = MontCurve::new(XPrime::P25519);
        let k = c25519.clamp(&[0xffu8; 32]);
        assert!(!k.bit(0) && !k.bit(1) && !k.bit(2), "low bits cleared");
        assert!(!k.bit(255), "top bit cleared");
        assert!(k.bit(254), "bit 254 set");
        let k0 = c25519.clamp(&[0u8; 32]);
        assert!(k0.bit(254), "bit 254 set even for the zero scalar");
        let c448 = MontCurve::new(XPrime::P448);
        let k = c448.clamp(&[0xffu8; 56]);
        assert!(!k.bit(0) && !k.bit(1), "low bits cleared");
        assert!(k.bit(447), "top bit set");
    }

    #[test]
    fn base_points_on_curve() {
        for p in XPrime::ALL {
            let c = MontCurve::new(p);
            assert!(c.u_on_curve(c.base_u()), "{}", p.name());
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for p in XPrime::ALL {
            let c = MontCurve::new(p);
            let x = c.field().from_u64(0xdead_beef_cafe);
            assert_eq!(c.decode_u(&c.encode_u(&x)), x, "{}", p.name());
        }
    }
}
