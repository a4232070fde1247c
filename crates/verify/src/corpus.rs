//! Corpus generation: seeded random cases, the deterministic
//! adversarial edge set, and bit-flipped negative cases. Every case is
//! a pure function of `(campaign seed, curve, case label)`, so a
//! one-line reproducer can regenerate it exactly.

use ule_curves::ecdsa;
use ule_curves::params::CurveId;
use ule_mpmath::mp::Mp;
use ule_testkit::Rng;

use crate::exec::CurveRig;

/// One differential case: the sign inputs, the expected-valid
/// signature, and the (possibly mutated) verify inputs.
#[derive(Clone, Debug)]
pub struct Case {
    /// Stable label (`random:3`, `edge:d=n-1`, `negative:0`) — the
    /// replay key.
    pub label: String,
    /// Private key in `[1, n)`.
    pub d: Mp,
    /// Digest scalar in `[0, n)` fed to the sign entry.
    pub e: Mp,
    /// Nonce in `[1, n)` (re-rolled until the signature exists).
    pub nonce: Mp,
    /// Host signature `r` for the sign inputs.
    pub sig_r: Mp,
    /// Host signature `s`.
    pub sig_s: Mp,
    /// Digest fed to the verify entry (mutated for negatives).
    pub ver_e: Mp,
    /// `r` fed to the verify entry — always in `[1, n)`.
    pub ver_r: Mp,
    /// `s` fed to the verify entry — always in `[1, n)`.
    pub ver_s: Mp,
    /// Public key `d*G`, affine x limbs.
    pub qx: Vec<u32>,
    /// Public key `d*G`, affine y limbs.
    pub qy: Vec<u32>,
    /// Whether the sign entry runs (negatives only verify).
    pub run_sign: bool,
}

/// Replay selector for a single case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseSelector {
    /// `random:<index>`
    Random(usize),
    /// `edge:<name>`
    Edge(String),
    /// `negative:<index>`
    Negative(usize),
}

impl std::str::FromStr for CaseSelector {
    type Err = String;

    /// Parses the CLI form (a case label).
    fn from_str(s: &str) -> Result<Self, String> {
        let selector = s.split_once(':').and_then(|(kind, rest)| match kind {
            "random" => rest.parse().ok().map(CaseSelector::Random),
            "edge" => Some(CaseSelector::Edge(rest.to_string())),
            "negative" => rest.parse().ok().map(CaseSelector::Negative),
            _ => None,
        });
        selector.ok_or_else(|| format!("bad case selector {s:?} (random:N, edge:NAME, negative:N)"))
    }
}

impl CaseSelector {
    pub(crate) fn matches(&self, label: &str) -> bool {
        match self {
            CaseSelector::Random(i) => label == format!("random:{i}"),
            CaseSelector::Edge(name) => label == format!("edge:{name}"),
            CaseSelector::Negative(i) => label == format!("negative:{i}"),
        }
    }
}

/// Deterministic per-case RNG: campaign seed, curve, and label are
/// folded together, then splitmix64 scrambles. Shared with the ladder
/// corpus so both families replay from `(seed, curve, label)` alone.
pub(crate) fn case_rng(seed: u64, id: CurveId, label: &str) -> Rng {
    let mut h = seed ^ ((id as u64).wrapping_add(1) << 40);
    for &b in label.as_bytes() {
        h = h.rotate_left(8) ^ b as u64 ^ h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    Rng::new(h)
}

/// A random value in `[0, n)` from whole random limbs.
fn rand_mod_n(rng: &mut Rng, n: &Mp, k: usize) -> Mp {
    Mp::from_limbs(&rng.vec_u32(k)).rem(n)
}

/// A random value in `[1, n)`.
fn rand_nonzero(rng: &mut Rng, n: &Mp, k: usize) -> Mp {
    loop {
        let v = rand_mod_n(rng, n, k);
        if !v.is_zero() {
            return v;
        }
    }
}

/// Adversarial operand shapes (reduced mod `n`, forced nonzero where
/// the protocol demands it).
fn all_ones(n: &Mp, k: usize) -> Mp {
    Mp::from_limbs(&vec![0xffff_ffff; k]).rem(n)
}

fn sparse(n: &Mp, k: usize) -> Mp {
    let limbs: Vec<u32> = (0..k)
        .map(|i| if i % 3 == 0 { 0x8000_0001 } else { 0 })
        .collect();
    Mp::from_limbs(&limbs).rem(n)
}

fn dense(n: &Mp, k: usize) -> Mp {
    let limbs: Vec<u32> = (0..k)
        .map(|i| if i % 2 == 0 { 0xaaaa_aaaa } else { 0x5555_5555 })
        .collect();
    Mp::from_limbs(&limbs).rem(n)
}

fn nonzero_or_one(v: Mp) -> Mp {
    if v.is_zero() {
        Mp::one()
    } else {
        v
    }
}

/// Builds a case from explicit `(d, e)` with a fresh nonce, retrying
/// the nonce until the signature exists (`r, s != 0`).
fn make_case(rig: &CurveRig, rng: &mut Rng, label: String, d: Mp, e: Mp) -> Case {
    let n = rig.curve().n();
    let k = rig.k;
    loop {
        let nonce = rand_nonzero(rng, n, k);
        if let Some(sig) = ecdsa::sign_with_nonce(rig.curve(), &d, &e, &nonce) {
            let (qx, qy) = rig.mul_g(&d);
            return Case {
                label,
                ver_e: e.clone(),
                ver_r: sig.r.clone(),
                ver_s: sig.s.clone(),
                d,
                e,
                nonce,
                sig_r: sig.r,
                sig_s: sig.s,
                qx,
                qy,
                run_sign: true,
            };
        }
    }
}

/// Mutates one verify input of a valid case by a single bit flip,
/// keeping the kernels' input contract (`r, s ∈ [1, n)`, `e < n`).
/// Host and simulator must then reject identically.
fn mutate(rig: &CurveRig, rng: &mut Rng, base: &Case, label: String) -> Case {
    let n = rig.curve().n();
    let bits = n.bit_len();
    let mut case = base.clone();
    case.label = label;
    case.run_sign = false;
    loop {
        let target = rng.below(3);
        let bit = rng.below(bits as u64) as usize;
        let flip = |v: &Mp| -> Mp {
            let mut limbs = v.to_limbs(rig.k);
            limbs[bit / 32] ^= 1 << (bit % 32);
            Mp::from_limbs(&limbs)
        };
        match target {
            0 => {
                let r = flip(&base.ver_r);
                if !r.is_zero() && &r < n {
                    case.ver_r = r;
                    return case;
                }
            }
            1 => {
                let s = flip(&base.ver_s);
                if !s.is_zero() && &s < n {
                    case.ver_s = s;
                    return case;
                }
            }
            _ => {
                let e = flip(&base.ver_e);
                if &e < n {
                    case.ver_e = e;
                    return case;
                }
            }
        }
    }
}

/// The adversarial edge set. The heavy curves (≥ 384 bits, seconds per
/// baseline run) keep only the three cases that target the degenerate
/// code paths; the rest of the shapes are covered on the cheap curves
/// every campaign.
fn edge_specs(heavy: bool) -> &'static [&'static str] {
    const FULL: &[&str] = &[
        "d=1", "d=n-1", "e=0", "e=1", "e=n-1", "all-ones", "sparse", "dense",
    ];
    if heavy {
        &FULL[..3]
    } else {
        FULL
    }
}

fn edge_case(rig: &CurveRig, seed: u64, name: &str) -> Case {
    let n = rig.curve().n();
    let k = rig.k;
    let label = format!("edge:{name}");
    let mut rng = case_rng(seed, rig.id, &label);
    let (d, e) = match name {
        "d=1" => (Mp::one(), rand_mod_n(&mut rng, n, k)),
        "d=n-1" => (n.sub(&Mp::one()), rand_mod_n(&mut rng, n, k)),
        "e=0" => (rand_nonzero(&mut rng, n, k), Mp::zero()),
        "e=1" => (rand_nonzero(&mut rng, n, k), Mp::one()),
        "e=n-1" => (rand_nonzero(&mut rng, n, k), n.sub(&Mp::one())),
        "all-ones" => (nonzero_or_one(all_ones(n, k)), all_ones(n, k)),
        "sparse" => (nonzero_or_one(sparse(n, k)), sparse(n, k)),
        "dense" => (nonzero_or_one(dense(n, k)), dense(n, k)),
        other => panic!("unknown edge case {other:?}"),
    };
    make_case(rig, &mut rng, label, d, e)
}

/// Generates the corpus for one curve: `iters` random cases, the edge
/// set, and bit-flip negatives (one per eight random cases, at least
/// one). With a selector, exactly the matching case.
pub fn build_corpus(
    rig: &CurveRig,
    seed: u64,
    iters: usize,
    edge: bool,
    negative: bool,
    only: Option<&CaseSelector>,
) -> Vec<Case> {
    // Each case derives its own RNG from its label, so a replay can
    // generate just the selected case without walking the others.
    let want = |label: &str| only.is_none_or(|sel| sel.matches(label));
    let mut cases = Vec::new();
    for i in 0..iters {
        let label = format!("random:{i}");
        if !want(&label) {
            continue;
        }
        let mut rng = case_rng(seed, rig.id, &label);
        let n = rig.curve().n();
        let d = rand_nonzero(&mut rng, n, rig.k);
        let e = rand_mod_n(&mut rng, n, rig.k);
        cases.push(make_case(rig, &mut rng, label, d, e));
    }
    if edge {
        let heavy = rig.id.bits() >= 384;
        for name in edge_specs(heavy) {
            if want(&format!("edge:{name}")) {
                cases.push(edge_case(rig, seed, name));
            }
        }
    }
    // A replay may name an edge case outside the curve's default set
    // (e.g. a heavy curve's `edge:dense`); generate it directly.
    if let Some(CaseSelector::Edge(name)) = only {
        if cases.is_empty() && edge_specs(false).contains(&name.as_str()) {
            cases.push(edge_case(rig, seed, name));
        }
    }
    if negative {
        let count = std::cmp::max(1, iters / 8);
        for i in 0..count {
            let label = format!("negative:{i}");
            if !want(&label) {
                continue;
            }
            let mut rng = case_rng(seed, rig.id, &label);
            let n = rig.curve().n();
            let d = rand_nonzero(&mut rng, n, rig.k);
            let e = rand_mod_n(&mut rng, n, rig.k);
            let base = make_case(rig, &mut rng, label.clone(), d, e);
            cases.push(mutate(rig, &mut rng, &base, label));
        }
    }
    cases
}
