//! Differential fuzzing of the Montgomery-ladder (X25519/X448) suite.
//!
//! The ECDSA corpus does not fit the ladder curves: there is no
//! signature, no public-key pair, and a single entry (`main_xdh`) that
//! maps a raw (pre-clamp) scalar and a reduced peer `u`-coordinate to
//! the shared secret in `out_r`. This module is the ladder-shaped
//! mirror of `corpus`/`exec`: seeded random cases plus a deterministic
//! edge set (the all-zero low-order input that must produce the
//! all-zero secret, clamp boundaries, reduction boundaries), each run
//! on every in-scope configuration and cross-checked against the
//! RFC 7748-validated [`ule_curves::montgomery::MontCurve`] host
//! reference. Divergences reuse [`Divergence`] (entry `main_xdh`,
//! field `out_r`), so the campaign report and the shrinker's one-line
//! `repro verify` reproducers cover both families uniformly.

use ule_mpmath::mp::Mp;
use ule_pete::cpu::EngineTier;
use ule_testkit::Rng;

use crate::corpus::{case_rng, CaseSelector};
use crate::exec::{AnyCase, CaseOutcome, ConfigKind, CurveRig, Divergence};

/// One ladder case: the raw scalar limbs written to `arg_k` (the
/// kernel clamps, mirroring the host) and the reduced peer
/// `u`-coordinate limbs written to `arg_qx`.
#[derive(Clone, Debug)]
pub struct LadderCase {
    /// Stable replay label (`random:3`, `edge:u=0`).
    pub label: String,
    /// Raw scalar, `k` limbs, fed to `arg_k` *before* clamping.
    pub raw_k: Vec<u32>,
    /// Peer `u`-coordinate, reduced mod `p`, fed to `arg_qx`.
    pub u: Vec<u32>,
}

/// The host-expected shared secret for a case: clamp the raw scalar
/// exactly as the kernel does, then ladder over the peer `u`.
pub fn host_secret(rig: &CurveRig, case: &LadderCase) -> Vec<u32> {
    let mc = rig.curve().mont();
    let bytes: Vec<u8> = case.raw_k.iter().flat_map(|w| w.to_le_bytes()).collect();
    let clamped = mc.clamp(&bytes);
    let u = mc.field().from_limbs(&case.u);
    mc.ladder(&clamped, &u).limbs().to_vec()
}

/// The deterministic adversarial edge set. The first three survive the
/// heavy-curve (X448) trimming: the low-order zero input (the only
/// branch in the kernel), the clamp fixed-bit boundary, and the field
/// reduction boundary.
fn edge_specs(heavy: bool) -> &'static [&'static str] {
    const FULL: &[&str] = &[
        "u=0", "k=0", "u=p-1", "all-ones", "sparse", "dense", "u=base",
    ];
    if heavy {
        &FULL[..3]
    } else {
        FULL
    }
}

fn patterned(k: usize, f: impl Fn(usize) -> u32) -> Vec<u32> {
    (0..k).map(f).collect()
}

fn reduced(limbs: &[u32], p: &Mp, k: usize) -> Vec<u32> {
    Mp::from_limbs(limbs).rem(p).to_limbs(k)
}

fn rand_u(rng: &mut Rng, p: &Mp, k: usize) -> Vec<u32> {
    reduced(&rng.vec_u32(k), p, k)
}

fn edge_case(rig: &CurveRig, seed: u64, name: &str) -> LadderCase {
    let k = rig.k;
    let mc = rig.curve().mont();
    let p = mc.prime().modulus();
    let label = format!("edge:{name}");
    let mut rng = case_rng(seed, rig.id, &label);
    let (raw_k, u) = match name {
        // The all-zero u is a low-order point: the kernel's only branch
        // (the `fisz` guard before the inversion) must fire and leave
        // the all-zero secret.
        "u=0" => (rng.vec_u32(k), vec![0; k]),
        // Clamping turns the all-zero scalar into the lone fixed top
        // bit — the smallest scalar the ladder can ever see.
        "k=0" => (vec![0; k], rand_u(&mut rng, &p, k)),
        "u=p-1" => (rng.vec_u32(k), p.sub(&Mp::one()).to_limbs(k)),
        "all-ones" => (vec![0xffff_ffff; k], reduced(&vec![0xffff_ffff; k], &p, k)),
        "sparse" => {
            let pat = patterned(k, |i| if i % 3 == 0 { 0x8000_0001 } else { 0 });
            (pat.clone(), reduced(&pat, &p, k))
        }
        "dense" => {
            let pat = patterned(k, |i| if i % 2 == 0 { 0xaaaa_aaaa } else { 0x5555_5555 });
            (pat.clone(), reduced(&pat, &p, k))
        }
        "u=base" => (rng.vec_u32(k), mc.base_u().limbs().to_vec()),
        other => panic!("unknown ladder edge case {other:?}"),
    };
    LadderCase { label, raw_k, u }
}

/// Generates the ladder corpus for one curve: `iters` random cases plus
/// the edge set (negatives do not apply — the ladder accepts every
/// input). With a selector, exactly the matching case.
pub fn build_ladder_corpus(
    rig: &CurveRig,
    seed: u64,
    iters: usize,
    edge: bool,
    only: Option<&CaseSelector>,
) -> Vec<LadderCase> {
    let k = rig.k;
    let p = rig.curve().mont().prime().modulus();
    let want = |label: &str| only.is_none_or(|sel| sel.matches(label));
    let mut cases = Vec::new();
    for i in 0..iters {
        let label = format!("random:{i}");
        if !want(&label) {
            continue;
        }
        let mut rng = case_rng(seed, rig.id, &label);
        let raw_k = rng.vec_u32(k);
        let u = rand_u(&mut rng, &p, k);
        cases.push(LadderCase { label, raw_k, u });
    }
    if edge {
        let heavy = rig.id.bits() >= 384;
        for name in edge_specs(heavy) {
            if want(&format!("edge:{name}")) {
                cases.push(edge_case(rig, seed, name));
            }
        }
    }
    // A replay may name an edge outside the heavy curve's trimmed set.
    if let Some(CaseSelector::Edge(name)) = only {
        if cases.is_empty() && edge_specs(false).contains(&name.as_str()) {
            cases.push(edge_case(rig, seed, name));
        }
    }
    cases
}

/// Runs one ladder case on each configuration, cross-checking `out_r`
/// against the host shared secret. `fault_pending` mirrors the ECDSA
/// harness self-test: flip one bit of the peer `u` the simulator is
/// given on the first run, which the campaign must catch.
pub fn run_ladder_case(
    rig: &CurveRig,
    case: &LadderCase,
    configs: &[ConfigKind],
    tier: EngineTier,
    fault_pending: &mut bool,
) -> CaseOutcome {
    let host = host_secret(rig, case);
    let mut out = CaseOutcome {
        sim_runs: 0,
        checks: 0,
        divergences: Vec::new(),
    };
    for &cfg in configs {
        let mut u = case.u.clone();
        if std::mem::take(fault_pending) {
            u[0] ^= 1;
        }
        out.sim_runs += 1;
        let inputs: [(&str, &[u32]); 2] = [("arg_k", &case.raw_k), ("arg_qx", &u)];
        let run = rig.system(cfg).run_entry("main_xdh", &inputs, tier, false);
        out.checks += 1;
        let (field, sim) = match run {
            (m, Ok(())) => ("out_r", rig.read(cfg, &m, "out_r", rig.k)),
            (_, Err(_)) => ("<hang>", Vec::new()),
        };
        if field == "<hang>" || sim != host {
            out.divergences.push(Divergence {
                curve: rig.id,
                config: cfg,
                entry: "main_xdh",
                field,
                tier,
                host: if field == "<hang>" {
                    Vec::new()
                } else {
                    host.clone()
                },
                sim,
                case: AnyCase::Ladder(case.clone()),
            });
        }
    }
    out
}

/// Does a clean replay of `main_xdh` diverge on this configuration?
/// (The shrinker's probe — a hang counts as a divergence.)
pub fn ladder_diverges(
    rig: &CurveRig,
    cfg: ConfigKind,
    tier: EngineTier,
    case: &LadderCase,
) -> bool {
    let mut no_fault = false;
    let outcome = run_ladder_case(rig, case, &[cfg], tier, &mut no_fault);
    !outcome.divergences.is_empty()
}
