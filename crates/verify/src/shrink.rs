//! Divergence shrinking: reduce a full sign/verify mismatch to the
//! narrowest entry point and simplest configuration that still
//! reproduce it, then emit a one-line `repro verify` reproducer.

use ule_mpmath::mp::Mp;
use ule_pete::cpu::EngineTier;

use crate::corpus::Case;
use crate::exec::{self, AnyCase, ConfigKind, CurveRig, Divergence};
use crate::ladder;

/// A divergence reduced to its minimal reproduction.
#[derive(Clone, Debug)]
pub struct ShrunkDivergence {
    /// The divergence as originally observed.
    pub original: Divergence,
    /// Narrowest entry point that reproduces it.
    pub entry: &'static str,
    /// Simplest configuration that reproduces it.
    pub config: ConfigKind,
    /// One-line replay command.
    pub reproducer: String,
}

impl ShrunkDivergence {
    /// Human-readable one-liner for the report.
    pub fn describe(&self) -> String {
        format!(
            "{} {} case {}: first seen at {}/{} field {}, shrunk to {}/{}",
            self.original.curve.name(),
            self.original.config.label(self.original.curve.is_binary()),
            self.original.case.label(),
            self.original.entry,
            self.original.config.label(self.original.curve.is_binary()),
            self.original.field,
            self.entry,
            self.config.label(self.original.curve.is_binary()),
        )
    }
}

/// Does `main_scalar_mul(k)` diverge from the host on this config?
/// (`k = 0` is outside the kernel's contract and never probed.)
fn scalar_mul_diverges(rig: &CurveRig, cfg: ConfigKind, tier: EngineTier, k_scalar: &Mp) -> bool {
    if k_scalar.is_zero() {
        return false;
    }
    let k = k_scalar.to_limbs(rig.k);
    let (m, Ok(())) = rig
        .system(cfg)
        .run_entry("main_scalar_mul", &[("arg_k", &k)], tier, false)
    else {
        return true;
    };
    let sim = (
        rig.read(cfg, &m, "out_r", rig.k),
        rig.read(cfg, &m, "out_s", rig.k),
    );
    rig.mul_g(k_scalar) != sim
}

/// Does `main_twin_mul(u1, u2, Q)` diverge from the host?
fn twin_mul_diverges(
    rig: &CurveRig,
    cfg: ConfigKind,
    tier: EngineTier,
    u1: &Mp,
    u2: &Mp,
    case: &Case,
) -> bool {
    let (e, d) = (u1.to_limbs(rig.k), u2.to_limbs(rig.k));
    let inputs: [(&str, &[u32]); 4] = [
        ("arg_e", &e),
        ("arg_d", &d),
        ("arg_qx", &case.qx),
        ("arg_qy", &case.qy),
    ];
    let (m, Ok(())) = rig
        .system(cfg)
        .run_entry("main_twin_mul", &inputs, tier, false)
    else {
        return true;
    };
    let sim = (
        rig.read(cfg, &m, "out_r", rig.k),
        rig.read(cfg, &m, "out_s", rig.k),
    );
    rig.twin(u1, u2, &case.qx, &case.qy) != sim
}

/// Does a full replay of the case's original entry diverge?
fn full_entry_diverges(
    rig: &CurveRig,
    cfg: ConfigKind,
    tier: EngineTier,
    entry: &str,
    case: &Case,
) -> bool {
    let mut replay = case.clone();
    replay.run_sign = entry == "main_sign";
    let mut no_fault = false;
    let outcome = exec::run_case(rig, &replay, &[cfg], tier, &mut no_fault);
    outcome.divergences.iter().any(|d| d.entry == entry)
}

/// Shrinks one divergence: probe the narrower entries first
/// (`main_scalar_mul`, then `main_twin_mul`), and for each entry the
/// simplest configurations first; fall back to the original
/// observation, which is reproducible by construction.
pub fn shrink(rig: &CurveRig, d: &Divergence, seed: u64) -> ShrunkDivergence {
    let binary = rig.id.is_binary();
    // Configurations from least machinery to the one that failed.
    let mut configs = vec![ConfigKind::Baseline, ConfigKind::IsaExt, ConfigKind::Coproc];
    if !configs.contains(&d.config) {
        configs.push(d.config);
    }

    // Replays run on the tier that observed the divergence, so a
    // tier-specific bug shrinks instead of vanishing.
    let tier = d.tier;
    let mut found: Option<(&'static str, ConfigKind)> = None;
    match &d.case {
        AnyCase::Ladder(case) => {
            // The ladder suite has a single entry, so shrinking is pure
            // configuration minimization.
            for &cfg in &configs {
                if ladder::ladder_diverges(rig, cfg, tier, case) {
                    found = Some(("main_xdh", cfg));
                    break;
                }
            }
        }
        AnyCase::Ecdsa(case) => {
            if d.entry == "main_verify" {
                let exp = exec::host_verify(rig, case);
                'outer: for &cfg in &configs {
                    for (entry, hit) in [
                        (
                            "main_scalar_mul",
                            scalar_mul_diverges(rig, cfg, tier, &exp.u1),
                        ),
                        (
                            "main_twin_mul",
                            twin_mul_diverges(rig, cfg, tier, &exp.u1, &exp.u2, case),
                        ),
                    ] {
                        if hit {
                            found = Some((entry, cfg));
                            break 'outer;
                        }
                    }
                }
            } else if d.entry == "main_sign" {
                'outer: for &cfg in &configs {
                    if scalar_mul_diverges(rig, cfg, tier, &case.nonce) {
                        found = Some(("main_scalar_mul", cfg));
                        break 'outer;
                    }
                }
            }
            // No narrower entry reproduces: minimize the configuration
            // of the original entry instead.
            if found.is_none() {
                for &cfg in &configs {
                    if cfg != d.config && full_entry_diverges(rig, cfg, tier, d.entry, case) {
                        found = Some((d.entry, cfg));
                        break;
                    }
                }
            }
        }
    }
    let (entry, config) = found.unwrap_or((d.entry, d.config));
    let reproducer = format!(
        "repro verify --seed {:#018x} --curve {} --case {} --config {} --tier {} --iters 1",
        seed,
        rig.id.name(),
        d.case.label(),
        config.label(binary),
        tier.key(),
    );
    ShrunkDivergence {
        original: d.clone(),
        entry,
        config,
        reproducer,
    }
}
