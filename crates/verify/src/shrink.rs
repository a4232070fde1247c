//! Divergence shrinking: reduce a full sign/verify mismatch to the
//! narrowest entry point and simplest configuration that still
//! reproduce it, then emit a one-line `repro verify` reproducer.

use ule_mpmath::mp::Mp;
use ule_pete::cpu::{EngineTier, ExecOptions};
use ule_swlib::harness::{read_buf, run_entry, write_buf, DEFAULT_MAX_CYCLES};

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
    let suite = rig.suite(cfg);
    let mut m = rig.machine(cfg);
    write_buf(&mut m, &suite.program, "arg_k", &k_scalar.to_limbs(rig.k));
    if run_entry(
        &mut m,
        &suite.program,
        "main_scalar_mul",
        ExecOptions::new(DEFAULT_MAX_CYCLES).with_tier(tier),
    )
    .is_err()
    {
        return true;
    }
    let host = rig.mul_g(k_scalar);
    let sim = (
        read_buf(&m, &suite.program, "out_r", rig.k),
        read_buf(&m, &suite.program, "out_s", rig.k),
    );
    host != sim
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
    let suite = rig.suite(cfg);
    let mut m = rig.machine(cfg);
    write_buf(&mut m, &suite.program, "arg_e", &u1.to_limbs(rig.k));
    write_buf(&mut m, &suite.program, "arg_d", &u2.to_limbs(rig.k));
    write_buf(&mut m, &suite.program, "arg_qx", &case.qx);
    write_buf(&mut m, &suite.program, "arg_qy", &case.qy);
    if run_entry(
        &mut m,
        &suite.program,
        "main_twin_mul",
        ExecOptions::new(DEFAULT_MAX_CYCLES).with_tier(tier),
    )
    .is_err()
    {
        return true;
    }
    let host = rig.twin(u1, u2, &case.qx, &case.qy);
    let sim = (
        read_buf(&m, &suite.program, "out_r", rig.k),
        read_buf(&m, &suite.program, "out_s", rig.k),
    );
    host != sim
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
