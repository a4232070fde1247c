//! Cross-layer differential verification (`repro verify`).
//!
//! Runs full ECDSA sign + verify end-to-end on every simulated
//! configuration — baseline software, the ISA extension (with and
//! without an instruction cache, which must not change any
//! architectural result), and the family coprocessor (Monte / Billie) —
//! across all ten study curves, cross-checking every exposed RAM
//! intermediate against the `ule-curves` host reference. Each
//! configuration is a [`ule_core::SystemConfig`] and every entry run
//! is one [`ule_core::System::run_entry`] call, so the campaigns check
//! the machines that produce the published numbers:
//!
//! | entry         | checked buffers                          |
//! |---------------|------------------------------------------|
//! | `main_sign`   | `ecd_x` (raw `x(kG)`), `out_r`, `out_s`  |
//! | `main_verify` | `tw_u1`, `tw_u2`, `ecd_x` (mod n), `out_ok` |
//!
//! The corpus combines a seeded random sweep ([`ule_testkit::Rng`],
//! splitmix64), a deterministic adversarial edge set (`d ∈ {1, n-1}`,
//! digests `≡ 0 (mod n)`, all-ones / sparse / dense operand words), and
//! negative tests (bit-flipped signatures that host and simulator must
//! reject identically). Divergences are shrunk to a one-line
//! reproducer: narrowest diverging entry point (`main_verify` →
//! `main_twin_mul` → `main_scalar_mul`), simplest diverging
//! configuration, and a `repro verify` command that replays exactly the
//! offending case.
//!
//! Input contracts (the simulated kernels have no range guards — the
//! host reference rejects out-of-range components before the kernels
//! would run, so feeding them is not a differential):
//! - verify components satisfy `r, s ∈ [1, n)`; mutations that leave
//!   the range are re-rolled,
//! - `main_scalar_mul` is never fed `k = 0` (its first window must
//!   fire; `fig7_14` pins its raw cycle count, so it carries no guard).
//!
//! The two RFC 7748 curves (X25519/X448) run the ladder corpus instead
//! (see [`ladder`]): `main_xdh` shared secrets are cross-checked
//! against the host [`ule_curves::montgomery::MontCurve`] ladder on
//! every prime-field configuration, with the same seeded replay labels
//! and one-line reproducers. The ladder accepts every input, so the
//! negative corpus does not apply there.

pub mod batch_oracle;
pub mod corpus;
pub mod exec;
pub mod ladder;
pub mod shrink;

use std::fmt::Write as _;

use ule_curves::params::CurveId;

pub use batch_oracle::{run_batch_oracle, BatchOracleConfig, BatchOracleReport};
pub use corpus::{Case, CaseSelector};
pub use exec::{AnyCase, ConfigKind, CurveRig, Divergence, TierPolicy};
pub use ladder::LadderCase;
pub use shrink::ShrunkDivergence;

/// One campaign: corpus size, scope, and fault-injection switches.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Master seed; every case seed is derived from it.
    pub seed: u64,
    /// Random cases per curve before per-curve cost tiering.
    pub iters: usize,
    /// Curves to cover (default: the ten ECDSA study curves plus the
    /// two RFC 7748 ladder curves, which run the ladder corpus).
    pub curves: Vec<CurveId>,
    /// Include the deterministic adversarial edge corpus.
    pub edge: bool,
    /// Include bit-flipped-signature negative tests.
    pub negative: bool,
    /// Corrupt one RAM limb of the first simulated verification — the
    /// harness self-test: the campaign must catch and shrink it.
    pub inject_fault: bool,
    /// Replay exactly one case instead of generating the corpus.
    pub only_case: Option<CaseSelector>,
    /// Restrict to one configuration (reproducer replay).
    pub only_config: Option<ConfigKind>,
    /// Which execution-engine tier(s) the cases run on (default:
    /// alternate, so one campaign exercises both engines).
    pub tier: TierPolicy,
}

impl Campaign {
    /// A fresh campaign over all twelve curves with the full corpus.
    pub fn new(seed: u64, iters: usize) -> Campaign {
        let mut curves = CurveId::ALL.to_vec();
        curves.extend(CurveId::XCURVES);
        Campaign {
            seed,
            iters,
            curves,
            edge: true,
            negative: true,
            inject_fault: false,
            only_case: None,
            only_config: None,
            tier: TierPolicy::Alternate,
        }
    }
}

/// Per-curve case tally for the report.
#[derive(Clone, Debug)]
pub struct CurveTally {
    /// The curve.
    pub curve: CurveId,
    /// Cases exercised (each runs on every configuration).
    pub cases: usize,
    /// Simulator entry runs.
    pub sim_runs: usize,
}

/// Campaign outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Total cases across all curves.
    pub cases: usize,
    /// Total simulator entry runs.
    pub sim_runs: usize,
    /// Total buffer cross-checks performed.
    pub checks: usize,
    /// Per-curve tallies, in campaign order.
    pub per_curve: Vec<CurveTally>,
    /// Distinct configuration labels covered.
    pub configs: Vec<&'static str>,
    /// Divergences, already shrunk to minimal reproducers.
    pub divergences: Vec<ShrunkDivergence>,
}

impl Report {
    /// Deterministic human-readable summary.
    pub fn render(&self, campaign: &Campaign) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "verify: seed={:#018x} iters={} curves={} configs={} [{}]",
            campaign.seed,
            campaign.iters,
            self.per_curve.len(),
            self.configs.len(),
            self.configs.join(" ")
        );
        for t in &self.per_curve {
            let _ = writeln!(
                out,
                "  {:<6} {:>3} cases {:>4} sim runs",
                t.curve.name(),
                t.cases,
                t.sim_runs
            );
        }
        let _ = writeln!(
            out,
            "verify: {} cases, {} sim runs, {} cross-checks, {} divergence(s)",
            self.cases,
            self.sim_runs,
            self.checks,
            self.divergences.len()
        );
        for s in &self.divergences {
            let _ = writeln!(out, "DIVERGENCE {}", s.describe());
            let _ = writeln!(out, "  reproduce: {}", s.reproducer);
        }
        out
    }
}

/// How many random cases a curve gets: the big fields cost seconds per
/// simulated verification (a K-571 baseline sign+verify is ~5 s), so
/// the budget is tiered by field size; every curve always gets at
/// least one case.
fn tiered_iters(id: CurveId, iters: usize) -> usize {
    let shift = match id.bits() {
        0..=192 => 0,
        193..=283 => 2,
        284..=409 => 4,
        _ => 5,
    };
    std::cmp::max(1, iters >> shift)
}

/// Runs a campaign: generate the corpus, execute every case on every
/// in-scope configuration, cross-check all exposed intermediates, and
/// shrink whatever diverged.
pub fn run_campaign(campaign: &Campaign) -> Report {
    let _span = ule_obs::span("verify.campaign");
    let mut report = Report::default();
    let mut raw: Vec<Divergence> = Vec::new();
    let mut fault_pending = campaign.inject_fault;
    let mut rigs: Vec<CurveRig> = Vec::new();
    for &id in &campaign.curves {
        let rig = CurveRig::new(id);
        let configs = exec::configs_for(id, campaign.only_config);
        for c in &configs {
            let label = c.label(id.is_binary());
            if !report.configs.contains(&label) {
                report.configs.push(label);
            }
        }
        let mut tally = CurveTally {
            curve: id,
            cases: 0,
            sim_runs: 0,
        };
        let record = |outcome: exec::CaseOutcome,
                      tally: &mut CurveTally,
                      report: &mut Report,
                      raw: &mut Vec<Divergence>| {
            tally.cases += 1;
            tally.sim_runs += outcome.sim_runs;
            report.checks += outcome.checks;
            for d in &outcome.divergences {
                ule_obs::obs_event!(
                    "verify.divergence",
                    curve = d.curve.name(),
                    config = d.config.label(d.curve.is_binary()),
                    entry = d.entry,
                    field = d.field,
                );
            }
            raw.extend(outcome.divergences);
        };
        if id.is_mont() {
            // The RFC 7748 curves run the ladder corpus: one entry
            // (`main_xdh`), cross-checked against the host ladder.
            let cases = ladder::build_ladder_corpus(
                &rig,
                campaign.seed,
                tiered_iters(id, campaign.iters),
                campaign.edge,
                campaign.only_case.as_ref(),
            );
            ule_obs::progress::add_total(cases.len() as u64);
            for (case_index, case) in cases.iter().enumerate() {
                let tier = campaign.tier.for_case(case_index);
                let progress =
                    ule_obs::progress::job_started(&format!("{}/case{case_index}", id.name()));
                let outcome =
                    ladder::run_ladder_case(&rig, case, &configs, tier, &mut fault_pending);
                ule_obs::progress::job_done(progress);
                record(outcome, &mut tally, &mut report, &mut raw);
            }
        } else {
            let cases = corpus::build_corpus(
                &rig,
                campaign.seed,
                tiered_iters(id, campaign.iters),
                campaign.edge,
                campaign.negative,
                campaign.only_case.as_ref(),
            );
            ule_obs::progress::add_total(cases.len() as u64);
            for (case_index, case) in cases.iter().enumerate() {
                let tier = campaign.tier.for_case(case_index);
                let progress =
                    ule_obs::progress::job_started(&format!("{}/case{case_index}", id.name()));
                let outcome = exec::run_case(&rig, case, &configs, tier, &mut fault_pending);
                ule_obs::progress::job_done(progress);
                record(outcome, &mut tally, &mut report, &mut raw);
            }
            // Engine-tier A/B spot check on the cheap curves: one case
            // per curve runs `main_verify` on BOTH tiers and every
            // counter is compared — the bit-exactness contract, checked
            // in-fuzzer.
            if id.bits() <= 233 && campaign.only_config.is_none() {
                if let Some(case) = cases.first() {
                    let outcome = exec::tier_ab_check(&rig, case, ConfigKind::Baseline);
                    tally.sim_runs += outcome.sim_runs;
                    report.checks += outcome.checks;
                    raw.extend(outcome.divergences);
                }
            }
        }
        report.cases += tally.cases;
        report.sim_runs += tally.sim_runs;
        report.per_curve.push(tally);
        rigs.push(rig);
    }
    for d in &raw {
        let rig = rigs
            .iter()
            .find(|r| r.id == d.curve)
            .expect("rig exists for every divergent curve");
        report
            .divergences
            .push(shrink::shrink(rig, d, campaign.seed));
    }
    ule_obs::obs_event!(
        "verify.campaign",
        cases = report.cases as u64,
        sim_runs = report.sim_runs as u64,
        checks = report.checks as u64,
        divergences = report.divergences.len() as u64,
    );
    report
}

/// Parses a campaign seed: hex (`0x…`), decimal, or — for anything
/// else, like the conventional `0xULE` — a splitmix64 hash of the
/// string bytes, so any token is a valid, deterministic seed.
pub fn parse_seed(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // One splitmix64 round to spread the FNV bits.
    ule_testkit::Rng::new(h).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("0x10"), 16);
        assert_eq!(parse_seed("42"), 42);
        // Non-numeric tokens hash deterministically and distinctly.
        assert_eq!(parse_seed("0xULE"), parse_seed("0xULE"));
        assert_ne!(parse_seed("0xULE"), parse_seed("0xULF"));
    }

    #[test]
    fn cli_labels_follow_the_spelling_policy() {
        assert_eq!("isa_ext+IC".parse(), Ok(ConfigKind::IsaExtIcache));
        assert_eq!("isa-ext".parse(), Ok(ConfigKind::IsaExt));
        assert_eq!("Alternate".parse(), Ok(TierPolicy::Alternate));
        assert!("isa".parse::<ConfigKind>().is_err());
    }

    #[test]
    fn cli_aliases_parse() {
        for coproc in ["coproc", "Monte", "billie"] {
            assert_eq!(coproc.parse(), Ok(ConfigKind::Coproc));
        }
        assert_eq!("baseline+ic".parse(), Ok(ConfigKind::BaselineIcache));
        assert_eq!("REF".parse(), Ok(TierPolicy::Reference));
        assert_eq!("alt".parse(), Ok(TierPolicy::Alternate));
        assert_eq!(
            "slow".parse::<TierPolicy>(),
            Err("unknown tier \"slow\" (expected fast|reference|alternate)".to_string())
        );
        assert_eq!(
            "isa".parse::<ConfigKind>(),
            Err("unknown config \"isa\"".to_string())
        );
    }

    #[test]
    fn tiering_always_covers() {
        for id in CurveId::ALL.into_iter().chain(CurveId::XCURVES) {
            assert!(tiered_iters(id, 1) >= 1);
            assert!(tiered_iters(id, 64) >= 2);
        }
        assert_eq!(tiered_iters(CurveId::P192, 64), 64);
        assert_eq!(tiered_iters(CurveId::K571, 64), 2);
        assert_eq!(tiered_iters(CurveId::X25519, 64), 16);
        assert_eq!(tiered_iters(CurveId::X448, 64), 2);
    }

    #[test]
    fn default_campaign_covers_the_ladder_curves() {
        let c = Campaign::new(1, 4);
        assert!(c.curves.contains(&CurveId::X25519));
        assert!(c.curves.contains(&CurveId::X448));
        assert_eq!(c.curves.len(), 12);
    }

    /// A campaign on one curve narrowed to its first random case.
    fn one_case(curve: CurveId) -> Campaign {
        let mut c = Campaign::new(parse_seed("0xULE"), 1);
        c.curves = vec![curve];
        c.edge = false;
        c.negative = false;
        c.only_case = Some(CaseSelector::Random(0));
        c
    }

    #[test]
    fn ecdsa_case_is_clean_on_every_config() {
        let report = run_campaign(&one_case(CurveId::P192));
        assert_eq!(report.cases, 1);
        // Sign and verify on each of the five configurations, plus the
        // verify pair of the engine-tier A/B check.
        assert_eq!(report.sim_runs, 12);
        assert_eq!(
            report.configs,
            vec!["baseline", "baseline+ic", "isa-ext", "isa-ext+ic", "monte"]
        );
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    }

    #[test]
    fn binary_case_is_clean_on_billie() {
        let mut c = one_case(CurveId::K163);
        c.only_config = Some(ConfigKind::Coproc);
        let report = run_campaign(&c);
        assert_eq!((report.cases, report.sim_runs), (1, 2));
        assert_eq!(report.configs, vec!["billie"]);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    }

    #[test]
    fn tier_ab_check_is_clean_on_baseline() {
        let rig = CurveRig::new(CurveId::P192);
        let only = CaseSelector::Random(0);
        let cases = corpus::build_corpus(&rig, parse_seed("0xULE"), 1, false, false, Some(&only));
        let out = exec::tier_ab_check(&rig, &cases[0], ConfigKind::Baseline);
        assert_eq!((out.sim_runs, out.checks), (2, 1));
        assert!(out.divergences.is_empty(), "{:?}", out.divergences);
    }

    #[test]
    fn ecdsa_fault_injection_is_caught_and_shrunk() {
        let mut c = one_case(CurveId::P192);
        c.inject_fault = true;
        let report = run_campaign(&c);
        // The flipped public-key limb moves the twin result: `ecd_x`
        // and the verdict diverge, and neither narrower entry (which
        // replays without the fault) reproduces it.
        let fields: Vec<&str> = report
            .divergences
            .iter()
            .map(|s| s.original.field)
            .collect();
        assert_eq!(fields, ["ecd_x", "out_ok"]);
        for s in &report.divergences {
            assert_eq!((s.original.entry, s.entry), ("main_verify", "main_verify"));
            assert_eq!(
                s.reproducer,
                "repro verify --seed 0x007d9d6484d54924 --curve P-192 --case random:0 \
                 --config baseline --tier fast --iters 1"
            );
        }
    }

    #[test]
    fn configs_run_the_machines_they_name() {
        use ule_pete::cpu::EngineTier;
        use ule_pete::icache::CacheConfig;
        for id in [CurveId::P192, CurveId::K163] {
            let rig = CurveRig::new(id);
            for cfg in ConfigKind::ALL {
                let (m, run) = rig
                    .system(cfg)
                    .run_entry("main_fmul", &[], EngineTier::Fast, false);
                run.unwrap();
                let (baseline, icache) = match cfg {
                    ConfigKind::Baseline => (true, false),
                    ConfigKind::BaselineIcache => (true, true),
                    ConfigKind::IsaExt | ConfigKind::Coproc => (false, false),
                    ConfigKind::IsaExtIcache => (false, true),
                };
                let want_cache = icache.then(|| CacheConfig::real(4096, true));
                assert_eq!(
                    format!("{:?}", m.config().icache),
                    format!("{want_cache:?}")
                );
                assert_eq!(m.config().extensions, !baseline, "{cfg:?}");
                let cop_ops = m.cop_stats().instructions;
                assert_eq!(cop_ops > 0, cfg == ConfigKind::Coproc, "{cfg:?}");
            }
        }
    }

    #[test]
    fn ladder_campaign_replay_is_clean() {
        let mut c = Campaign::new(parse_seed("0xULE"), 1);
        c.curves = vec![CurveId::X25519];
        c.edge = false;
        c.negative = false;
        c.only_case = Some(CaseSelector::Random(0));
        c.only_config = Some(ConfigKind::Coproc);
        let report = run_campaign(&c);
        assert_eq!(report.cases, 1);
        assert_eq!(report.sim_runs, 1);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.configs, vec!["monte"]);
    }

    #[test]
    fn ladder_fault_injection_is_caught() {
        let mut c = Campaign::new(parse_seed("0xULE"), 1);
        c.curves = vec![CurveId::X25519];
        c.edge = false;
        c.negative = false;
        c.only_case = Some(CaseSelector::Random(0));
        c.only_config = Some(ConfigKind::Coproc);
        c.inject_fault = true;
        let report = run_campaign(&c);
        assert_eq!(report.divergences.len(), 1);
        let s = &report.divergences[0];
        assert_eq!(s.original.entry, "main_xdh");
        assert_eq!(s.original.field, "out_r");
        assert!(s.reproducer.contains("--curve X25519"));
        assert!(s.reproducer.contains("--case random:0"));
    }
}
