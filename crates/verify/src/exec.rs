//! Differential executor: runs one corpus case on the simulated
//! configurations and cross-checks every exposed RAM intermediate
//! against the host reference model.

use std::sync::Arc;

use ule_core::{CurveContext, System, SystemConfig};
use ule_curves::binary::AffinePoint2m;
use ule_curves::ecdsa::PublicKey;
use ule_curves::params::{parse_name, spells, Curve, CurveId, CurveKind};
use ule_curves::prime::AffinePoint;
use ule_curves::scalar;
use ule_mpmath::mp::Mp;
use ule_pete::cpu::{EngineTier, Machine};
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;
use ule_swlib::harness::read_buf;

use crate::corpus::Case;
use crate::ladder::LadderCase;

/// A corpus case of either family: the ECDSA sign/verify corpus or the
/// RFC 7748 ladder corpus. Divergences carry this so one shrinker /
/// report pipeline serves both paths.
#[derive(Clone, Debug)]
pub enum AnyCase {
    /// An ECDSA sign/verify case.
    Ecdsa(Case),
    /// A Montgomery-ladder shared-secret case.
    Ladder(LadderCase),
}

impl AnyCase {
    /// The replay label (`random:3`, `edge:u=0`, …).
    pub fn label(&self) -> &str {
        match self {
            AnyCase::Ecdsa(c) => &c.label,
            AnyCase::Ladder(c) => &c.label,
        }
    }
}

/// One simulated configuration. The instruction cache is
/// microarchitectural: the `*Icache` rows must produce bit-identical
/// results to their cacheless siblings, which is exactly why they are
/// in the matrix. `Coproc` resolves to Monte on prime curves and
/// Billie on binary ones — six distinct labels over the full campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigKind {
    /// Plain software, base ISA.
    Baseline,
    /// Base ISA behind a 4 KB instruction cache with prefetch.
    BaselineIcache,
    /// The multiply/carry ISA extension.
    IsaExt,
    /// ISA extension behind the same instruction cache.
    IsaExtIcache,
    /// Family coprocessor: Monte (prime) or Billie (binary).
    Coproc,
}

impl ConfigKind {
    /// All configurations, cheapest machinery first.
    pub const ALL: [ConfigKind; 5] = [
        ConfigKind::Baseline,
        ConfigKind::BaselineIcache,
        ConfigKind::IsaExt,
        ConfigKind::IsaExtIcache,
        ConfigKind::Coproc,
    ];

    /// CLI / report label.
    pub fn label(self, binary: bool) -> &'static str {
        match self {
            ConfigKind::Baseline => "baseline",
            ConfigKind::BaselineIcache => "baseline+ic",
            ConfigKind::IsaExt => "isa-ext",
            ConfigKind::IsaExtIcache => "isa-ext+ic",
            ConfigKind::Coproc => {
                if binary {
                    "billie"
                } else {
                    "monte"
                }
            }
        }
    }

    /// The design point this configuration simulates on `id`: the
    /// instruction-cache rows add a 4 KB cache with prefetch, and
    /// `Coproc` is Monte or Billie by the curve's field family.
    pub fn system_config(self, id: CurveId) -> SystemConfig {
        let cache = CacheConfig::real(4096, true);
        match self {
            ConfigKind::Baseline => SystemConfig::new(id, Arch::Baseline),
            ConfigKind::BaselineIcache => SystemConfig::new(id, Arch::Baseline).with_icache(cache),
            ConfigKind::IsaExt => SystemConfig::new(id, Arch::IsaExt),
            ConfigKind::IsaExtIcache => SystemConfig::new(id, Arch::IsaExt).with_icache(cache),
            ConfigKind::Coproc if id.is_binary() => SystemConfig::new(id, Arch::Billie),
            ConfigKind::Coproc => SystemConfig::new(id, Arch::Monte),
        }
    }
}

impl std::str::FromStr for ConfigKind {
    type Err = String;

    /// Parses a CLI label (either family's coprocessor name, or
    /// `coproc`) under the design-space spelling policy
    /// ([`spells`]).
    fn from_str(s: &str) -> Result<Self, String> {
        if spells(s, "coproc") {
            return Ok(ConfigKind::Coproc);
        }
        ConfigKind::ALL
            .into_iter()
            .find(|c| spells(s, c.label(false)) || spells(s, c.label(true)))
            .ok_or_else(|| format!("unknown config {s:?}"))
    }
}

/// Which execution-engine tier(s) a campaign exercises. Both tiers are
/// contractually bit-identical, so any policy must find the same
/// divergences; `Alternate` (the default) splits the corpus across the
/// two engines so every campaign exercises both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierPolicy {
    /// Every case runs on the fast engine.
    Fast,
    /// Every case runs on the reference interpreter.
    Reference,
    /// Cases alternate between the tiers by corpus index (default).
    Alternate,
}

impl TierPolicy {
    /// The engine tier for the case at `index` in the corpus.
    pub fn for_case(self, index: usize) -> EngineTier {
        match self {
            TierPolicy::Fast => EngineTier::Fast,
            TierPolicy::Reference => EngineTier::Reference,
            TierPolicy::Alternate => {
                if index.is_multiple_of(2) {
                    EngineTier::Fast
                } else {
                    EngineTier::Reference
                }
            }
        }
    }

    /// CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            TierPolicy::Fast => "fast",
            TierPolicy::Reference => "reference",
            TierPolicy::Alternate => "alternate",
        }
    }
}

impl std::str::FromStr for TierPolicy {
    type Err = String;

    /// Parses the CLI spelling ([`spells`]), or the `ref`/`alt` alias.
    fn from_str(s: &str) -> Result<Self, String> {
        if spells(s, "ref") {
            Ok(TierPolicy::Reference)
        } else if spells(s, "alt") {
            Ok(TierPolicy::Alternate)
        } else {
            let all = [
                TierPolicy::Fast,
                TierPolicy::Reference,
                TierPolicy::Alternate,
            ];
            parse_name("tier", s, &all, TierPolicy::label)
        }
    }
}

/// Everything needed to simulate one curve: the shared curve context,
/// which assembles each arch's program image on first use. Every entry
/// run is one [`System::run_entry`] call, so the campaigns simulate
/// exactly the machines that produce the published numbers; the
/// instruction-cache configurations run their cacheless sibling's image.
pub struct CurveRig {
    /// The curve.
    pub id: CurveId,
    /// Field words.
    pub k: usize,
    ctx: Arc<CurveContext>,
}

impl CurveRig {
    /// The rig for a curve; its program images are built when first run.
    pub fn new(id: CurveId) -> CurveRig {
        let ctx = Arc::new(CurveContext::new(id));
        CurveRig {
            id,
            k: ctx.curve().limbs(),
            ctx,
        }
    }

    /// Host-side parameters.
    pub fn curve(&self) -> &Curve {
        self.ctx.curve()
    }

    /// The system a configuration runs on.
    pub fn system(&self, cfg: ConfigKind) -> System {
        System::with_context(cfg.system_config(self.id), Arc::clone(&self.ctx))
    }

    /// Reads `n` limbs of a RAM buffer from a machine `cfg` ran.
    pub fn read(&self, cfg: ConfigKind, m: &Machine, buf: &str, n: usize) -> Vec<u32> {
        read_buf(m, &self.system(cfg).suite().program, buf, n)
    }

    /// Host `d*G` as affine limb pairs; the identity maps to the
    /// simulator's `(0, 0)` sentinel.
    pub fn mul_g(&self, d: &Mp) -> (Vec<u32>, Vec<u32>) {
        self.curve().mul_g(d).xy_limbs(self.k)
    }

    /// Host twin multiplication `u1*G + u2*Q` as affine limb pairs
    /// (identity → `(0, 0)`), with `Q` given as limb coordinates.
    pub fn twin(&self, u1: &Mp, u2: &Mp, qx: &[u32], qy: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let point = match self.curve().kind() {
            CurveKind::Prime(c) => {
                let q = AffinePoint::new(c.field().from_limbs(qx), c.field().from_limbs(qy));
                PublicKey::Prime(scalar::twin_mul(c, u1, &c.generator(), u2, &q))
            }
            CurveKind::Binary(c) => {
                let q = AffinePoint2m::new(c.field().from_limbs(qx), c.field().from_limbs(qy));
                PublicKey::Binary(scalar::twin_mul(c, u1, &c.generator(), u2, &q))
            }
            CurveKind::Mont(_) => unreachable!("ladder curves use the ladder corpus"),
        };
        point.xy_limbs(self.k)
    }

    /// The x-coordinate of `d*G` as a plain integer (what `ecd_x` holds
    /// after a signature's `fout`), `None` for the identity.
    pub fn x_of_mul_g(&self, d: &Mp) -> Option<Mp> {
        match (self.curve().kind(), self.curve().mul_g(d)) {
            (CurveKind::Prime(c), PublicKey::Prime(p)) => c.x_as_integer(&p),
            (CurveKind::Binary(c), PublicKey::Binary(p)) => c.x_as_integer(&p),
            _ => unreachable!("mul_g answers in the curve's own family"),
        }
    }
}

/// What the host expects the sign entry to leave in RAM.
pub struct SignExpect {
    /// `ecd_x`: the raw x-coordinate of `kG` (pre `mod n`).
    pub ecd_x: Vec<u32>,
    /// `out_r`.
    pub r: Vec<u32>,
    /// `out_s`.
    pub s: Vec<u32>,
}

/// What the host expects the verify entry to leave in RAM.
pub struct VerifyExpect {
    /// `tw_u1 = e/s mod n`.
    pub u1: Mp,
    /// `tw_u2 = r/s mod n`.
    pub u2: Mp,
    /// The scalar pair the Billie kernel scans: for `Q = G` it
    /// canonicalizes to `(u1 + u2 mod n, 0)` — the guardless LD
    /// addition cannot scan two multiples of `G` — and leaves that
    /// pair in `tw_u1`/`tw_u2`.
    pub billie_u1: Mp,
    /// Second scanned scalar on Billie (zero when `Q = G`).
    pub billie_u2: Mp,
    /// `ecd_x`: `x(u1 G + u2 Q) mod n`, zeros for the identity.
    pub ecd_x: Vec<u32>,
    /// `out_ok`.
    pub ok: u32,
}

/// Host model of the simulated sign entry.
pub fn host_sign(rig: &CurveRig, case: &Case) -> SignExpect {
    let k = rig.k;
    let ecd_x = rig
        .x_of_mul_g(&case.nonce)
        .expect("corpus nonces are in [1, n)")
        .to_limbs(k);
    SignExpect {
        ecd_x,
        r: case.sig_r.to_limbs(k),
        s: case.sig_s.to_limbs(k),
    }
}

/// Host model of the simulated verify entry, evaluated on the exact
/// inputs the simulator sees (for negative cases these are mutated).
pub fn host_verify(rig: &CurveRig, case: &Case) -> VerifyExpect {
    let k = rig.k;
    let n = rig.curve().n();
    let nf = rig.curve().order_field();
    let w = nf
        .inv(&nf.from_mp(&case.ver_s))
        .expect("corpus keeps s in [1, n)");
    let u1 = nf.mul(&nf.from_mp(&case.ver_e), &w).to_mp();
    let u2 = nf.mul(&nf.from_mp(&case.ver_r), &w).to_mp();
    let (tx, _ty) = rig.twin(&u1, &u2, &case.qx, &case.qy);
    // `ecd_x` mirrors the kernel: `fout` of the twin x then `mod n` in
    // place. The identity sentinel (0) reduces to 0.
    let ecd_x = Mp::from_limbs(&tx).rem(n).to_limbs(k);
    let ok = u32::from(ecd_x == case.ver_r.to_limbs(k));
    let (gx, gy) = rig.mul_g(&Mp::one());
    let (billie_u1, billie_u2) = if case.qx == gx && case.qy == gy {
        (u1.add(&u2).rem(n), Mp::zero())
    } else {
        (u1.clone(), u2.clone())
    };
    VerifyExpect {
        u1,
        u2,
        billie_u1,
        billie_u2,
        ecd_x,
        ok,
    }
}

/// One host/simulator mismatch on one buffer of one entry run.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Curve the case ran on.
    pub curve: CurveId,
    /// Configuration that diverged.
    pub config: ConfigKind,
    /// Entry point that was running.
    pub entry: &'static str,
    /// RAM buffer that mismatched (or `<hang>` / `<tier-ab>`).
    pub field: &'static str,
    /// Engine tier the diverging run used (replayed by the shrinker).
    pub tier: EngineTier,
    /// Host expectation.
    pub host: Vec<u32>,
    /// Simulator contents.
    pub sim: Vec<u32>,
    /// The full offending case (the shrinker replays it).
    pub case: AnyCase,
}

/// Outcome of one case across its configurations.
pub struct CaseOutcome {
    /// Simulator entry runs performed.
    pub sim_runs: usize,
    /// Buffer comparisons performed.
    pub checks: usize,
    /// Mismatches found.
    pub divergences: Vec<Divergence>,
}

/// Accumulates buffer comparisons for one `(case, config, entry)`.
struct Checker<'a> {
    out: &'a mut CaseOutcome,
    rig: &'a CurveRig,
    cfg: ConfigKind,
    entry: &'static str,
    tier: EngineTier,
    case: &'a Case,
}

impl Checker<'_> {
    fn field(&mut self, field: &'static str, host: Vec<u32>, sim: Vec<u32>) {
        self.out.checks += 1;
        if host != sim {
            self.diverge(field, host, sim);
        }
    }

    /// A run that hit the cycle limit (or a missing entry symbol) is a
    /// divergence in its own right: the host always terminates.
    fn hang(&mut self) {
        self.out.checks += 1;
        self.diverge("<hang>", Vec::new(), Vec::new());
    }

    fn diverge(&mut self, field: &'static str, host: Vec<u32>, sim: Vec<u32>) {
        self.out.divergences.push(Divergence {
            curve: self.rig.id,
            config: self.cfg,
            entry: self.entry,
            field,
            tier: self.tier,
            host,
            sim,
            case: AnyCase::Ecdsa(self.case.clone()),
        });
    }
}

/// Runs one case on each configuration, sign entry (when the case has
/// one) then verify entry, cross-checking every exposed buffer. When
/// `fault_pending` is set, the first verification runs with one bit of
/// one input limb flipped — the harness self-test — and clears the
/// flag.
pub fn run_case(
    rig: &CurveRig,
    case: &Case,
    configs: &[ConfigKind],
    tier: EngineTier,
    fault_pending: &mut bool,
) -> CaseOutcome {
    let k = rig.k;
    let mut out = CaseOutcome {
        sim_runs: 0,
        checks: 0,
        divergences: Vec::new(),
    };
    let sign_expect = case.run_sign.then(|| host_sign(rig, case));
    let verify_expect = host_verify(rig, case);
    let (e, d, nonce) = (
        case.e.to_limbs(k),
        case.d.to_limbs(k),
        case.nonce.to_limbs(k),
    );
    let (ver_e, ver_r, ver_s) = verify_inputs(case, k);
    for &cfg in configs {
        if let Some(exp) = &sign_expect {
            out.sim_runs += 1;
            let inputs: [(&str, &[u32]); 3] = [("arg_e", &e), ("arg_d", &d), ("arg_k", &nonce)];
            let run = rig.system(cfg).run_entry("main_sign", &inputs, tier, false);
            let mut ck = Checker {
                out: &mut out,
                rig,
                cfg,
                entry: "main_sign",
                tier,
                case,
            };
            match run {
                (m, Ok(())) => {
                    let rd = |b| rig.read(cfg, &m, b, k);
                    ck.field("ecd_x", exp.ecd_x.clone(), rd("ecd_x"));
                    ck.field("out_r", exp.r.clone(), rd("out_r"));
                    ck.field("out_s", exp.s.clone(), rd("out_s"));
                }
                (_, Err(_)) => ck.hang(),
            }
        }
        // Self-test: corrupt limb 0 of the public key's y in the
        // simulator's input only — the host model keeps the true value,
        // so the campaign must flag this run.
        let mut qy = case.qy.clone();
        if std::mem::take(fault_pending) {
            qy[0] ^= 1;
        }
        out.sim_runs += 1;
        let inputs: [(&str, &[u32]); 5] = [
            ("arg_e", &ver_e),
            ("arg_r", &ver_r),
            ("arg_s", &ver_s),
            ("arg_qx", &case.qx),
            ("arg_qy", &qy),
        ];
        let run = rig
            .system(cfg)
            .run_entry("main_verify", &inputs, tier, false);
        let mut ck = Checker {
            out: &mut out,
            rig,
            cfg,
            entry: "main_verify",
            tier,
            case,
        };
        match run {
            (m, Ok(())) => {
                let exp = &verify_expect;
                let billie = cfg == ConfigKind::Coproc && rig.id.is_binary();
                let (eu1, eu2) = if billie {
                    (&exp.billie_u1, &exp.billie_u2)
                } else {
                    (&exp.u1, &exp.u2)
                };
                let rd = |b, n| rig.read(cfg, &m, b, n);
                ck.field("tw_u1", eu1.to_limbs(k), rd("tw_u1", k));
                ck.field("tw_u2", eu2.to_limbs(k), rd("tw_u2", k));
                ck.field("ecd_x", exp.ecd_x.clone(), rd("ecd_x", k));
                ck.field("out_ok", vec![exp.ok], rd("out_ok", 1));
            }
            (_, Err(_)) => ck.hang(),
        }
    }
    out
}

/// The verify entry's scalar inputs `(e, r, s)` as `k`-limb buffers.
fn verify_inputs(case: &Case, k: usize) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    (
        case.ver_e.to_limbs(k),
        case.ver_r.to_limbs(k),
        case.ver_s.to_limbs(k),
    )
}

/// In-campaign A/B spot check: runs `main_verify` for one case on both
/// engine tiers and compares cycles, every pipeline counter, and the
/// raw memory statistics — the fast engine's bit-exactness contract,
/// checked inside the fuzzer on real curve workloads. Mismatches are
/// reported as `<tier-ab>` divergences (host = reference, sim = fast,
/// each encoded as the u64 cycle count split into u32 halves).
pub fn tier_ab_check(rig: &CurveRig, case: &Case, cfg: ConfigKind) -> CaseOutcome {
    let (ver_e, ver_r, ver_s) = verify_inputs(case, rig.k);
    let inputs: [(&str, &[u32]); 5] = [
        ("arg_e", &ver_e),
        ("arg_r", &ver_r),
        ("arg_s", &ver_s),
        ("arg_qx", &case.qx),
        ("arg_qy", &case.qy),
    ];
    let mut out = CaseOutcome {
        sim_runs: 2,
        checks: 1,
        divergences: Vec::new(),
    };
    let [(r, run_ref), (f, run_fast)] = [EngineTier::Reference, EngineTier::Fast].map(|tier| {
        rig.system(cfg)
            .run_entry("main_verify", &inputs, tier, false)
    });
    let identical = run_ref.is_ok() == run_fast.is_ok()
        && r.counters() == f.counters()
        && r.rom_stats() == f.rom_stats()
        && r.ram_stats() == f.ram_stats()
        && r.icache_stats() == f.icache_stats()
        && r.cop_stats() == f.cop_stats()
        && rig.read(cfg, &r, "out_ok", 1) == rig.read(cfg, &f, "out_ok", 1);
    if !identical {
        let enc = |m: &Machine| {
            let c = m.cycles();
            vec![c as u32, (c >> 32) as u32]
        };
        out.divergences.push(Divergence {
            curve: rig.id,
            config: cfg,
            entry: "main_verify",
            field: "<tier-ab>",
            tier: EngineTier::Fast,
            host: enc(&r),
            sim: enc(&f),
            case: AnyCase::Ecdsa(case.clone()),
        });
    }
    out
}
