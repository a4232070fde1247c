//! The design-space exploration API — the paper's primary contribution,
//! as a library.
//!
//! A [`SystemConfig`] names one point in the hardware/software spectrum
//! of Fig 1.1 (architecture × curve × instruction cache × accelerator
//! knobs); [`System::run_with`] simulates an ECDSA workload on it and
//! returns a [`RunReport`] with cycle counts, event counters, and the
//! per-component energy breakdown — the quantities behind every table
//! and figure of the paper's Chapter 7.
//!
//! ```no_run
//! use ule_core::{RunOptions, SystemConfig, System, Workload};
//! use ule_curves::params::CurveId;
//! use ule_swlib::builder::Arch;
//!
//! let system = System::new(SystemConfig::new(CurveId::P192, Arch::Baseline));
//! let report = system.run_with(RunOptions::new(Workload::SignVerify));
//! println!("{} cycles, {:.1} µJ", report.cycles, report.energy.total_uj());
//! ```
//!
//! Every run is **checked**: the simulated outputs are compared against
//! the `ule-curves` host reference before any number is reported (a run
//! that computes the wrong signature panics rather than producing a
//! plausible-looking energy figure).
//!
//! A run is two steps: [`System::simulate`] produces a [`Simulation`]
//! (counters and raw stats, host-checked), and [`Simulation::report`]
//! prices it. The energy-only knobs ([`SystemConfig::timing`] lists
//! them) are read only by the second step, so one simulation prices
//! every configuration that shares its timing point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod metrics;
pub mod space;

use ule_billie::{Billie, BillieConfig};
use ule_curves::binary::AffinePoint2m;
use ule_curves::ecdsa::{self, Keypair, PublicKey};
use ule_curves::params::{Curve, CurveId, CurveKind};
use ule_curves::prime::AffinePoint;
use ule_curves::scalar;
use ule_energy::report::Gating;
use ule_energy::{Activity, CopActivity, CopKind, EnergyBreakdown, IcacheActivity};
use ule_monte::{Monte, MonteConfig};
use ule_mpmath::mp::Mp;
use ule_pete::cop::CopStats;
use ule_pete::cpu::{Counters, EngineTier, ExecOptions, Instrumentation, Machine, MachineConfig};
use ule_pete::icache::{CacheConfig, CacheStats};
use ule_pete::mem::MemStats;
use ule_pete::profile::RoutineProfile;
use ule_swlib::builder::{build_suite, Arch, Suite};
use ule_swlib::harness::{read_buf, run_entry, write_buf};

/// §7.8 multiplier variants (identical timing, different power — the
/// Karatsuba unit is the design point, §5.1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MultVariant {
    /// The paper's multi-cycle Karatsuba unit.
    Karatsuba,
    /// A multi-cycle operand-scanning unit (+3.5 % core power, §7.8).
    OperandScan,
    /// A parallel pipelined multiplier (+13.4 % core power, §7.8).
    Parallel,
}

impl MultVariant {
    /// Core-power factor relative to the Karatsuba design point (§7.8).
    ///
    /// This is the single source of the §7.8 constants — harness code
    /// that rescales a report for a variant must use it rather than
    /// duplicating the mapping.
    pub fn factor(self) -> f64 {
        match self {
            MultVariant::Karatsuba => 1.0,
            MultVariant::OperandScan => ule_energy::constants::MULT_VARIANT_OPERAND_SCAN,
            MultVariant::Parallel => ule_energy::constants::MULT_VARIANT_PARALLEL,
        }
    }
}

/// One point in the design space.
///
/// Construct one with [`SystemConfig::new`] and refine it with the
/// `with_*` builder methods — the primary configuration API:
///
/// ```no_run
/// use ule_core::{SystemConfig, Workload};
/// use ule_curves::params::CurveId;
/// use ule_energy::report::Gating;
/// use ule_swlib::builder::Arch;
///
/// let cfg = SystemConfig::new(CurveId::K163, Arch::Billie)
///     .with_billie_digit(4)
///     .with_gating(Gating::Power);
/// ```
///
/// The fields stay `pub` for pattern matching and for existing code,
/// but new call sites should prefer the builders: they read as one
/// expression, and derived `Hash`/`Eq` make a finished config directly
/// usable as a memo-cache key (see `ule-bench`'s `SweepEngine`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// The curve (key size + field type).
    pub curve: CurveId,
    /// The hardware/software configuration.
    pub arch: Arch,
    /// Optional instruction cache (§5.3).
    pub icache: Option<CacheConfig>,
    /// Monte front-end knobs (the §7.7 double-buffer ablation).
    pub monte: MonteConfig,
    /// Billie multiplier digit width (Fig 7.14 sweep).
    pub billie_digit: usize,
    /// Multiplier power variant (§7.8).
    pub mult_variant: MultVariant,
    /// Idle-accelerator gating (the paper's §8 future-work extension).
    pub gating: Gating,
    /// Model Billie's register file in SRAM instead of flip-flops (§8
    /// future-work extension; no timing change).
    pub billie_sram_rf: bool,
}

impl SystemConfig {
    /// The standard configuration for an (arch, curve) pair.
    pub fn new(curve: CurveId, arch: Arch) -> Self {
        SystemConfig {
            curve,
            arch,
            icache: None,
            monte: MonteConfig::default(),
            billie_digit: 3,
            mult_variant: MultVariant::Karatsuba,
            gating: Gating::None,
            billie_sram_rf: false,
        }
    }

    /// Adds an instruction cache.
    pub fn with_icache(mut self, cache: CacheConfig) -> Self {
        self.icache = Some(cache);
        self
    }

    /// Sets Monte's front-end knobs (the §7.7 double-buffer ablation).
    pub fn with_monte(mut self, monte: MonteConfig) -> Self {
        self.monte = monte;
        self
    }

    /// Sets Billie's multiplier digit width (Fig 7.14 sweep).
    pub fn with_billie_digit(mut self, digit: usize) -> Self {
        self.billie_digit = digit;
        self
    }

    /// Sets the idle-accelerator gating strategy (§8 extension).
    pub fn with_gating(mut self, gating: Gating) -> Self {
        self.gating = gating;
        self
    }

    /// Sets the §7.8 multiplier power variant.
    pub fn with_mult_variant(mut self, variant: MultVariant) -> Self {
        self.mult_variant = variant;
        self
    }

    /// Models Billie's register file in SRAM instead of flip-flops (§8
    /// extension; no timing change).
    pub fn with_billie_sram_rf(mut self, sram: bool) -> Self {
        self.billie_sram_rf = sram;
        self
    }

    /// The timing point of this configuration: the energy-only knobs
    /// pinned to their [`SystemConfig::new`] defaults.
    ///
    /// This is the one place that lists those knobs — the §7.8
    /// multiplier variant, idle-accelerator gating and Billie's SRAM
    /// register file. They change power, never a cycle or a counter, so
    /// two configurations with equal `timing()` simulate identically and
    /// differ only in [`Simulation::report`].
    pub fn timing(self) -> Self {
        let d = SystemConfig::new(self.curve, self.arch);
        SystemConfig {
            mult_variant: d.mult_variant,
            gating: d.gating,
            billie_sram_rf: d.billie_sram_rf,
            ..self
        }
    }
}

/// The simulated workloads: the ECDSA suite of the paper plus the
/// RFC 7748 ladder workloads of the X25519/X448 subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// One signature (a single scalar multiplication + protocol math).
    Sign,
    /// One verification (a twin scalar multiplication + protocol math).
    Verify,
    /// Signature followed by verification — the paper's headline metric
    /// ("closely models an SSL handshake on the client side", §7.6).
    SignVerify,
    /// One `k·G` scalar multiplication only.
    ScalarMul,
    /// One field multiplication (micro-benchmark).
    FieldMul,
    /// One X25519/X448 shared-secret computation (a full Montgomery
    /// ladder). Requires an RFC 7748 curve.
    Xdh,
    /// A DTLS-style handshake flight: one ECDHE key agreement on the X
    /// curve plus an ECDSA signature *and* verification on the
    /// equivalent-security prime curve ([`CurveId::security_pair`]),
    /// both on the same architecture — the modern analogue of the
    /// paper's Sign+Verify headline metric.
    Handshake,
}

impl Workload {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sign => "Sign",
            Workload::Verify => "Verify",
            Workload::SignVerify => "Sign+Verify",
            Workload::ScalarMul => "kG",
            Workload::FieldMul => "field mul",
            Workload::Xdh => "XDH",
            Workload::Handshake => "Handshake",
        }
    }

    /// True for the workloads that drive the Montgomery-ladder program
    /// image (and therefore need an RFC 7748 curve).
    pub fn is_ladder(self) -> bool {
        matches!(self, Workload::Xdh | Workload::Handshake)
    }
}

/// Why a `(curve, arch, workload)` triple cannot be simulated.
///
/// This is **the** validity rule: [`System::run_with`] rejects invalid
/// triples with it before building any machine, and
/// [`space::SpaceSpec::enumerate`] uses the same predicate (via
/// [`supports`]) to drop the pairings from a lattice — no call path
/// reaches the panic inside `build_suite` any more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// An ECDSA workload was asked of an RFC 7748 (x-only) curve, which
    /// carries no Weierstrass point arithmetic or signature layer.
    EcdsaOnLadderCurve {
        /// The offending curve.
        curve: CurveId,
        /// The requested workload.
        workload: Workload,
    },
    /// A ladder workload was asked of an ECDSA curve.
    LadderOnEcdsaCurve {
        /// The offending curve.
        curve: CurveId,
        /// The requested workload.
        workload: Workload,
    },
    /// The architecture cannot run the curve's field at all (Monte is a
    /// GF(p) accelerator, Billie a GF(2^m) one).
    ArchCurveMismatch {
        /// The architecture.
        arch: Arch,
        /// The curve.
        curve: CurveId,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::EcdsaOnLadderCurve { curve, workload } => write!(
                f,
                "workload {:?} needs an ECDSA curve; {} is an RFC 7748 ladder curve \
                 (use Workload::Xdh or Workload::Handshake)",
                workload,
                curve.name()
            ),
            WorkloadError::LadderOnEcdsaCurve { curve, workload } => write!(
                f,
                "workload {:?} needs an RFC 7748 curve (X25519/X448), not {}",
                workload,
                curve.name()
            ),
            WorkloadError::ArchCurveMismatch { arch, curve } => write!(
                f,
                "{arch:?} cannot run {}: Monte accelerates GF(p), Billie GF(2^m)",
                curve.name()
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The one-place `(curve, arch, workload)` validity check.
pub fn validate_workload(
    curve: CurveId,
    arch: Arch,
    workload: Workload,
) -> Result<(), WorkloadError> {
    if !space::arch_supports_curve(arch, curve) {
        return Err(WorkloadError::ArchCurveMismatch { arch, curve });
    }
    match (workload.is_ladder(), curve.is_mont()) {
        (true, false) => Err(WorkloadError::LadderOnEcdsaCurve { curve, workload }),
        (false, true) => Err(WorkloadError::EcdsaOnLadderCurve { curve, workload }),
        _ => Ok(()),
    }
}

/// Whether the triple is simulable (the boolean face of
/// [`validate_workload`], for lattice filtering).
pub fn supports(curve: CurveId, arch: Arch, workload: Workload) -> bool {
    validate_workload(curve, arch, workload).is_ok()
}

/// Whether a run collects the per-routine cycle profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfileMode {
    /// Follow the global [`ule_obs::set_profiling`] flag (the default).
    #[default]
    Auto,
    /// Profile this run regardless of the flag — the report's `profile`
    /// is always `Some`.
    On,
    /// Sampled profiling: stride-based attribution that rides the fast
    /// engine instead of forcing the reference interpreter. The
    /// report's `profile` is always `Some`, with exact totals, an
    /// approximate per-routine split, and an empty call graph (see
    /// `ule_pete::profile::SampledProfiler`).
    Sampled,
    /// Never profile this run.
    Off,
}

/// Everything that varies per [`System::run_with`] call: the workload,
/// the profiling choice, and the execution-engine tier.
///
/// A [`Simulation`] is the same — bit for bit — whatever the profiling
/// mode and tier (profiling is observational; the fast engine is
/// bit-exact), so simulations remain valid memo-cache values keyed only
/// by `(SystemConfig::timing(), Workload)`, and every report priced from
/// one is a pure function of its full `SystemConfig` (see `ule-bench`'s
/// `SweepEngine`).
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// The simulated ECDSA workload.
    pub workload: Workload,
    /// Per-routine profiling choice (default: follow the global flag).
    pub profile: ProfileMode,
    /// Execution-engine tier (default: fast when unprofiled).
    pub tier: EngineTier,
    /// Sampled-profiler stride override for this run; `None` follows
    /// `ULE_SAMPLE_STRIDE` / the built-in default. Lets A/B harnesses
    /// (e.g. `repro overhead`) hold the profiler machinery constant
    /// while varying only how often it fires.
    pub sample_stride: Option<u64>,
}

impl RunOptions {
    /// Options for a workload with default profiling and tier.
    pub fn new(workload: Workload) -> Self {
        RunOptions {
            workload,
            profile: ProfileMode::default(),
            tier: EngineTier::default(),
            sample_stride: None,
        }
    }

    /// Forces per-routine profiling on for this run.
    pub fn profiled(mut self) -> Self {
        self.profile = ProfileMode::On;
        self
    }

    /// Selects sampled profiling for this run (fast-tier eligible).
    pub fn sampled(mut self) -> Self {
        self.profile = ProfileMode::Sampled;
        self
    }

    /// Selects sampled profiling with an explicit stride (in cycles),
    /// ignoring `ULE_SAMPLE_STRIDE`. Totals are exact at any stride; an
    /// astronomically large stride yields a profiler that attaches but
    /// never fires — the ballast arm of the overhead A/B measurement.
    pub fn sampled_with_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0, "sample stride must be positive");
        self.profile = ProfileMode::Sampled;
        self.sample_stride = Some(stride);
        self
    }

    /// Overrides the execution-engine tier.
    pub fn with_tier(mut self, tier: EngineTier) -> Self {
        self.tier = tier;
        self
    }
}

/// The raw memory/cache/accelerator statistics of a run, kept whole
/// (rather than pre-reduced into [`Activity`]) so the metrics layer can
/// export every counter the simulator produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RawStats {
    /// Program-ROM traffic (word reads + cache line reads).
    pub rom: MemStats,
    /// Data-RAM traffic (Pete's port plus accelerator DMA).
    pub ram: MemStats,
    /// Instruction-cache statistics, when a cache is configured.
    pub icache: Option<CacheStats>,
    /// Accelerator statistics (all-zero without an accelerator).
    pub cop: CopStats,
}

impl RawStats {
    /// Adds another run's stats onto this one, struct by struct.
    pub fn accumulate(&mut self, other: &RawStats) {
        let RawStats {
            rom,
            ram,
            icache,
            cop,
        } = other;
        self.rom.accumulate(rom);
        self.ram.accumulate(ram);
        if let Some(ic) = icache {
            self.icache
                .get_or_insert_with(Default::default)
                .accumulate(ic);
        }
        self.cop.accumulate(cop);
    }
}

/// The result of simulating one workload on one configuration.
///
/// `PartialEq` compares every field bit-for-bit — the determinism tests
/// use it to check that parallel and serial sweeps agree exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Total cycles (summed over the workload's entry points).
    pub cycles: u64,
    /// Aggregated pipeline counters.
    pub counters: Counters,
    /// Raw memory/cache/accelerator statistics.
    pub raw: RawStats,
    /// The activity record handed to the energy model.
    pub activity: Activity,
    /// Per-component energy.
    pub energy: EnergyBreakdown,
    /// Per-routine cycle attribution, when profiling was enabled for
    /// this simulation (see [`RunOptions::profiled`]).
    pub profile: Option<RoutineProfile>,
}

impl RunReport {
    /// Wall-clock time at the 333 MHz system clock, milliseconds.
    pub fn time_ms(&self) -> f64 {
        self.activity.time_s() * 1e3
    }

    /// Energy per operation, µJ.
    pub fn energy_uj(&self) -> f64 {
        self.energy.total_uj()
    }
}

/// A built system: curve context + program image + configuration.
pub struct System {
    config: SystemConfig,
    curve: Curve,
    suite: Suite,
}

impl System {
    /// Builds the system (curve construction + suite codegen + link).
    pub fn new(config: SystemConfig) -> Self {
        let mut sp = ule_obs::span("sys.assemble");
        sp.field("curve", config.curve.name())
            .field("arch", format!("{:?}", config.arch));
        let curve = config.curve.curve();
        let suite = build_suite(&curve, config.arch);
        System {
            config,
            curve,
            suite,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The curve context.
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    /// The built program image.
    pub fn suite(&self) -> &Suite {
        &self.suite
    }

    fn machine(&self, profile: ProfileKind) -> Machine {
        let mut mc = match self.config.arch {
            Arch::Baseline => MachineConfig::baseline(),
            _ => MachineConfig::isa_ext(),
        };
        mc.icache = self.config.icache;
        let b = Machine::builder(&self.suite.program, mc);
        let b = match self.config.arch {
            Arch::Monte => b.coprocessor(Box::new(Monte::with_config(self.config.monte))),
            Arch::Billie => b.coprocessor(Box::new(Billie::with_config(
                self.config.curve.nist_binary(),
                BillieConfig {
                    digit: self.config.billie_digit,
                },
            ))),
            _ => b,
        };
        let instr = match profile {
            ProfileKind::None => Instrumentation::none(),
            ProfileKind::Exact => Instrumentation::profile(&self.suite.program.text_symbols()),
            ProfileKind::Sampled(stride) => {
                Instrumentation::sampled_profile(&self.suite.program.text_symbols(), stride)
            }
        };
        b.instrumentation(instr).build()
    }

    /// Deterministic workload inputs shared by every configuration (so
    /// cross-architecture comparisons run the very same operation).
    fn inputs(&self) -> WorkloadInputs {
        let curve = &self.curve;
        let keys = Keypair::derive(curve, b"design-space signer");
        let e = ecdsa::hash_to_scalar(
            curve,
            b"the design space of ultra-low energy asymmetric cryptography",
        );
        let nonce = ecdsa::derive_scalar(curve, b"bench nonce", b"nonce");
        let sig = ecdsa::sign_with_nonce(curve, keys.private(), &e, &nonce)
            .expect("deterministic nonce is valid");
        WorkloadInputs {
            keys,
            e,
            nonce,
            sig,
        }
    }

    /// Runs one workload with the given options, verifying functional
    /// outputs against the host: [`System::simulate`] priced at this
    /// system's configuration.
    ///
    /// # Panics
    ///
    /// As [`System::simulate`].
    pub fn run_with(&self, opts: RunOptions) -> RunReport {
        self.simulate(opts).report(&self.config)
    }

    /// Simulates one workload on this system's timing point and checks
    /// every functional output against the host reference. The result
    /// carries counters and raw stats but no energy: price it with
    /// [`Simulation::report`] at this configuration or at any other that
    /// shares its [`SystemConfig::timing`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid `(curve, arch, workload)` triple, and if the
    /// simulated outputs disagree with the host reference — a
    /// wrong-but-fast simulation must never produce a data point. Also
    /// panics when the options force both profiling and the fast engine
    /// tier (the fast engine carries no attribution plumbing).
    pub fn simulate(&self, opts: RunOptions) -> Simulation {
        let profile = match opts.profile {
            // The global flag is read once per run so a report is
            // internally consistent even if the flag changes
            // concurrently.
            ProfileMode::Auto if ule_obs::profiling_enabled() => ProfileKind::Exact,
            ProfileMode::Auto | ProfileMode::Off => ProfileKind::None,
            ProfileMode::On => ProfileKind::Exact,
            ProfileMode::Sampled => {
                ProfileKind::Sampled(opts.sample_stride.unwrap_or_else(sample_stride))
            }
        };
        let (workload, tier) = (opts.workload, opts.tier);
        if let Err(e) = validate_workload(self.config.curve, self.config.arch, workload) {
            panic!("{e}");
        }
        let mut total = Simulation::new(self.config.timing());
        if profile != ProfileKind::None {
            total.profile = Some(RoutineProfile::default());
        }
        if workload.is_ladder() {
            self.accum_xdh(profile, tier, &mut total);
            if workload == Workload::Handshake {
                // The certifying signature rides the equivalent-security
                // prime curve on the *same* architecture; its counters
                // merge into this report so the handshake is one design
                // point. The companion runs a different program image,
                // so its profile accumulates separately (sign + verify
                // share one routine table) and is then absorbed under a
                // `<curve>:` namespace.
                let pair = self.config.curve.security_pair();
                let companion = System::new(SystemConfig {
                    curve: pair,
                    ..self.config
                });
                let mut side = Simulation::new(companion.config.timing());
                companion.accum_ecdsa(Workload::SignVerify, profile, tier, &mut side);
                total.counters.accumulate(&side.counters);
                total.raw.accumulate(&side.raw);
                if let Some(p) = side.profile {
                    total
                        .profile
                        .get_or_insert_with(RoutineProfile::default)
                        .absorb(&p, &format!("{}:", pair.name()));
                }
            }
            return total;
        }
        self.accum_ecdsa(workload, profile, tier, &mut total);
        total
    }

    /// One full Montgomery ladder (`main_xdh`) with deterministic
    /// handshake inputs, checked bit-for-bit against the host ladder.
    fn accum_xdh(&self, profile: ProfileKind, tier: EngineTier, total: &mut Simulation) {
        let k = self.suite.k;
        let mc = self.curve.mont();
        // Our static key and the peer's ephemeral key: raw (unclamped)
        // scalars, deterministic so every configuration agrees on the
        // exact operation. The peer's public u is itself a host ladder
        // from the base point — a real ECDHE pairing, so the simulated
        // shared secret can be cross-checked end to end.
        let raw_a = xdh_raw_scalar(k, 0xA11C_E000);
        let raw_b = xdh_raw_scalar(k, 0xB0B0_0000);
        let peer_u = mc.ladder(&mc.clamp(&limb_bytes(&raw_b)), mc.base_u());
        let shared = mc.ladder(&mc.clamp(&limb_bytes(&raw_a)), &peer_u);
        let mut m = self.machine(profile);
        {
            let _sp = ule_obs::span("sys.load");
            write_buf(&mut m, &self.suite.program, "arg_k", &raw_a);
            write_buf(&mut m, &self.suite.program, "arg_qx", peer_u.limbs());
        }
        self.sim_entry(&mut m, "main_xdh", tier);
        assert_eq!(
            read_buf(&m, &self.suite.program, "out_r", k),
            shared.limbs(),
            "simulated shared secret mismatch"
        );
        total.add(&mut m);
    }

    /// The ECDSA workload paths, accumulating into `total`.
    fn accum_ecdsa(
        &self,
        workload: Workload,
        profile: ProfileKind,
        tier: EngineTier,
        total: &mut Simulation,
    ) {
        let k = self.suite.k;
        let inp = self.inputs();
        let d_limbs = inp.keys.private().to_limbs(k);
        let e_limbs = inp.e.to_limbs(k);
        let k_limbs = inp.nonce.to_limbs(k);
        let (qx, qy) = public_xy(&self.curve, &inp.keys.public(), k);
        match workload {
            Workload::Sign | Workload::SignVerify => {
                let mut m = self.machine(profile);
                {
                    let _sp = ule_obs::span("sys.load");
                    write_buf(&mut m, &self.suite.program, "arg_e", &e_limbs);
                    write_buf(&mut m, &self.suite.program, "arg_d", &d_limbs);
                    write_buf(&mut m, &self.suite.program, "arg_k", &k_limbs);
                }
                self.sim_entry(&mut m, "main_sign", tier);
                let r = Mp::from_limbs(&read_buf(&m, &self.suite.program, "out_r", k));
                let s = Mp::from_limbs(&read_buf(&m, &self.suite.program, "out_s", k));
                assert_eq!(r, inp.sig.r, "simulated r mismatch");
                assert_eq!(s, inp.sig.s, "simulated s mismatch");
                total.add(&mut m);
            }
            _ => {}
        }
        match workload {
            Workload::Verify | Workload::SignVerify => {
                let mut m = self.machine(profile);
                {
                    let _sp = ule_obs::span("sys.load");
                    write_buf(&mut m, &self.suite.program, "arg_e", &e_limbs);
                    write_buf(&mut m, &self.suite.program, "arg_r", &inp.sig.r.to_limbs(k));
                    write_buf(&mut m, &self.suite.program, "arg_s", &inp.sig.s.to_limbs(k));
                    write_buf(&mut m, &self.suite.program, "arg_qx", &qx);
                    write_buf(&mut m, &self.suite.program, "arg_qy", &qy);
                }
                self.sim_entry(&mut m, "main_verify", tier);
                assert_eq!(
                    read_buf(&m, &self.suite.program, "out_ok", 1),
                    vec![1],
                    "simulated verification rejected a valid signature"
                );
                total.add(&mut m);
            }
            _ => {}
        }
        if workload == Workload::ScalarMul {
            let mut m = self.machine(profile);
            write_buf(&mut m, &self.suite.program, "arg_k", &k_limbs);
            self.sim_entry(&mut m, "main_scalar_mul", tier);
            let gx = read_buf(&m, &self.suite.program, "out_r", k);
            let expect = host_mul_g(&self.curve, &inp.nonce, k);
            assert_eq!(gx, expect.0, "simulated kG mismatch");
            total.add(&mut m);
        }
        if workload == Workload::FieldMul {
            let mut m = self.machine(profile);
            write_buf(&mut m, &self.suite.program, "arg_qx", &qx);
            write_buf(&mut m, &self.suite.program, "arg_qy", &qy);
            self.sim_entry(&mut m, "main_fmul", tier);
            total.add(&mut m);
        }
    }

    /// Runs one program entry point, wrapped in a `sys.sim` span.
    fn sim_entry(&self, m: &mut Machine, entry: &'static str, tier: EngineTier) {
        let mut sp = ule_obs::span("sys.sim");
        if let Err(e) = run_entry(
            m,
            &self.suite.program,
            entry,
            ExecOptions::new(u64::MAX / 2).with_tier(tier),
        ) {
            // Post-mortem: dump the flight recorder's event tail before
            // the panic unwinds (a runaway entry is exactly the case
            // the last-N-events ring exists for).
            if matches!(e, ule_swlib::harness::RunError::CycleLimit { .. }) {
                ule_obs::flight::note_incident("cycle_limit");
            }
            panic!("{e}");
        }
        sp.field("entry", entry)
            .field("curve", self.config.curve.name())
            .field("cycles", m.cycles());
    }
}

/// The sampled profiler's stride in cycles:
/// [`ule_pete::profile::DEFAULT_SAMPLE_STRIDE`] unless overridden by
/// the `ULE_SAMPLE_STRIDE` environment variable (a positive integer;
/// anything else warns once and falls back). Smaller strides tighten
/// the per-routine split at proportionally more sampling work; totals
/// are exact at any stride.
fn sample_stride() -> u64 {
    match std::env::var("ULE_SAMPLE_STRIDE") {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                ule_obs::obs_warn_once!(
                    "ULE_SAMPLE_STRIDE must be a positive integer; using the default",
                    value = v.as_str(),
                );
                ule_pete::profile::DEFAULT_SAMPLE_STRIDE
            }
        },
        Err(_) => ule_pete::profile::DEFAULT_SAMPLE_STRIDE,
    }
}

/// Resolved per-run profiling choice ([`ProfileMode`] with `Auto`
/// already folded against the global flag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProfileKind {
    None,
    Exact,
    Sampled(u64),
}

struct WorkloadInputs {
    keys: Keypair,
    e: Mp,
    nonce: Mp,
    sig: ecdsa::Signature,
}

/// Deterministic raw (unclamped) ladder scalar: `k` limbs expanded from
/// a fixed seed with splitmix64, so every configuration — and every
/// session — agrees on the exact key-agreement operation. The kernel and
/// the host clamp the same raw bits.
fn xdh_raw_scalar(k: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..k)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u32
        })
        .collect()
}

/// Little-endian byte encoding of a limb buffer (the RFC 7748 wire form
/// the host clamp consumes).
fn limb_bytes(limbs: &[u32]) -> Vec<u8> {
    limbs.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn public_xy(_curve: &Curve, public: &PublicKey, k: usize) -> (Vec<u32>, Vec<u32>) {
    match public {
        PublicKey::Prime(AffinePoint::Point { x, y }) => (x.limbs().to_vec(), y.limbs().to_vec()),
        PublicKey::Binary(AffinePoint2m::Point { x, y }) => {
            (x.limbs().to_vec(), y.limbs().to_vec())
        }
        _ => (vec![0; k], vec![0; k]),
    }
}

fn host_mul_g(curve: &Curve, s: &Mp, k: usize) -> (Vec<u32>, Vec<u32>) {
    match curve.kind() {
        CurveKind::Prime(c) => match scalar::mul_window(c, s, &c.generator()) {
            AffinePoint::Point { x, y } => (x.limbs().to_vec(), y.limbs().to_vec()),
            AffinePoint::Infinity => (vec![0; k], vec![0; k]),
        },
        CurveKind::Binary(c) => match scalar::mul_window(c, s, &c.generator()) {
            AffinePoint2m::Point { x, y } => (x.limbs().to_vec(), y.limbs().to_vec()),
            AffinePoint2m::Infinity => (vec![0; k], vec![0; k]),
        },
        CurveKind::Mont(_) => unreachable!("ECDSA workloads are validated off ladder curves"),
    }
}

/// One simulated workload: counters, raw stats and profile summed over
/// its entry points, with every functional output already checked
/// against the host. Energy is not part of it — [`Simulation::report`]
/// prices it.
#[derive(Clone, Debug, PartialEq)]
pub struct Simulation {
    timing: SystemConfig,
    /// Aggregated pipeline counters.
    pub counters: Counters,
    /// Raw memory/cache/accelerator statistics.
    pub raw: RawStats,
    /// Per-routine cycle attribution, when the run was profiled.
    pub profile: Option<RoutineProfile>,
}

impl Simulation {
    fn new(timing: SystemConfig) -> Self {
        Simulation {
            timing,
            counters: Counters::default(),
            raw: RawStats::default(),
            profile: None,
        }
    }

    /// The timing configuration that was simulated (a
    /// [`SystemConfig::timing`] value).
    pub fn timing(&self) -> SystemConfig {
        self.timing
    }

    fn add(&mut self, m: &mut Machine) {
        self.counters.accumulate(&m.counters());
        self.raw.accumulate(&RawStats {
            rom: m.rom_stats(),
            ram: m.ram_stats(),
            icache: m.icache_stats(),
            cop: m.cop_stats(),
        });
        if let Some(p) = m.take_profile() {
            self.profile
                .get_or_insert_with(RoutineProfile::default)
                .merge(&p);
        }
    }

    /// Prices the simulation at `config`: one energy-model call. Any
    /// configuration with the simulated timing point is valid — this is
    /// the only reader of the energy-only knobs.
    ///
    /// # Panics
    ///
    /// Panics if `config.timing()` differs from [`Simulation::timing`].
    pub fn report(&self, config: &SystemConfig) -> RunReport {
        assert_eq!(
            config.timing(),
            self.timing,
            "a simulation can only be priced at its own timing point"
        );
        let _sp = ule_obs::span("sys.energy");
        let cycles = self.counters.cycles;
        let raw = self.raw;
        let activity = Activity {
            cycles,
            busy_cycles: cycles.saturating_sub(self.counters.stall_cycles),
            stall_cycles: self.counters.stall_cycles,
            mult_active_cycles: self.counters.mult_active_cycles,
            mult_variant_factor: config.mult_variant.factor(),
            rom_word_reads: raw.rom.reads,
            rom_line_reads: raw.rom.line_reads,
            ram_reads: raw.ram.reads,
            ram_writes: raw.ram.writes,
            icache: config.icache.map(|c| IcacheActivity {
                size_bytes: c.size_bytes,
                accesses: raw.icache.map(|ic| ic.accesses).unwrap_or(0),
                fills: raw.icache.map(|ic| ic.fills).unwrap_or(0),
            }),
            cop: match config.arch {
                Arch::Monte => Some(CopActivity {
                    kind: CopKind::Monte,
                    busy_cycles: raw.cop.busy_cycles,
                    dma_cycles: raw.cop.dma_cycles,
                    // 3 scratch accesses per busy cycle (2 reads + 1
                    // write on average through the CIOS inner loops).
                    scratch_accesses: 3 * raw.cop.busy_cycles,
                    gating: config.gating,
                    sram_register_file: false,
                }),
                Arch::Billie => Some(CopActivity {
                    kind: CopKind::Billie {
                        m: config.curve.nist_binary().m(),
                    },
                    busy_cycles: raw.cop.busy_cycles,
                    dma_cycles: raw.cop.dma_cycles,
                    scratch_accesses: 0,
                    gating: config.gating,
                    sram_register_file: config.billie_sram_rf,
                }),
                _ => None,
            },
        };
        let energy = ule_energy::report::energy(&activity);
        RunReport {
            cycles,
            counters: self.counters,
            raw,
            activity,
            energy,
            profile: self.profile.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_on_p192_baseline() {
        let sys = System::new(SystemConfig::new(CurveId::P192, Arch::Baseline));
        let r = sys.run_with(RunOptions::new(Workload::SignVerify));
        assert!(r.cycles > 100_000);
        assert!(r.energy_uj() > 0.0);
        assert!(r.time_ms() > 0.0);
    }

    /// The memo invariant extends to sampled profiling: a sampled run's
    /// report is bit-identical to an unprofiled one in every simulated
    /// quantity, and the sampled profile's totals equal the headline
    /// counters exactly (across the workload's merged entry points).
    #[test]
    fn sampled_profile_preserves_report_and_sums_exactly() {
        let sys = System::new(SystemConfig::new(CurveId::P192, Arch::IsaExt));
        let plain = sys.run_with(RunOptions::new(Workload::SignVerify));
        let sampled = sys.run_with(RunOptions::new(Workload::SignVerify).sampled());
        assert_eq!(plain.cycles, sampled.cycles);
        assert_eq!(plain.counters, sampled.counters);
        assert_eq!(plain.raw, sampled.raw);
        assert_eq!(plain.activity, sampled.activity);
        assert_eq!(plain.energy, sampled.energy);
        let p = sampled.profile.as_ref().expect("sampled run sets profile");
        assert_eq!(p.total_cycles(), sampled.cycles);
        assert_eq!(p.total_instructions(), sampled.counters.instructions);
        assert!(
            p.calls.nodes.is_empty(),
            "sampled profile has no call graph"
        );
        // Attributed energy conserves bit-for-bit, same as the exact
        // profiler (the residual fix-up in `EnergyBreakdown::attribute`
        // operates on exact totals).
        let att = sampled.energy.attribute(&attr::routine_activities(p));
        assert_eq!(
            att.total_uj().to_bits(),
            sampled.energy.total_uj().to_bits()
        );
    }

    /// A stride too large to ever fire still attaches the profiler
    /// (identical allocation behaviour to a live one — the overhead
    /// harness's ballast arm) and still reports exact totals.
    #[test]
    fn sampled_stride_override_never_fires_but_totals_exact() {
        let sys = System::new(SystemConfig::new(CurveId::P192, Arch::IsaExt));
        let plain = sys.run_with(RunOptions::new(Workload::Sign));
        let ballast = sys.run_with(RunOptions::new(Workload::Sign).sampled_with_stride(1 << 40));
        assert_eq!(plain.cycles, ballast.cycles);
        assert_eq!(plain.counters, ballast.counters);
        assert_eq!(plain.energy, ballast.energy);
        let p = ballast.profile.as_ref().expect("profile present");
        assert_eq!(p.total_cycles(), ballast.cycles);
        assert_eq!(p.total_instructions(), ballast.counters.instructions);
    }

    #[test]
    #[should_panic(expected = "its own timing point")]
    fn pricing_at_another_timing_point_panics() {
        let base = SystemConfig::new(CurveId::K163, Arch::Billie);
        let sim = System::new(base).simulate(RunOptions::new(Workload::FieldMul));
        let _ = sim.report(&base.with_billie_digit(4));
    }

    #[test]
    fn xdh_and_handshake_run_on_the_ladder_curves() {
        for curve in [CurveId::X25519, CurveId::X448] {
            for arch in [Arch::Baseline, Arch::Monte] {
                let sys = System::new(SystemConfig::new(curve, arch));
                let x = sys.run_with(RunOptions::new(Workload::Xdh));
                assert!(x.cycles > 100_000, "{curve:?} {arch:?}");
                assert!(x.energy_uj() > 0.0);
                let h = sys.run_with(RunOptions::new(Workload::Handshake));
                assert!(
                    h.cycles > x.cycles,
                    "{curve:?} {arch:?}: the handshake adds the certifying ECDSA flight"
                );
                assert!(h.energy_uj() > x.energy_uj());
            }
        }
    }

    #[test]
    fn monte_accelerates_the_ladder() {
        let base = System::new(SystemConfig::new(CurveId::X25519, Arch::Baseline))
            .run_with(RunOptions::new(Workload::Xdh));
        let monte = System::new(SystemConfig::new(CurveId::X25519, Arch::Monte))
            .run_with(RunOptions::new(Workload::Xdh));
        assert!(
            monte.cycles * 4 < base.cycles,
            "monte {} !<< base {}",
            monte.cycles,
            base.cycles
        );
    }

    #[test]
    fn workload_validity_is_a_typed_error() {
        assert_eq!(
            validate_workload(CurveId::X25519, Arch::Baseline, Workload::Sign),
            Err(WorkloadError::EcdsaOnLadderCurve {
                curve: CurveId::X25519,
                workload: Workload::Sign,
            })
        );
        assert_eq!(
            validate_workload(CurveId::P192, Arch::Baseline, Workload::Xdh),
            Err(WorkloadError::LadderOnEcdsaCurve {
                curve: CurveId::P192,
                workload: Workload::Xdh,
            })
        );
        assert_eq!(
            validate_workload(CurveId::X25519, Arch::Billie, Workload::Xdh),
            Err(WorkloadError::ArchCurveMismatch {
                arch: Arch::Billie,
                curve: CurveId::X25519,
            })
        );
        assert_eq!(
            validate_workload(CurveId::K163, Arch::Billie, Workload::Handshake),
            Err(WorkloadError::LadderOnEcdsaCurve {
                curve: CurveId::K163,
                workload: Workload::Handshake,
            })
        );
        assert!(validate_workload(CurveId::X448, Arch::Monte, Workload::Handshake).is_ok());
        assert!(validate_workload(CurveId::X25519, Arch::IsaExt, Workload::Xdh).is_ok());
    }

    #[test]
    #[should_panic(expected = "RFC 7748 ladder curve")]
    fn ecdsa_on_a_ladder_curve_panics_with_the_typed_message() {
        System::new(SystemConfig::new(CurveId::X25519, Arch::Baseline))
            .run_with(RunOptions::new(Workload::SignVerify));
    }

    #[test]
    fn isa_ext_beats_baseline_on_p192() {
        let base = System::new(SystemConfig::new(CurveId::P192, Arch::Baseline))
            .run_with(RunOptions::new(Workload::ScalarMul));
        let ext = System::new(SystemConfig::new(CurveId::P192, Arch::IsaExt))
            .run_with(RunOptions::new(Workload::ScalarMul));
        assert!(
            ext.cycles < base.cycles,
            "ext {} !< base {}",
            ext.cycles,
            base.cycles
        );
        assert!(ext.energy_uj() < base.energy_uj());
    }
}
