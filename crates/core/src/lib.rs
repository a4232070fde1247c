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
//!
//! A workload is a fixed, ordered list of program [`Entry`] points
//! ([`Workload::entries`]). [`System::simulate_entry`] runs one of them
//! on a fresh machine, and a workload's [`Simulation`] is the in-order
//! [`Simulation::sum`] of its entries', so a memo keyed by (timing
//! point, entry) never simulates one entry twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod metrics;
pub mod space;

use std::sync::{Arc, OnceLock};
use ule_billie::{Billie, BillieConfig};
use ule_curves::ecdsa::{self, Keypair};
use ule_curves::params::{Curve, CurveId};
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
use ule_swlib::harness::{read_buf, run_entry, write_buf, RunError, DEFAULT_MAX_CYCLES};

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
    /// Every variant, the paper's design point first.
    pub const ALL: [MultVariant; 3] = [
        MultVariant::Karatsuba,
        MultVariant::OperandScan,
        MultVariant::Parallel,
    ];

    /// The metrics-schema spelling (`"operand_scan"`, …).
    pub fn key(self) -> &'static str {
        match self {
            MultVariant::Karatsuba => "karatsuba",
            MultVariant::OperandScan => "operand_scan",
            MultVariant::Parallel => "parallel",
        }
    }

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
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 7] = [
        Workload::Sign,
        Workload::Verify,
        Workload::SignVerify,
        Workload::ScalarMul,
        Workload::FieldMul,
        Workload::Xdh,
        Workload::Handshake,
    ];

    /// The metrics-schema spelling (`"sign_verify"`, …).
    pub fn key(self) -> &'static str {
        match self {
            Workload::Sign => "sign",
            Workload::Verify => "verify",
            Workload::SignVerify => "sign_verify",
            Workload::ScalarMul => "scalar_mul",
            Workload::FieldMul => "field_mul",
            Workload::Xdh => "xdh",
            Workload::Handshake => "handshake",
        }
    }

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

    /// The workload's entry simulations on `curve`, in order. Each runs
    /// on a fresh machine; the workload's [`Simulation`] is their sum.
    /// `Handshake`'s certifying signature runs on the equivalent-security
    /// ECDSA curve ([`CurveId::security_pair`]).
    pub fn entries(self, curve: CurveId) -> Vec<(CurveId, Entry)> {
        let pair = curve.security_pair();
        match self {
            Workload::Sign => vec![(curve, Entry::Sign)],
            Workload::Verify => vec![(curve, Entry::Verify)],
            Workload::SignVerify => vec![(curve, Entry::Sign), (curve, Entry::Verify)],
            Workload::ScalarMul => vec![(curve, Entry::ScalarMul)],
            Workload::FieldMul => vec![(curve, Entry::FieldMul)],
            Workload::Xdh => vec![(curve, Entry::Xdh)],
            Workload::Handshake => vec![
                (curve, Entry::Xdh),
                (pair, Entry::Sign),
                (pair, Entry::Verify),
            ],
        }
    }
}

/// One program entry point of the suite: the unit the simulator runs on
/// a fresh machine and checks against the host (see
/// [`System::simulate_entry`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Entry {
    /// `main_sign`: one ECDSA signature.
    Sign,
    /// `main_verify`: one ECDSA verification.
    Verify,
    /// `main_scalar_mul`: one `k·G`.
    ScalarMul,
    /// `main_fmul`: one field multiplication.
    FieldMul,
    /// `main_xdh`: one X25519/X448 ladder.
    Xdh,
}

impl Entry {
    /// The suite symbol the entry starts at.
    pub fn symbol(self) -> &'static str {
        match self {
            Entry::Sign => "main_sign",
            Entry::Verify => "main_verify",
            Entry::ScalarMul => "main_scalar_mul",
            Entry::FieldMul => "main_fmul",
            Entry::Xdh => "main_xdh",
        }
    }

    /// The single-entry workload that runs exactly this entry (its
    /// validity rule and its label).
    pub fn workload(self) -> Workload {
        match self {
            Entry::Sign => Workload::Sign,
            Entry::Verify => Workload::Verify,
            Entry::ScalarMul => Workload::ScalarMul,
            Entry::FieldMul => Workload::FieldMul,
            Entry::Xdh => Workload::Xdh,
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    /// Any spelling of a key under [`ule_curves::params::spells`].
    fn from_str(s: &str) -> Result<Self, String> {
        ule_curves::params::parse_name("workload", s, &Workload::ALL, Workload::key)
    }
}

impl std::str::FromStr for MultVariant {
    type Err = String;

    /// Any spelling of a key under [`ule_curves::params::spells`].
    fn from_str(s: &str) -> Result<Self, String> {
        ule_curves::params::parse_name("mult_variant", s, &MultVariant::ALL, MultVariant::key)
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
    /// Never profile this run.
    Off,
}

/// Everything that varies per [`System::run_with`] call: the workload,
/// the profiling choice, and the execution-engine tier.
///
/// A [`Simulation`] is the same — bit for bit — whatever the profiling
/// mode and tier (profiling is observational; the fast engine is
/// bit-exact), so entry simulations remain valid memo-cache values keyed
/// only by `(SystemConfig::timing(), Entry)`, and every report priced
/// from their sum is a pure function of its full `SystemConfig` (see
/// `ule-bench`'s `SweepEngine`).
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// The simulated ECDSA workload.
    pub workload: Workload,
    /// Per-routine profiling choice (default: follow the global flag).
    pub profile: ProfileMode,
    /// Execution-engine tier (default: fast, profiled or not).
    pub tier: EngineTier,
}

impl RunOptions {
    /// Options for a workload with default profiling and tier.
    pub fn new(workload: Workload) -> Self {
        RunOptions {
            workload,
            profile: ProfileMode::default(),
            tier: EngineTier::default(),
        }
    }

    /// Forces per-routine profiling on for this run.
    pub fn profiled(mut self) -> Self {
        self.profile = ProfileMode::On;
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

/// The curve-only half of a system, shared by every system on one
/// curve: the [`Curve`] (so one k·G comb table) and the host reference
/// of every entry, computed on first use.
///
/// The host reference is the deterministic workload input plus the
/// output each entry must reproduce. It depends on the curve alone, so
/// systems that share a context share it; every simulated output is
/// still compared against it. [`System::new`] builds a private context;
/// a sweep that builds many systems hands them one per curve through
/// [`System::with_context`].
pub struct CurveContext {
    curve: Curve,
    host: OnceLock<HostRef>,
}

impl CurveContext {
    /// Builds the curve; the host reference waits for its first use.
    pub fn new(id: CurveId) -> Self {
        CurveContext {
            curve: id.curve(),
            host: OnceLock::new(),
        }
    }

    /// The curve.
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    /// The host reference, in limbs at the curve's width.
    fn host(&self) -> &HostRef {
        self.host.get_or_init(|| {
            let _sp = ule_obs::span("sys.host_ref");
            HostRef::new(&self.curve)
        })
    }
}

/// A built system: curve context + program image + configuration.
pub struct System {
    config: SystemConfig,
    ctx: Arc<CurveContext>,
    suite: Suite,
}

impl System {
    /// Builds the system on a private curve context (curve construction
    /// + suite codegen + link).
    pub fn new(config: SystemConfig) -> Self {
        System::with_context(config, Arc::new(CurveContext::new(config.curve)))
    }

    /// Builds the system on a shared curve context (suite codegen +
    /// link only).
    ///
    /// # Panics
    ///
    /// Panics if the context is for another curve.
    pub fn with_context(config: SystemConfig, ctx: Arc<CurveContext>) -> Self {
        assert_eq!(ctx.curve.id(), config.curve, "curve context mismatch");
        let mut sp = ule_obs::span("sys.assemble");
        sp.field("curve", config.curve.name())
            .field("arch", format!("{:?}", config.arch));
        System {
            suite: build_suite(&ctx.curve, config.arch),
            config,
            ctx,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The curve (shared with every system on its context).
    pub fn curve(&self) -> &Curve {
        &self.ctx.curve
    }

    /// The built program image.
    pub fn suite(&self) -> &Suite {
        &self.suite
    }

    fn machine(&self, profiled: bool) -> Machine {
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
        let instr = if profiled {
            Instrumentation::profile(&self.suite.program.text_symbols())
        } else {
            Instrumentation::none()
        };
        b.instrumentation(instr).build()
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
    /// This is the in-order [`Simulation::sum`] of the workload's
    /// [`Workload::entries`], each from [`System::simulate_entry`]; the
    /// `Handshake` companion runs on a system built for its pair curve.
    ///
    /// # Panics
    ///
    /// Panics on an invalid `(curve, arch, workload)` triple, and if the
    /// simulated outputs disagree with the host reference — a
    /// wrong-but-fast simulation must never produce a data point.
    pub fn simulate(&self, opts: RunOptions) -> Simulation {
        let profile = match opts.profile {
            // The global flag is read once per run so a report is
            // internally consistent even if the flag changes
            // concurrently.
            ProfileMode::Auto => ule_obs::profiling_enabled(),
            ProfileMode::On => true,
            ProfileMode::Off => false,
        };
        if let Err(e) = validate_workload(self.config.curve, self.config.arch, opts.workload) {
            panic!("{e}");
        }
        let mut companion: Option<System> = None;
        let entries = opts.workload.entries(self.config.curve);
        Simulation::sum(entries.into_iter().map(|(curve, entry)| {
            let sys = if curve == self.config.curve {
                self
            } else {
                companion.get_or_insert_with(|| {
                    System::new(SystemConfig {
                        curve,
                        ..self.config
                    })
                })
            };
            sys.simulate_entry(entry, profile, opts.tier)
        }))
    }

    /// Simulates one entry point on a fresh machine at this system's
    /// timing point, with deterministic inputs, and checks its outputs
    /// against the host reference (`main_fmul` has none to check).
    ///
    /// # Panics
    ///
    /// Panics if the entry's single-entry workload is invalid on this
    /// system ([`validate_workload`]), on a cycle-limit overrun, and if a
    /// simulated output disagrees with the host.
    pub fn simulate_entry(&self, entry: Entry, profile: bool, tier: EngineTier) -> Simulation {
        if let Err(e) = validate_workload(self.config.curve, self.config.arch, entry.workload()) {
            panic!("{e}");
        }
        let (k, prog) = (self.suite.k, &self.suite.program);
        let host = self.ctx.host();
        let args: &[(&str, &[u32])] = match (host, entry) {
            (HostRef::Ecdsa(h), Entry::Sign) => {
                &[("arg_e", &h.e), ("arg_d", &h.d), ("arg_k", &h.nonce)]
            }
            (HostRef::Ecdsa(h), Entry::Verify) => &[
                ("arg_e", &h.e),
                ("arg_r", &h.r),
                ("arg_s", &h.s),
                ("arg_qx", &h.qx),
                ("arg_qy", &h.qy),
            ],
            (HostRef::Ecdsa(h), Entry::ScalarMul) => &[("arg_k", &h.nonce)],
            (HostRef::Ecdsa(h), Entry::FieldMul) => &[("arg_qx", &h.qx), ("arg_qy", &h.qy)],
            (HostRef::Xdh(h), Entry::Xdh) => &[("arg_k", &h.scalar), ("arg_qx", &h.peer_u)],
            _ => unreachable!("validated above"),
        };
        let (mut m, run) = self.run_entry(entry.symbol(), args, tier, profile);
        if let Err(e) = run {
            panic!("{e}");
        }
        match (host, entry) {
            (HostRef::Ecdsa(h), Entry::Sign) => {
                assert_eq!(read_buf(&m, prog, "out_r", k), h.r, "simulated r mismatch");
                assert_eq!(read_buf(&m, prog, "out_s", k), h.s, "simulated s mismatch");
            }
            (HostRef::Ecdsa(_), Entry::Verify) => assert_eq!(
                read_buf(&m, prog, "out_ok", 1),
                vec![1],
                "simulated verification rejected a valid signature"
            ),
            (HostRef::Ecdsa(h), Entry::ScalarMul) => {
                let expect = self.ctx.curve.mul_g(&h.nonce_mp).xy_limbs(k);
                assert_eq!(
                    read_buf(&m, prog, "out_r", k),
                    expect.0,
                    "simulated kG mismatch"
                );
            }
            (HostRef::Xdh(h), Entry::Xdh) => assert_eq!(
                read_buf(&m, prog, "out_r", k),
                h.shared,
                "simulated shared secret mismatch"
            ),
            _ => {}
        }
        Simulation::of_machine(self.config.timing(), &mut m)
    }

    /// Runs one program entry point on a fresh machine at this system's
    /// configuration and returns the finished machine: the one place a
    /// simulated machine is built and run, for published runs
    /// ([`System::simulate_entry`]) and differential campaigns alike.
    ///
    /// `inputs` are `(RAM buffer, limbs)` pairs written before the run;
    /// `tier` picks the execution engine, under the one cycle budget
    /// [`DEFAULT_MAX_CYCLES`]; `profile` attaches the per-routine cycle
    /// profiler. Loading and running are timed as the `sys.load` and
    /// `sys.sim` spans. The caller reads outputs back from the machine
    /// with [`read_buf`] against [`System::suite`]'s program.
    ///
    /// The machine comes back whether or not the run finished, so a
    /// caller can still read the cycles and counters of a run that
    /// failed. The result is the harness [`RunError`] if the program
    /// has no such entry or the entry overruns the budget; an overrun
    /// also dumps the flight recorder's event tail (the `cycle_limit`
    /// incident).
    ///
    /// # Panics
    ///
    /// Panics if an input names a RAM buffer the program lacks.
    pub fn run_entry(
        &self,
        symbol: &str,
        inputs: &[(&str, &[u32])],
        tier: EngineTier,
        profile: bool,
    ) -> (Machine, Result<(), RunError>) {
        let prog = &self.suite.program;
        let mut m = self.machine(profile);
        {
            let _sp = ule_obs::span("sys.load");
            for (name, value) in inputs {
                write_buf(&mut m, prog, name, value);
            }
        }
        let mut sp = ule_obs::span("sys.sim");
        let opts = ExecOptions::new(DEFAULT_MAX_CYCLES).with_tier(tier);
        let run = run_entry(&mut m, prog, symbol, opts).map(|_cycles| ());
        match &run {
            // Post-mortem: a runaway entry is exactly the case the
            // last-N-events ring exists for.
            Err(RunError::CycleLimit { .. }) => ule_obs::flight::note_incident("cycle_limit"),
            Err(_) => {}
            Ok(()) => {
                sp.field("entry", symbol)
                    .field("curve", self.config.curve.name())
                    .field("cycles", m.cycles());
            }
        }
        (m, run)
    }
}

/// The host reference of one curve, in limbs at the suite's width.
enum HostRef {
    Ecdsa(EcdsaRef),
    Xdh(XdhRef),
}

/// Deterministic ECDSA inputs shared by every configuration (so
/// cross-architecture comparisons run the very same operation), with
/// the signature the simulated `main_sign` must reproduce.
struct EcdsaRef {
    e: Vec<u32>,
    d: Vec<u32>,
    nonce: Vec<u32>,
    nonce_mp: Mp,
    r: Vec<u32>,
    s: Vec<u32>,
    qx: Vec<u32>,
    qy: Vec<u32>,
}

/// The deterministic handshake inputs of `main_xdh` and the shared
/// secret it must reproduce.
struct XdhRef {
    scalar: Vec<u32>,
    peer_u: Vec<u32>,
    shared: Vec<u32>,
}

impl HostRef {
    fn new(curve: &Curve) -> Self {
        let k = curve.limbs();
        if curve.id().is_mont() {
            let mc = curve.mont();
            // Our static key and the peer's ephemeral key: raw
            // (unclamped) scalars, deterministic so every configuration
            // agrees on the exact operation. The peer's public u is
            // itself a host ladder from the base point — a real ECDHE
            // pairing, so the simulated shared secret can be
            // cross-checked end to end.
            let raw_a = xdh_raw_scalar(k, 0xA11C_E000);
            let raw_b = xdh_raw_scalar(k, 0xB0B0_0000);
            let peer_u = mc.ladder(&mc.clamp(&limb_bytes(&raw_b)), mc.base_u());
            let shared = mc.ladder(&mc.clamp(&limb_bytes(&raw_a)), &peer_u);
            HostRef::Xdh(XdhRef {
                scalar: raw_a,
                peer_u: peer_u.limbs().to_vec(),
                shared: shared.limbs().to_vec(),
            })
        } else {
            let keys = Keypair::derive(curve, b"design-space signer");
            let e = ecdsa::hash_to_scalar(
                curve,
                b"the design space of ultra-low energy asymmetric cryptography",
            );
            let nonce = ecdsa::derive_scalar(curve, b"bench nonce", b"nonce");
            let sig = ecdsa::sign_with_nonce(curve, keys.private(), &e, &nonce)
                .expect("deterministic nonce is valid");
            let (qx, qy) = keys.public().xy_limbs(k);
            HostRef::Ecdsa(EcdsaRef {
                e: e.to_limbs(k),
                d: keys.private().to_limbs(k),
                nonce: nonce.to_limbs(k),
                nonce_mp: nonce,
                r: sig.r.to_limbs(k),
                s: sig.s.to_limbs(k),
                qx,
                qy,
            })
        }
    }
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

/// One simulated entry point, or a workload's sum of them: counters, raw
/// stats and profile, with every functional output already checked
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
    /// The finished machine's counters, stats and profile.
    fn of_machine(timing: SystemConfig, m: &mut Machine) -> Self {
        Simulation {
            timing,
            counters: m.counters(),
            raw: RawStats {
                rom: m.rom_stats(),
                ram: m.ram_stats(),
                icache: m.icache_stats(),
                cop: m.cop_stats(),
            },
            profile: m.take_profile(),
        }
    }

    /// The timing configuration that was simulated (a
    /// [`SystemConfig::timing`] value).
    pub fn timing(&self) -> SystemConfig {
        self.timing
    }

    /// The in-order sum of a workload's entry simulations
    /// ([`Workload::entries`]); the first part sets the timing point.
    ///
    /// Counters and raw stats add. Profiles of parts on the first
    /// part's curve merge; parts on another curve (the `Handshake`
    /// companion) merge into one side profile, which is absorbed under a
    /// `<curve>:` namespace because it covers another program image.
    /// Parts are consumed in order, so a lazy iterator holds one entry's
    /// profile at a time.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn sum(parts: impl IntoIterator<Item = Simulation>) -> Simulation {
        let mut parts = parts.into_iter();
        let mut total = parts.next().expect("a workload has at least one entry");
        let (mut side, mut side_curve) = (None, None);
        for part in parts {
            total.counters.accumulate(&part.counters);
            total.raw.accumulate(&part.raw);
            let Some(p) = part.profile else { continue };
            let slot = if part.timing.curve == total.timing.curve {
                &mut total.profile
            } else {
                side_curve = Some(part.timing.curve);
                &mut side
            };
            match slot {
                Some(acc) => acc.merge(&p),
                None => *slot = Some(p),
            }
        }
        if let (Some(curve), Some(p)) = (side_curve, side) {
            total
                .profile
                .get_or_insert_with(RoutineProfile::default)
                .absorb(&p, &format!("{}:", curve.name()));
        }
        total
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
    fn workloads_are_the_sums_of_their_entries() {
        let run = |curve, arch, w| {
            System::new(SystemConfig::new(curve, arch)).run_with(RunOptions::new(w).profiled())
        };
        let sign = run(CurveId::K163, Arch::Billie, Workload::Sign);
        let verify = run(CurveId::K163, Arch::Billie, Workload::Verify);
        let sv = run(CurveId::K163, Arch::Billie, Workload::SignVerify);
        let mut sum = sign.counters;
        sum.accumulate(&verify.counters);
        assert_eq!(sv.counters, sum);

        // A handshake is the ladder plus the pair curve's Sign+Verify,
        // whose profile appears once under the pair's prefix.
        let xdh = run(CurveId::X25519, Arch::Monte, Workload::Xdh);
        let pair = run(CurveId::P256, Arch::Monte, Workload::SignVerify);
        let hs = run(CurveId::X25519, Arch::Monte, Workload::Handshake);
        let mut sum = xdh.counters;
        sum.accumulate(&pair.counters);
        assert_eq!(hs.counters, sum);
        let routines = &hs.profile.as_ref().unwrap().routines;
        let prefixed: Vec<_> = routines
            .iter()
            .filter(|r| r.name.starts_with("P-256:"))
            .collect();
        assert_eq!(prefixed.len(), pair.profile.unwrap().routines.len());
        assert_eq!(prefixed.iter().map(|r| r.cycles).sum::<u64>(), pair.cycles);
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
