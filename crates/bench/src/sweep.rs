//! The thread-safe sweep engine: every (timing point, entry) pair is
//! simulated at most once per engine, concurrently callable from any
//! number of threads, with a scoped-thread fan-out for batch sweeps.
//!
//! This replaced the old single-threaded `Rc`-based `Runner` (since
//! deleted). The
//! design-space evaluation is an embarrassingly parallel batch workload
//! — 6 configurations × 10 curves × icache/digit/front-end ablations,
//! every point independent of every other — so the memo cache is one
//! `Mutex<HashMap<ConfigKey, Arc<OnceLock<Simulation>>>>` keyed by
//! `(SystemConfig::timing(), entry)`. A request clones its cell out of
//! the map and initializes it outside the lock, so two threads asking
//! for the same entry never simulate it twice: the second blocks in
//! [`OnceLock::get_or_init`] until the first publishes. A simulation
//! that panics leaves its cell empty; a thread blocked on it then runs
//! the simulation itself (and fails with the same message), and later
//! requests retry.
//!
//! **Workloads are entry sums.** A workload is a fixed list of program
//! entries ([`Workload::entries`]): `SignVerify` is `main_sign` then
//! `main_verify`, and `Handshake` is `main_xdh` plus the pair curve's
//! `main_sign` and `main_verify`. The engine simulates each entry once
//! and a workload's report is its entries' [`Simulation::sum`] priced
//! once, so `Sign`, `Verify` and `SignVerify` of one point share two
//! simulations, and a handshake shares its companion with the pair
//! curve's `SignVerify`.
//!
//! **Simulate once, price per sibling.** Configurations that differ only
//! in an energy-only knob (gating, Billie's SRAM register file, the §7.8
//! multiplier variant) share their entry keys. Every sibling, then or
//! later, is priced from the stored entry simulations with one
//! energy-model call and memoized, so identical full configurations
//! still return the same `Arc<RunReport>`.
//!
//! **One curve context per curve.** Every system the engine builds on a
//! curve shares one [`CurveContext`], built on first use: one `Curve`
//! (and so one k·G comb table), one host reference (the expected value
//! every simulated output is compared against) and one program image
//! per arch. A [`System`] is then a free view of its context, so the
//! engine builds one per simulation and keeps none.
//!
//! Determinism: an entry simulation is a pure function of its
//! `(timing, entry)` key and a report of its full configuration, so
//! every energy/cycle number is independent of thread count and
//! submission order — parallel sweeps are bit-for-bit equal to serial
//! ones, and equal to a fresh [`System::run_with`] on every point.
//!
//! ```no_run
//! use ule_bench::SweepEngine;
//! use ule_core::{SystemConfig, Workload};
//! use ule_curves::params::CurveId;
//! use ule_swlib::builder::Arch;
//!
//! let engine = SweepEngine::new();
//! let jobs: Vec<_> = CurveId::PRIMES
//!     .iter()
//!     .map(|&c| (SystemConfig::new(c, Arch::Baseline), Workload::SignVerify))
//!     .collect();
//! for report in engine.run_batch(&jobs) {
//!     println!("{:.1} uJ", report.energy_uj());
//! }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};
use ule_core::{
    CurveContext, Entry, MultVariant, RunReport, Simulation, System, SystemConfig, Workload,
};
use ule_curves::params::CurveId;
use ule_monte::MonteConfig;
use ule_pete::cpu::EngineTier;
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

/// One design point plus the workload to run on it — a batch job.
pub type Job = (SystemConfig, Workload);

/// Typed key of one (configuration, workload) pair.
///
/// `Hash`/`Eq` are derived straight from [`SystemConfig`] and
/// [`Workload`], so every knob (curve, arch, icache tuple, Monte
/// front-end, Billie digit, multiplier variant, gating, SRAM register
/// file) participates — two keys are equal exactly when the design
/// points are identical. This replaces both the old stringly
/// `format!`-based system key and the hand-maintained ad-hoc `Key`
/// struct, which silently dropped any knob nobody remembered to add.
///
/// The engine's entry memo uses keys whose config is a
/// [`SystemConfig::timing`] value and whose workload is an entry's
/// single-entry workload ([`Entry::workload`]): equal such keys mean
/// identical entry simulations, and its [`JobSpan`]s carry them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConfigKey {
    /// The design point.
    pub config: SystemConfig,
    /// The workload run on it.
    pub workload: Workload,
}

impl ConfigKey {
    /// Key for one (configuration, workload) pair.
    pub fn new(config: SystemConfig, workload: Workload) -> Self {
        ConfigKey { config, workload }
    }

    /// Compact human/machine label, e.g.
    /// `P-192/monte/sign_verify` with non-default knobs appended
    /// (`ic1024p`, `nodb`, `q2`, `d4`, `operand_scan`, `clock`, …) —
    /// used by trace events and the engine summary of `--metrics-out`.
    /// Names print through their `key()` spelling.
    pub fn label(&self) -> String {
        let c = &self.config;
        let mut s = format!(
            "{}/{}/{}",
            c.curve.name(),
            c.arch.key(),
            self.workload.key()
        );
        if let Some(ic) = c.icache {
            s.push_str(&format!(
                "/ic{}{}{}",
                ic.size_bytes,
                if ic.prefetch { "p" } else { "" },
                if ic.ideal { "i" } else { "" }
            ));
        }
        if !c.monte.double_buffer {
            s.push_str("/nodb");
        }
        if !c.monte.forwarding {
            s.push_str("/nofwd");
        }
        if c.monte.queue_depth != MonteConfig::default().queue_depth {
            s.push_str(&format!("/q{}", c.monte.queue_depth));
        }
        if c.billie_digit != 3 {
            s.push_str(&format!("/d{}", c.billie_digit));
        }
        if c.mult_variant != MultVariant::Karatsuba {
            s.push_str(&format!("/{}", c.mult_variant.key()));
        }
        if c.gating != ule_energy::report::Gating::None {
            s.push_str(&format!("/{}", c.gating.key()));
        }
        if c.billie_sram_rf {
            s.push_str("/sramrf");
        }
        s
    }
}

/// Locks a mutex, ignoring poisoning: the maps stay structurally valid
/// across a payload panic, which never runs under their locks.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The thread-safe memoizing sweep engine.
///
/// Cheap to share: every method takes `&self`, so one engine can serve
/// a whole process (wrap it in an `Arc` or hand out plain references
/// from a scope). See the [module docs](self) for the caching and
/// determinism contract.
pub struct SweepEngine {
    /// Entry-simulation memo, keyed by (timing point, entry). The lock
    /// guards only the map; each cell is initialized outside it.
    entries: Mutex<HashMap<ConfigKey, Arc<OnceLock<Simulation>>>>,
    /// Report memo, keyed by full (configuration, workload).
    reports: Mutex<HashMap<ConfigKey, Arc<RunReport>>>,
    /// One curve context per curve (indexed by `CurveId`), built on
    /// first use and shared by every system on that curve.
    curves: [OnceLock<Arc<CurveContext>>; CurveId::ALL.len() + CurveId::XCURVES.len()],
    threads: usize,
    /// Whether every simulation collects the per-routine profile; fixed
    /// for the engine's life, so a memoized report's `profile` never
    /// depends on which request came first.
    profile: bool,
    simulations: AtomicU64,
    requests: AtomicU64,
    memo_hits: AtomicU64,
    inflight_waits: AtomicU64,
    /// Engine construction time — the zero point of job-span starts.
    epoch: Instant,
    /// One span per entry simulation executed, in completion order
    /// (memo hits and priced siblings don't append).
    spans: Mutex<Vec<JobSpan>>,
}

/// Wall-clock span of one entry simulation executed, relative to the
/// engine's construction — the harness-level track of the merged trace
/// export.
#[derive(Clone, Debug)]
pub struct JobSpan {
    /// The simulated (timing point, entry): its config is a
    /// [`SystemConfig::timing`] value, whichever sibling asked first,
    /// and its workload the entry's single-entry workload.
    pub key: ConfigKey,
    /// Start offset from engine construction.
    pub start: Duration,
    /// Simulation wall-clock.
    pub wall: Duration,
    /// OS thread that ran the simulation (worker threads are named).
    pub thread: String,
}

/// A snapshot of the engine's request/memoization counters — the
/// `engine_summary` record of `--metrics-out`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total `run` calls (batch jobs included).
    pub requests: u64,
    /// Requests that neither simulated nor waited: the memoized report,
    /// or a report priced from finished entry simulations.
    pub memo_hits: u64,
    /// Entry lookups that received a simulation another thread ran
    /// while they waited for it.
    pub inflight_waits: u64,
    /// Entry simulations executed (one per distinct timing point and
    /// entry). A single-entry request counts once in exactly one of
    /// `memo_hits`, `inflight_waits` and `simulations`.
    pub simulations: u64,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// Fresh engine sized from `std::thread::available_parallelism`,
    /// overridable with the `ULE_SWEEP_THREADS` environment variable
    /// (or [`SweepEngine::with_threads`]).
    pub fn new() -> Self {
        let default_threads = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let threads = match std::env::var("ULE_SWEEP_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    // Previously this fell back silently, making a typo'd
                    // override indistinguishable from a working one.
                    ule_obs::obs_warn_once!(
                        "ULE_SWEEP_THREADS must be a positive integer; \
                         falling back to available parallelism",
                        value = v.as_str(),
                    );
                    default_threads()
                }
            },
            Err(_) => default_threads(),
        };
        SweepEngine {
            entries: Mutex::new(HashMap::new()),
            reports: Mutex::new(HashMap::new()),
            curves: Default::default(),
            threads,
            profile: false,
            simulations: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the batch fan-out width (`n` is clamped to ≥ 1).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Attaches the per-routine cycle profiler to every simulation this
    /// engine runs, so every report carries a `profile`.
    pub fn profiled(mut self) -> Self {
        self.profile = true;
        self
    }

    /// The batch fan-out width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of entry simulations executed so far (memo misses). Memo
    /// hits, priced siblings and in-flight waits don't count.
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// Snapshot of the request/memoization counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
        }
    }

    /// Wall-clock of every entry simulation executed so far, `(key,
    /// duration)`, in completion order. The key is the simulated (timing
    /// point, entry) as a [`JobSpan`] holds it; memo hits, priced
    /// siblings and in-flight waits don't appear, so a key occurs at
    /// most once.
    pub fn job_timings(&self) -> Vec<(ConfigKey, Duration)> {
        lock(&self.spans).iter().map(|s| (s.key, s.wall)).collect()
    }

    /// Full spans of every simulation executed so far (start offset from
    /// engine construction, duration, worker thread), in completion
    /// order — the harness track of the merged trace export.
    pub fn job_spans(&self) -> Vec<JobSpan> {
        lock(&self.spans).clone()
    }

    /// Runs (or recalls) one workload on one configuration.
    ///
    /// Concurrent calls with the same key return the *same*
    /// `Arc<RunReport>`. Each of the workload's entries is simulated at
    /// most once per timing point, and the report is priced from their
    /// [`Simulation::sum`].
    pub fn run(&self, config: SystemConfig, workload: Workload) -> Arc<RunReport> {
        let key = ConfigKey::new(config, workload);
        self.requests.fetch_add(1, Ordering::Relaxed);
        // A no-op, and no label, unless the current recorder runs a
        // progress reporter.
        let _progress = ule_obs::progress::job(|| key.label());
        let memoized = lock(&self.reports).get(&key).cloned();
        let mut cold = false;
        let report = match memoized {
            Some(report) => report,
            None => {
                let timing = config.timing();
                let parts = workload
                    .entries(config.curve)
                    .into_iter()
                    .map(|(curve, entry)| {
                        let (sim, cold_entry) = self.entry(SystemConfig { curve, ..timing }, entry);
                        cold |= cold_entry;
                        sim
                    });
                let report = Arc::new(Simulation::sum(parts).report(&config));
                lock(&self.reports).entry(key).or_insert(report).clone()
            }
        };
        if !cold {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            ule_obs::obs_event!("sweep.memo_hit", job = key.label());
            ule_obs::progress::memo_hit();
        }
        report
    }

    /// The simulation of one entry at one timing point, and whether this
    /// call simulated it or waited for it.
    fn entry(&self, timing: SystemConfig, entry: Entry) -> (Simulation, bool) {
        let key = ConfigKey::new(timing, entry.workload());
        let cell = lock(&self.entries).entry(key).or_default().clone();
        if let Some(sim) = cell.get() {
            return (sim.clone(), false);
        }
        let mut simulated = false;
        let sim = cell.get_or_init(|| {
            simulated = true;
            self.simulate(key, entry)
        });
        if !simulated {
            self.inflight_waits.fetch_add(1, Ordering::Relaxed);
            ule_obs::obs_event!("sweep.inflight_wait", job = key.label());
        }
        (sim.clone(), true)
    }

    /// Runs one entry simulation and records its span.
    fn simulate(&self, key: ConfigKey, entry: Entry) -> Simulation {
        let started = Instant::now();
        let curve = key.config.curve;
        let ctx = self.curves[curve as usize].get_or_init(|| Arc::new(CurveContext::new(curve)));
        let sim = System::with_context(key.config, Arc::clone(ctx)).simulate_entry(
            entry,
            self.profile,
            EngineTier::default(),
        );
        let wall = started.elapsed();
        self.simulations.fetch_add(1, Ordering::Relaxed);
        lock(&self.spans).push(JobSpan {
            key,
            start: started.duration_since(self.epoch),
            wall,
            thread: std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("{:?}", std::thread::current().id())),
        });
        ule_obs::obs_event!(
            "sweep.job",
            job = key.label(),
            wall_us = wall.as_micros() as u64,
            cycles = sim.counters.cycles,
        );
        sim
    }

    /// Fans `jobs` out across a scoped thread pool and returns their
    /// reports in submission order.
    ///
    /// Pool width is [`SweepEngine::threads`], capped at the job count.
    /// Duplicate jobs (and jobs already cached) are de-duplicated by the
    /// memo, so submitting the union of several experiments' points is
    /// cheap. Results are identical to calling [`SweepEngine::run`]
    /// serially — thread count never changes a number.
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<Arc<RunReport>> {
        let workers = self.threads.min(jobs.len()).max(1);
        let mut batch_span = ule_obs::span("sweep.batch");
        batch_span
            .field("jobs", jobs.len())
            .field("workers", workers);
        ule_obs::progress::add_total(jobs.len() as u64);
        ule_obs::pool::map(jobs, workers, "sweep", |&(config, workload)| {
            self.run(config, workload)
        })
    }

    // ---- The standard points of the paper's evaluation --------------

    /// Sign+Verify on the standard configuration of (curve, arch).
    pub fn sv(&self, curve: CurveId, arch: Arch) -> Arc<RunReport> {
        self.run(SystemConfig::new(curve, arch), Workload::SignVerify)
    }

    /// Sign+Verify with an instruction cache.
    pub fn sv_cached(&self, curve: CurveId, arch: Arch, cache: CacheConfig) -> Arc<RunReport> {
        self.run(
            SystemConfig::new(curve, arch).with_icache(cache),
            Workload::SignVerify,
        )
    }

    /// Monte with explicit front-end knobs.
    pub fn sv_monte(&self, curve: CurveId, monte: MonteConfig) -> Arc<RunReport> {
        self.run(
            SystemConfig::new(curve, Arch::Monte).with_monte(monte),
            Workload::SignVerify,
        )
    }

    /// Billie scalar multiplication with an explicit digit width.
    pub fn kg_billie(&self, curve: CurveId, digit: usize) -> Arc<RunReport> {
        self.run(
            SystemConfig::new(curve, Arch::Billie).with_billie_digit(digit),
            Workload::ScalarMul,
        )
    }
}
