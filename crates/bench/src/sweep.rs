//! The thread-safe sweep engine: every (timing point, workload) pair is
//! simulated at most once per engine, concurrently callable from any
//! number of threads, with a scoped-thread fan-out for batch sweeps.
//!
//! This replaced the old single-threaded `Rc`-based `Runner` (since
//! deleted). The
//! design-space evaluation is an embarrassingly parallel batch workload
//! — 6 configurations × 10 curves × icache/digit/front-end ablations,
//! every point independent of every other — so the memo cache is a
//! sharded `Mutex<HashMap<ConfigKey, _>>` keyed by
//! `(SystemConfig::timing(), Workload)`, with per-key *in-flight
//! de-duplication*: two threads asking for the same timing point never
//! simulate it twice; the second blocks until the first publishes.
//!
//! **Simulate once, price per sibling.** Configurations that differ only
//! in an energy-only knob (gating, Billie's SRAM register file, the §7.8
//! multiplier variant) share one key. The first request simulates; every
//! sibling, then or later, is priced from the stored
//! [`ule_core::Simulation`] with one energy-model call and memoized, so
//! identical full configurations still return the same `Arc<RunReport>`.
//!
//! Determinism: a simulation is a pure function of its
//! `(timing, workload)` key and a report of its full configuration, so
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
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use ule_core::{MultVariant, RunOptions, RunReport, Simulation, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_monte::MonteConfig;
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
/// The engine's memo uses keys whose config is a
/// [`SystemConfig::timing`] value: equal such keys mean identical
/// simulations, and its [`JobSpan`]s carry them.
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
    /// (`ic1024p`, `d4`, …) — used by trace events and the engine
    /// summary of `--metrics-out`.
    pub fn label(&self) -> String {
        let c = &self.config;
        let mut s = format!(
            "{}/{}/{}",
            c.curve.name(),
            match c.arch {
                Arch::Baseline => "baseline",
                Arch::IsaExt => "isa_ext",
                Arch::Monte => "monte",
                Arch::Billie => "billie",
            },
            ule_core::metrics::workload_key(self.workload),
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
        if c.billie_digit != 3 {
            s.push_str(&format!("/d{}", c.billie_digit));
        }
        if c.mult_variant != MultVariant::Karatsuba {
            s.push_str(&format!("/{:?}", c.mult_variant));
        }
        if c.gating != ule_energy::report::Gating::None {
            s.push_str(&format!("/{:?}", c.gating));
        }
        if c.billie_sram_rf {
            s.push_str("/sramrf");
        }
        s
    }

    fn shard(&self) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }
}

const SHARDS: usize = 16;

/// State of one in-flight simulation, shared between the computing
/// thread and any waiters.
struct InFlight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Running,
    /// The simulation is in the memo map as a [`Slot::Done`].
    Ready,
    /// The computing thread panicked (e.g. a simulated signature failed
    /// host verification). Waiters propagate the panic instead of
    /// hanging forever.
    Poisoned,
}

impl InFlight {
    fn new() -> Arc<Self> {
        Arc::new(InFlight {
            state: Mutex::new(FlightState::Running),
            done: Condvar::new(),
        })
    }

    fn wait(&self) {
        let mut st = lock(&self.state);
        loop {
            match &*st {
                FlightState::Running => st = self.done.wait(st).unwrap_or_else(|e| e.into_inner()),
                FlightState::Ready => return,
                FlightState::Poisoned => {
                    panic!("simulation of this design point panicked in another thread")
                }
            }
        }
    }

    fn publish(&self, state: FlightState) {
        *lock(&self.state) = state;
        self.done.notify_all();
    }
}

enum Slot {
    InFlight(Arc<InFlight>),
    Done(Box<Priced>),
}

/// A finished simulation and the reports priced from it so far, one per
/// full configuration asked for (at most a few energy-only siblings).
struct Priced {
    sim: Simulation,
    reports: Vec<(SystemConfig, Arc<RunReport>)>,
}

impl Priced {
    /// The memoized report for `config`, priced on first request.
    fn report(&mut self, config: SystemConfig) -> Arc<RunReport> {
        if let Some((_, r)) = self.reports.iter().find(|(c, _)| *c == config) {
            return r.clone();
        }
        let r = Arc::new(self.sim.report(&config));
        self.reports.push((config, r.clone()));
        r
    }
}

/// Locks a mutex, ignoring poisoning: shard maps stay structurally
/// valid across a payload panic, and in-flight poisoning is handled
/// explicitly via [`FlightState::Poisoned`].
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
    /// Sharded simulation memo, keyed by timing point — `SHARDS`
    /// independent locks so unrelated points never contend.
    shards: Vec<Mutex<HashMap<ConfigKey, Slot>>>,
    /// Built systems, shared across the workloads of one timing point
    /// (`System::simulate` takes `&self`, so concurrent runs share one
    /// program image).
    systems: Mutex<HashMap<SystemConfig, Arc<System>>>,
    threads: usize,
    simulations: AtomicU64,
    requests: AtomicU64,
    memo_hits: AtomicU64,
    inflight_waits: AtomicU64,
    /// Engine construction time — the zero point of job-span starts.
    epoch: Instant,
    /// One span per simulation executed, in completion order (memo hits
    /// and priced siblings don't append).
    spans: Mutex<Vec<JobSpan>>,
}

/// Wall-clock span of one simulation executed, relative to the engine's
/// construction — the harness-level track of the merged trace export.
#[derive(Clone, Debug)]
pub struct JobSpan {
    /// The simulated timing point (its config is a
    /// [`SystemConfig::timing`] value, whichever sibling asked first).
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
    /// Requests answered from a finished simulation: the memoized
    /// report, or a report priced from a sibling's simulation.
    pub memo_hits: u64,
    /// Requests that blocked on another thread's in-flight simulation.
    pub inflight_waits: u64,
    /// Simulations actually executed (one per distinct timing point
    /// and workload).
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
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            systems: Mutex::new(HashMap::new()),
            threads,
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

    /// The batch fan-out width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of simulations executed so far (memo misses). Memo hits,
    /// priced siblings and in-flight waits don't count — the difference
    /// between this and the number of requests is what the cache saved.
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

    /// Wall-clock of every simulation executed so far, `(key,
    /// duration)`, in completion order. The key is the simulated timing
    /// point; memo hits, priced siblings and in-flight waits don't
    /// appear, so a key occurs at most once.
    pub fn job_timings(&self) -> Vec<(ConfigKey, Duration)> {
        lock(&self.spans).iter().map(|s| (s.key, s.wall)).collect()
    }

    /// Full spans of every simulation executed so far (start offset from
    /// engine construction, duration, worker thread), in completion
    /// order — the harness track of the merged trace export.
    pub fn job_spans(&self) -> Vec<JobSpan> {
        lock(&self.spans).clone()
    }

    /// The shared built system for one timing point.
    fn system(&self, config: SystemConfig) -> Arc<System> {
        if let Some(s) = lock(&self.systems).get(&config) {
            return s.clone();
        }
        // Built outside the lock: suite codegen is much cheaper than a
        // simulation, so a racing duplicate build is preferable to
        // serializing every build behind one lock. First insert wins.
        let sys = Arc::new(System::new(config));
        lock(&self.systems).entry(config).or_insert(sys).clone()
    }

    /// Runs (or recalls) one workload on one configuration.
    ///
    /// Concurrent calls with the same key return the *same*
    /// `Arc<RunReport>`; at most one call per timing point simulates,
    /// and the rest are priced from its [`Simulation`].
    pub fn run(&self, config: SystemConfig, workload: Workload) -> Arc<RunReport> {
        let key = ConfigKey::new(config.timing(), workload);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let label = ConfigKey::new(config, workload).label();
        // Progress hooks are process-global no-ops unless the CLI
        // started a reporter; token 0 makes `job_done` a no-op too.
        let progress = ule_obs::progress::job_started(&label);
        let shard = &self.shards[key.shard()];
        let mut waited = false;
        let flight = loop {
            let mut map = lock(shard);
            match map.get_mut(&key) {
                Some(Slot::Done(priced)) => {
                    let report = priced.report(config);
                    drop(map);
                    if !waited {
                        self.memo_hits.fetch_add(1, Ordering::Relaxed);
                        ule_obs::obs_event!("sweep.memo_hit", job = label.as_str());
                        ule_obs::progress::memo_hit();
                    }
                    ule_obs::progress::job_done(progress);
                    return report;
                }
                Some(Slot::InFlight(f)) => {
                    let f = f.clone();
                    drop(map);
                    self.inflight_waits.fetch_add(1, Ordering::Relaxed);
                    ule_obs::obs_event!("sweep.inflight_wait", job = label.as_str());
                    // Panics if the simulation did; on success the slot
                    // is `Done` and the next lookup prices from it.
                    f.wait();
                    waited = true;
                }
                None => {
                    let f = InFlight::new();
                    map.insert(key, Slot::InFlight(f.clone()));
                    break f;
                }
            }
        };
        // We own the simulation. If it panics (a simulated run that
        // fails host verification does), unpoison the slot so waiters
        // and retries see the failure rather than deadlocking.
        let mut guard = FlightGuard {
            engine: self,
            key,
            flight: &flight,
            armed: true,
        };
        let started = Instant::now();
        let sim = self.system(key.config).simulate(RunOptions::new(workload));
        let wall = started.elapsed();
        let report = Arc::new(sim.report(&config));
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
            cycles = report.cycles,
        );
        guard.armed = false; // infallible from here on
        let priced = Priced {
            sim,
            reports: vec![(config, report.clone())],
        };
        lock(shard).insert(key, Slot::Done(Box::new(priced)));
        flight.publish(FlightState::Ready);
        ule_obs::progress::job_done(progress);
        report
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
        let mut results: Vec<Option<Arc<RunReport>>> = vec![None; jobs.len()];
        if workers == 1 {
            for (slot, &(config, workload)) in results.iter_mut().zip(jobs) {
                *slot = Some(self.run(config, workload));
            }
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<&mut Option<Arc<RunReport>>>> =
                results.iter_mut().map(Mutex::new).collect();
            let worker_loop = |worker: usize| {
                let spawned = Instant::now();
                let mut busy = Duration::ZERO;
                let mut processed = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(config, workload)) = jobs.get(i) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let report = self.run(config, workload);
                    busy += t0.elapsed();
                    processed += 1;
                    **lock(&slots[i]) = Some(report);
                }
                // Per-thread utilization: busy/alive ≈ 1 means
                // the pool width was the bottleneck, not memo
                // contention or in-flight waits.
                ule_obs::obs_event!(
                    "sweep.worker",
                    worker = worker,
                    jobs = processed,
                    busy_us = busy.as_micros() as u64,
                    alive_us = spawned.elapsed().as_micros() as u64,
                );
            };
            std::thread::scope(|scope| {
                let worker_loop = &worker_loop;
                let mut spawned = 0usize;
                for worker in 0..workers {
                    // A spawn failure (thread limit, resource exhaustion)
                    // degrades the pool instead of panicking: already
                    // spawned workers — or, with none, the caller thread
                    // itself — drain the same atomic job queue, so every
                    // slot is still filled and results are unchanged.
                    let spawn = if ule_testkit::threads::spawn_blocked() {
                        Err(std::io::Error::other("spawn blocked by test shim"))
                    } else {
                        std::thread::Builder::new()
                            .name(format!("sweep-{worker}"))
                            .spawn_scoped(scope, move || worker_loop(worker))
                            .map(|_| ())
                    };
                    match spawn {
                        Ok(()) => spawned += 1,
                        Err(err) => {
                            ule_obs::obs_warn_once!(
                                "sweep worker spawn failed; continuing with fewer workers",
                                requested = workers,
                                spawned = spawned,
                                error = err.to_string(),
                            );
                            break;
                        }
                    }
                }
                if spawned == 0 {
                    worker_loop(0);
                }
            });
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot filled"))
            .collect()
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

/// Drop guard that marks an in-flight slot poisoned if the simulation
/// unwinds, so waiters panic instead of deadlocking and later calls
/// retry the point.
struct FlightGuard<'a> {
    engine: &'a SweepEngine,
    key: ConfigKey,
    flight: &'a Arc<InFlight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock(&self.engine.shards[self.key.shard()]).remove(&self.key);
            self.flight.publish(FlightState::Poisoned);
        }
    }
}
