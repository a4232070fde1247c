//! The four workloads, their seeded inputs, one timed pass of each, and
//! the output checks that gate a pass.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ule_bench::{ConfigKey, ExperimentId, Job, SweepEngine};
use ule_core::space::{Axis, SpaceSpec};
use ule_core::{RunOptions, RunReport, System, SystemConfig, Workload};
use ule_curves::params::Curve;
use ule_curves::params::CurveId;
use ule_curves::scalar::OpCount;
use ule_dse::{Evaluator, ExploreOutcome, Grid, PointEval};
use ule_energy::report::Gating;
use ule_monte::MonteConfig;
use ule_serve::engine::{run_shards, ShardOutcome};
use ule_serve::request::{plan_shards, ShardPlan};
use ule_serve::vtime::CostModel;
use ule_serve::ServeConfig;
use ule_swlib::builder::Arch;

use crate::util::{block_mean, permutation, shuffled, splitmix64};

/// Σcycles and Σenergy over the distinct points of the paper figures.
pub const PAPER_CYCLES: u64 = 662_964_918;
pub const PAPER_ENERGY_UJ: f64 = 48_945.662_562_788_246;
/// Σcycles and frontier digest of the three accelerator spaces.
pub const DSE_CYCLES: u64 = 358_038_786;
pub const DSE_FRONTIER_DIGEST: u64 = 0xd6a3_98e2_cef0_4aeb;
/// Σcycles of the six profiled points.
pub const PROFILED_CYCLES: u64 = 39_829_342;

/// The number of passes a run of `seconds` makes: as many as fit at the
/// workload's nominal pass time, at least one. The nominal time is a
/// pass at the reference host's usual speed, rounded up, with room for
/// its set-up sample and checks; the count depends only on the workload
/// and `seconds`.
pub fn passes(workload: &str, seconds: u64) -> usize {
    let nominal_s = match workload {
        "paper_figs" | "accel_dse" => 5.5,
        "serve" => 4.0,
        "profiled" => 1.9,
        _ => unreachable!("workload names are checked by parse_args"),
    };
    ((seconds as f64 / nominal_s) as usize).max(1)
}

/// How long the block that times a cheap set-up lasts.
const SETUP_BLOCK_S: f64 = 0.02;

/// The seed of pass `i` of a run: every pass submits in its own order,
/// and the run's seed fixes the whole sequence.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    let mut s = seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// One timed pass of a workload.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    /// The pass's set-up sample: the traffic planning of a serve pass, or
    /// the mean of a block of repeated set-ups (job list or spaces, engine,
    /// systems) timed after a simulation pass.
    pub setup_s: f64,
    /// Host time of each unit of work in the pass (a simulated point, or
    /// a serve configuration's planning), keyed so the same unit can be
    /// found in every pass of a run.
    pub units: Vec<(String, f64)>,
    /// Host time of each verify-phase unit (one serve shard's
    /// verification); empty where the whole pass is the verify phase.
    pub verify_units: Vec<(String, f64)>,
    /// Signature verifications completed.
    pub verifications: u64,
    /// Operations attempted, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
}

/// Per-job host times of an engine's cold simulations, keyed by the
/// whole configuration (labels leave default knobs out).
fn job_units(engine: &SweepEngine) -> Vec<(String, f64)> {
    engine
        .job_timings()
        .into_iter()
        .map(|(key, d)| (format!("{key:?}"), d.as_secs_f64()))
        .collect()
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())),
    }
}

fn has_verify(w: Workload) -> bool {
    matches!(
        w,
        Workload::Verify | Workload::SignVerify | Workload::Handshake
    )
}

/// The first occurrence of each job, in order.
pub fn distinct(jobs: &[Job]) -> Vec<Job> {
    let mut seen = HashSet::new();
    jobs.iter()
        .copied()
        .filter(|&(c, w)| seen.insert(ConfigKey::new(c, w)))
        .collect()
}

/// Share of the distinct simulations that differ from an earlier one
/// only in an energy-only knob (gating, SRAM register file, multiplier
/// variant), so their cycles and counters repeat.
pub fn redundant_sim_ratio(distinct_jobs: &[Job]) -> f64 {
    let mut timing = HashSet::new();
    for &(c, w) in distinct_jobs {
        let pinned = SystemConfig {
            gating: Gating::None,
            billie_sram_rf: false,
            mult_variant: ule_core::MultVariant::Karatsuba,
            ..c
        };
        timing.insert(ConfigKey::new(pinned, w));
    }
    (distinct_jobs.len() - timing.len()) as f64 / distinct_jobs.len().max(1) as f64
}

// ---- paper_figs -----------------------------------------------------

/// Eight of the 23 paper experiments: Sign+Verify of the five NIST
/// primes on every architecture (Fig 7.1 to 7.4, 7.13), of the Koblitz
/// curves on ISA-ext and Billie (Fig 7.6, 7.8), and the summary table.
/// The full sweep (136 points, 15 to 26 s on one thread) runs each
/// point once per run, so its time follows the host's speed; this
/// subset repeats every point several times in a run.
pub const PAPER_EXPERIMENTS: [ExperimentId; 8] = [
    ExperimentId::Fig7_1,
    ExperimentId::Fig7_2,
    ExperimentId::Fig7_3,
    ExperimentId::Fig7_4,
    ExperimentId::Fig7_6,
    ExperimentId::Fig7_8,
    ExperimentId::Fig7_13,
    ExperimentId::Summary,
];

/// The union of the paper experiments' job lists, in `repro` order.
pub fn paper_jobs() -> Vec<Job> {
    PAPER_EXPERIMENTS.iter().flat_map(|id| id.jobs()).collect()
}

/// Checks Σcycles and Σenergy of a sweep's distinct points (summed in
/// canonical order, so the float total is order-independent).
pub fn check_paper(jobs: &[Job], reports: &[Arc<RunReport>]) -> Result<(), String> {
    let by_key: HashMap<ConfigKey, &Arc<RunReport>> = jobs
        .iter()
        .zip(reports)
        .map(|(&(c, w), r)| (ConfigKey::new(c, w), r))
        .collect();
    let mut cycles = 0u64;
    let mut energy = 0f64;
    for (c, w) in distinct(&paper_jobs()) {
        let r = by_key
            .get(&ConfigKey::new(c, w))
            .ok_or("a paper point is missing")?;
        cycles += r.cycles;
        energy += r.energy.total_uj();
    }
    if cycles != PAPER_CYCLES || energy.to_bits() != PAPER_ENERGY_UJ.to_bits() {
        return Err(format!(
            "paper figures drifted: {cycles} cycles / {energy:?} uJ, want {PAPER_CYCLES} / {PAPER_ENERGY_UJ:?}"
        ));
    }
    Ok(())
}

/// The set-up of one paper-figures pass: the job list in seeded order and
/// a fresh single-worker engine.
pub fn paper_setup(seed: u64) -> (Vec<Job>, SweepEngine) {
    let jobs = shuffled(&paper_jobs(), seed);
    (jobs, SweepEngine::new().with_threads(1))
}

/// Sweeps every paper point on a fresh engine; each job submission is
/// an operation, and a panic or drifted total fails them all.
pub fn paper_pass(seed: u64) -> Pass {
    let t0 = Instant::now();
    let (jobs, engine) = paper_setup(seed);
    let result = guarded(|| check_paper(&jobs, &engine.run_batch(&jobs)));
    let wall_s = t0.elapsed().as_secs_f64();
    let setup_s = block_mean(SETUP_BLOCK_S, || drop(black_box(paper_setup(seed))));
    let n = jobs.len() as u64;
    let failed = match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("paper_figs: {e}");
            n
        }
    };
    Pass {
        wall_s,
        setup_s,
        units: job_units(&engine),
        verifications: distinct(&jobs).iter().filter(|j| has_verify(j.1)).count() as u64,
        attempted: n,
        failed,
        ..Pass::default()
    }
}

// ---- accel_dse ------------------------------------------------------

/// The three accelerator spaces: 30 Monte, 60 Billie and 4 handshake
/// points.
pub fn dse_spaces() -> Vec<SpaceSpec> {
    let d = MonteConfig::default();
    vec![
        SpaceSpec::new("monte-sv", Workload::SignVerify)
            .axis(Axis::Curves(CurveId::PRIMES.to_vec()))
            .axis(Axis::Archs(vec![Arch::Monte]))
            .axis(Axis::Montes(vec![
                d,
                MonteConfig {
                    double_buffer: false,
                    ..d
                },
                MonteConfig {
                    forwarding: false,
                    ..d
                },
            ]))
            .axis(Axis::Gatings(vec![Gating::None, Gating::Clock])),
        SpaceSpec::new("billie-sv", Workload::SignVerify)
            .axis(Axis::Curves(CurveId::BINARY.to_vec()))
            .axis(Axis::Archs(vec![Arch::Billie]))
            .axis(Axis::BillieDigits(vec![1, 2, 3, 4, 8, 16]))
            .axis(Axis::BillieSramRf(vec![false, true])),
        SpaceSpec::new("monte-handshake", Workload::Handshake)
            .axis(Axis::Curves(CurveId::XCURVES.to_vec()))
            .axis(Axis::Archs(vec![Arch::Monte]))
            .axis(Axis::Gatings(vec![Gating::None, Gating::Clock])),
    ]
}

/// Every lattice point of the three spaces, as jobs.
pub fn dse_jobs() -> Vec<Job> {
    dse_spaces()
        .iter()
        .flat_map(|s| {
            let w = s.workload;
            s.enumerate()
                .expect("benchmark spaces are valid")
                .into_iter()
                .map(move |c| (c, w))
        })
        .collect()
}

/// The engine as evaluator, submitting each batch in seeded order and
/// timing its calls.
pub struct SeededEvaluator<'a> {
    pub engine: &'a SweepEngine,
    pub seed: Cell<u64>,
    pub cycles: Cell<u64>,
    pub evaluate_s: Cell<f64>,
}

impl<'a> SeededEvaluator<'a> {
    pub fn new(engine: &'a SweepEngine, seed: u64) -> Self {
        SeededEvaluator {
            engine,
            seed: Cell::new(seed),
            cycles: Cell::new(0),
            evaluate_s: Cell::new(0.0),
        }
    }
}

impl Evaluator for SeededEvaluator<'_> {
    fn evaluate(&self, jobs: &[(SystemConfig, Workload)]) -> Vec<PointEval> {
        let t = Instant::now();
        let mut s = self.seed.get();
        let order = permutation(jobs.len(), splitmix64(&mut s));
        self.seed.set(s);
        let submitted: Vec<Job> = order.iter().map(|&i| jobs[i]).collect();
        let mut out: Vec<Option<PointEval>> = (0..jobs.len()).map(|_| None).collect();
        for (&i, ev) in order.iter().zip(self.engine.evaluate(&submitted)) {
            self.cycles.set(self.cycles.get() + ev.cycles);
            out[i] = Some(ev);
        }
        self.evaluate_s
            .set(self.evaluate_s.get() + t.elapsed().as_secs_f64());
        out.into_iter()
            .map(|e| e.expect("every job evaluated"))
            .collect()
    }
}

/// FNV-1a over the frontiers' labels and objectives.
pub fn frontier_digest(outcomes: &[ule_dse::ExploreOutcome]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for o in outcomes {
        for e in &o.frontier {
            let line = format!(
                "{}|{}|{}|{}|{:x}|{:x}",
                o.space,
                e.rank,
                ule_dse::explore::label(&e.config),
                e.objectives.cycles,
                e.objectives.energy_uj.to_bits(),
                e.objectives.area_kge.to_bits()
            );
            for b in line.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Grid-explores `spaces` through `eval`, journaling into `dir`.
/// Returns the outcomes and the time spent inside `explore`.
pub fn explore_spaces(
    eval: &dyn Evaluator,
    spaces: &[SpaceSpec],
    seed: u64,
    dir: &Path,
) -> Result<(Vec<ExploreOutcome>, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut outcomes = Vec::new();
    let mut explore_s = 0.0;
    for spec in spaces {
        let journal = dir.join(format!("{}.jsonl", spec.name));
        let _ = std::fs::remove_file(&journal);
        let t = Instant::now();
        let o = ule_dse::explore(eval, spec, &mut Grid::new(), seed, Some(&journal))
            .map_err(|e| e.to_string())?;
        explore_s += t.elapsed().as_secs_f64();
        if o.simulated != o.lattice_points {
            return Err(format!(
                "{}: simulated {} of {} points",
                o.space, o.simulated, o.lattice_points
            ));
        }
        outcomes.push(o);
    }
    Ok((outcomes, explore_s))
}

/// Checks Σcycles and the frontiers of an exploration.
pub fn check_dse(outcomes: &[ExploreOutcome], cycles: u64) -> Result<(), String> {
    let digest = frontier_digest(outcomes);
    if cycles != DSE_CYCLES || digest != DSE_FRONTIER_DIGEST {
        return Err(format!(
            "accel_dse drifted: {cycles} cycles / frontier {digest:#x}, want {DSE_CYCLES} / {DSE_FRONTIER_DIGEST:#x}"
        ));
    }
    Ok(())
}

/// The set-up of one exploration pass: the spaces and a fresh
/// single-worker engine.
pub fn dse_setup() -> (Vec<SpaceSpec>, SweepEngine) {
    (dse_spaces(), SweepEngine::new().with_threads(1))
}

/// Explores the three spaces on a fresh engine and checks the result.
pub fn dse_pass(seed: u64, dir: &Path) -> Pass {
    let t0 = Instant::now();
    let (spaces, engine) = dse_setup();
    let eval = SeededEvaluator::new(&engine, seed);
    let result = guarded(|| explore_spaces(&eval, &spaces, seed, dir));
    let wall_s = t0.elapsed().as_secs_f64();
    let setup_s = block_mean(SETUP_BLOCK_S, || drop(black_box(dse_setup())));
    let n = dse_jobs().len() as u64;
    let failed = match result.and_then(|(o, _)| check_dse(&o, eval.cycles.get())) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("accel_dse: {e}");
            n
        }
    };
    // Every point is a Sign+Verify or a handshake: one verification each.
    Pass {
        wall_s,
        setup_s,
        units: job_units(&engine),
        verifications: n,
        attempted: n,
        failed,
        ..Pass::default()
    }
}

// ---- profiled -------------------------------------------------------

/// P-192 and K-163 on baseline, ISA-ext and the family's accelerator.
pub fn profiled_points() -> Vec<SystemConfig> {
    let mut v = Vec::new();
    for curve in [CurveId::P192, CurveId::K163] {
        let accel = if curve.is_binary() {
            Arch::Billie
        } else {
            Arch::Monte
        };
        for arch in [Arch::Baseline, Arch::IsaExt, accel] {
            v.push(SystemConfig::new(curve, arch));
        }
    }
    v
}

pub fn check_profile(report: &RunReport) -> Result<(), String> {
    let p = report
        .profile
        .as_ref()
        .ok_or("profiled run without a profile")?;
    if p.total_cycles() != report.cycles || p.total_instructions() != report.counters.instructions {
        return Err("profile totals differ from the counters".into());
    }
    let att = report
        .energy
        .attribute(&ule_core::attr::routine_activities(p));
    if att.total_uj().to_bits() != report.energy.total_uj().to_bits() {
        return Err("attributed energy does not sum to the total".into());
    }
    Ok(())
}

/// The set-up of a profiling session: every point's system (curve and
/// program image), in seeded order.
pub fn profiled_setup(seed: u64) -> Vec<System> {
    shuffled(&profiled_points(), seed)
        .into_iter()
        .map(System::new)
        .collect()
}

/// Exact profiling and energy attribution of one Sign+Verify point,
/// checked: profile totals equal the counters and attributed energy
/// sums bit-exactly to the total. Returns the report.
pub fn profile_point(sys: &System) -> Result<RunReport, String> {
    let report = sys.run_with(RunOptions::new(Workload::SignVerify).profiled());
    check_profile(&report)?;
    Ok(report)
}

pub fn profiled_pass(seed: u64) -> Pass {
    let t0 = Instant::now();
    let systems = profiled_setup(seed);
    let mut units = Vec::new();
    let mut failed = 0;
    let mut cycles = 0;
    for sys in &systems {
        let t = Instant::now();
        let r = guarded(|| profile_point(sys).map(|r| r.cycles));
        units.push((format!("{:?}", sys.config()), t.elapsed().as_secs_f64()));
        match r {
            Ok(c) => cycles += c,
            Err(e) => {
                eprintln!("profiled: {e}");
                failed += 1;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let setup_s = block_mean(SETUP_BLOCK_S, || drop(black_box(profiled_setup(seed))));
    if failed == 0 && cycles != PROFILED_CYCLES {
        eprintln!("profiled drifted: {cycles} cycles, want {PROFILED_CYCLES}");
        failed = systems.len() as u64;
    }
    let n = systems.len() as u64;
    Pass {
        wall_s,
        setup_s,
        units,
        verifications: n,
        attempted: n,
        failed,
        ..Pass::default()
    }
}

// ---- serve ----------------------------------------------------------

/// P-256 and K-163 traffic, at batch 16 (RLC with fallback) and batch 1.
pub fn serve_configs(seed: u64) -> Vec<ServeConfig> {
    let mut v = Vec::new();
    for curve in [CurveId::P256, CurveId::K163] {
        for batch_size in [16, 1] {
            v.push(ServeConfig {
                requests: 256,
                batch_size,
                shards: 2,
                seed,
                ..ServeConfig::new(curve)
            });
        }
    }
    v
}

/// The deterministic part of one service run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeCensus {
    pub accepted: usize,
    pub rejected: usize,
    pub mismatches: usize,
    pub batches: usize,
    pub rlc_batches: usize,
    pub ops: OpCount,
}

/// One configuration's planned traffic: the curve, the shard plans and
/// the virtual-time cost model.
pub struct Planned {
    pub curve: Curve,
    pub plans: Vec<ShardPlan>,
    pub model: CostModel,
}

pub fn serve_plan(cfg: &ServeConfig) -> Planned {
    let curve = cfg.curve.curve();
    let plans = plan_shards(&curve, cfg);
    let model = CostModel::for_curve(&curve, cfg.cycles_per_verify);
    Planned {
        curve,
        plans,
        model,
    }
}

/// Verifies each shard of a planned configuration on the calling thread
/// (`run_shards` on one plan spawns no worker), timing each shard.
pub fn serve_verify(cfg: &ServeConfig, p: &Planned) -> (Vec<ShardOutcome>, Vec<f64>) {
    p.plans
        .iter()
        .map(|plan| {
            let t = Instant::now();
            let mut out = run_shards(&p.curve, std::slice::from_ref(plan), cfg.seed, &p.model);
            (
                out.pop().expect("one outcome per plan"),
                t.elapsed().as_secs_f64(),
            )
        })
        .unzip()
}

/// A configuration's label in unit keys.
fn serve_label(cfg: &ServeConfig) -> String {
    format!("{}/batch{}", cfg.curve.name(), cfg.batch_size)
}

/// Sums the shards' verdicts and op censuses.
pub fn census(shards: &[ShardOutcome]) -> ServeCensus {
    let mut c = ServeCensus {
        accepted: 0,
        rejected: 0,
        mismatches: 0,
        batches: 0,
        rlc_batches: 0,
        ops: OpCount::default(),
    };
    for s in shards {
        c.accepted += s.accepted;
        c.rejected += s.rejected;
        c.mismatches += s.mismatches;
        c.batches += s.batches;
        c.rlc_batches += s.rlc_batches;
        c.ops += s.ops;
    }
    c
}

/// Checks one pass's censuses: no mismatches, every request answered,
/// equal verdicts at both batch sizes, and the same census as the run's
/// first pass. Returns the failed request count.
pub fn check_serve(cfgs: &[ServeConfig], runs: &[ServeCensus], first: &[ServeCensus]) -> u64 {
    let mut failed = 0u64;
    for (i, (cfg, c)) in cfgs.iter().zip(runs).enumerate() {
        let mut bad = c.mismatches as u64;
        if c.accepted + c.rejected != cfg.requests || first.get(i).is_some_and(|f| f != c) {
            bad = cfg.requests as u64;
        }
        // The batch-1 run of a curve follows its batch-16 run.
        if i % 2 == 1 && runs[i - 1].accepted != c.accepted {
            bad = cfg.requests as u64;
        }
        if bad > 0 {
            eprintln!(
                "serve: {:?} batch {} failed its check: {c:?}",
                cfg.curve, cfg.batch_size
            );
        }
        failed += bad;
    }
    failed
}

/// Plans the four configurations' traffic (the set-up), then verifies
/// each on its 2 shards, one after the other; each request is an
/// operation. `first` holds the run's first censuses (empty on the first
/// pass, which fills it).
pub fn serve_pass(seed: u64, first: &mut Vec<ServeCensus>) -> Pass {
    let t0 = Instant::now();
    let cfgs = serve_configs(seed);
    let requests: u64 = cfgs.iter().map(|c| c.requests as u64).sum();
    let mut units = Vec::new();
    let mut verify_units = Vec::new();
    let mut setup_s = 0.0;
    let censuses = guarded(|| {
        let planned: Vec<Planned> = cfgs
            .iter()
            .map(|c| {
                let t = Instant::now();
                let p = serve_plan(c);
                units.push((serve_label(c), t.elapsed().as_secs_f64()));
                p
            })
            .collect();
        setup_s = t0.elapsed().as_secs_f64();
        let mut censuses = Vec::new();
        for (c, p) in cfgs.iter().zip(&planned) {
            let (outs, times) = serve_verify(c, p);
            for (i, s) in times.into_iter().enumerate() {
                verify_units.push((format!("{}/shard{i}", serve_label(c)), s));
            }
            censuses.push(census(&outs));
        }
        Ok(censuses)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let censuses = match censuses {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: {e}");
            return Pass {
                wall_s,
                attempted: requests,
                failed: requests,
                ..Pass::default()
            };
        }
    };
    if first.is_empty() {
        *first = censuses.clone();
    }
    Pass {
        wall_s,
        setup_s,
        units,
        verify_units,
        verifications: requests,
        attempted: requests,
        failed: check_serve(&cfgs, &censuses, first),
    }
}
