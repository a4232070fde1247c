//! The traced run: per-layer host times for one workload.
//!
//! Each traced run makes an untraced single-thread pass through the
//! library's own entry points (`SweepEngine`, `explore`,
//! `System::run_with`, the serve phases), then a traced single-thread
//! pass whose spans wrap every layer call, then a second untraced pass.
//! The faster untraced pass is the reference for `trace.overhead_s`, so
//! the comparison does not hinge on which pass ran first in a cold
//! process. Simulation workloads trace the replica of `ule_core`'s run
//! loop over their distinct points and check each replica report
//! against the first untraced pass bit for bit. Single-thread passes
//! keep the spans additive: the layers' self times plus harness time
//! make up the traced wall time, and the rest is reported as
//! `trace.unaccounted_s`.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ule_bench::{ConfigKey, Job, SweepEngine};
use ule_core::{RunOptions, RunReport, System, SystemConfig, Workload};
use ule_dse::ExploreOutcome;

use crate::replica::{same_report, Replica, Tracer};
use crate::util::{shuffled, Outcome};
use crate::workloads::{self as w, explore_spaces, guarded, SeededEvaluator};

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer its workload never enters reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("pete.dispatch_s", "s"),
    ("pete.mcycles_per_s", "Mcycles/s"),
    ("pete.cycles", "count"),
    ("pete.instructions", "count"),
    ("pete.decode_s", "s"),
    ("pete.xlate_s", "s"),
    ("monte.issue_s", "s"),
    ("monte.ops", "count"),
    ("monte.ns_per_op", "ns"),
    ("billie.issue_s", "s"),
    ("billie.ops", "count"),
    ("billie.ns_per_op", "ns"),
    ("core.host_ref_s", "s"),
    ("curves.curve_build_s", "s"),
    ("swlib.assemble_s", "s"),
    ("swlib.suites_built", "count"),
    ("energy.model_s", "s"),
    ("energy.attribute_s", "s"),
    ("bench.memo_hit_ratio", "ratio"),
    ("bench.redundant_sim_ratio", "ratio"),
    ("bench.harness_s", "s"),
    ("profile.run_s", "s"),
    ("profile.overhead_ratio", "ratio"),
    ("dse.explore_s", "s"),
    ("dse.evaluate_s", "s"),
    ("dse.overhead_s", "s"),
    ("dse.points", "count"),
    ("dse.frontier_points", "count"),
    ("serve.plan_s", "s"),
    ("serve.verify_s", "s"),
    ("serve.rlc_success_ratio", "ratio"),
    ("serve.host_weighted_ops", "count"),
    ("serve.mismatches", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.harness_s", "s"),
    ("trace.unaccounted_s", "s"),
];

/// Span names whose self time is harness work rather than a layer's.
const HARNESS_SPANS: &[&str] = &["point", "harness.load", "harness.check", "harness.compare"];

struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn new() -> Self {
        Layers {
            values: LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            self.values.contains_key(name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, v);
    }

    /// Fills the span-derived metrics from a traced pass.
    fn fill_from_trace(&mut self, t: &Tracer, untraced_wall: f64) {
        let st = t.self_times();
        let get = |n: &str| st.get(n).copied().unwrap_or(0.0);
        for (metric, span) in [
            ("pete.dispatch_s", "pete.run"),
            ("pete.decode_s", "pete.decode"),
            ("pete.xlate_s", "pete.xlate"),
            ("monte.issue_s", "monte.issue"),
            ("billie.issue_s", "billie.issue"),
            ("core.host_ref_s", "core.host_ref"),
            ("curves.curve_build_s", "curves.curve_build"),
            ("swlib.assemble_s", "swlib.assemble"),
            ("energy.model_s", "energy.model"),
            ("energy.attribute_s", "energy.attribute"),
            ("serve.plan_s", "serve.plan"),
            ("serve.verify_s", "serve.verify"),
        ] {
            self.set(metric, get(span));
        }
        let wall = t.root_time();
        self.set("trace.wall_s", wall);
        self.set("trace.untraced_wall_s", untraced_wall);
        self.set("trace.overhead_s", wall - untraced_wall);
        self.set(
            "trace.harness_s",
            HARNESS_SPANS.iter().map(|n| get(n)).sum(),
        );
        self.set("trace.unaccounted_s", get("pass"));
    }

    fn fill_from_replica(&mut self, r: &Replica) {
        let per_op = |ns: u64, ops: u64| {
            if ops == 0 {
                0.0
            } else {
                ns as f64 / ops as f64
            }
        };
        self.set("monte.ops", r.monte.ops.get() as f64);
        self.set(
            "monte.ns_per_op",
            per_op(r.monte.ns.get(), r.monte.ops.get()),
        );
        self.set("billie.ops", r.billie.ops.get() as f64);
        self.set(
            "billie.ns_per_op",
            per_op(r.billie.ns.get(), r.billie.ops.get()),
        );
        self.set("swlib.suites_built", r.suites_built as f64);
        self.set("pete.cycles", r.cycles as f64);
        self.set("pete.instructions", r.instructions as f64);
        let sim_s = self.values["pete.dispatch_s"]
            + self.values["monte.issue_s"]
            + self.values["billie.issue_s"];
        if sim_s > 0.0 {
            self.set("pete.mcycles_per_s", r.cycles as f64 / sim_s / 1e6);
        }
    }

    fn into_outcome(self, out: &mut Outcome) {
        for &(name, unit) in LAYER_METRICS {
            out.metric(name, self.values[name], unit);
        }
    }
}

/// Traces the replica over `points` (single thread), comparing each
/// report with `reference`. Returns the tracer, the replica and the
/// failed point count.
fn trace_replica(
    points: &[Job],
    reference: &[Option<RunReport>],
    profiled: bool,
) -> (Tracer, Replica, u64) {
    let mut t = Tracer::default();
    let mut replica = Replica::default();
    let mut failed = 0u64;
    t.span("pass", |t| {
        for (i, &(config, workload)) in points.iter().enumerate() {
            t.set_point(i as u32);
            t.span("point", |t| {
                let depth = t.depth();
                let got = guarded(|| replica.run(t, config, workload, profiled));
                t.unwind_to(depth);
                let ok = match got {
                    Ok(report) => {
                        let ok = t.span("harness.compare", |_| {
                            reference[i]
                                .as_ref()
                                .is_some_and(|want| same_report(&report, want))
                        });
                        if profiled && ok {
                            let attributed =
                                t.span("energy.attribute", |_| w::check_profile(&report));
                            attributed.is_ok()
                        } else {
                            ok
                        }
                    }
                    Err(e) => {
                        eprintln!("replica: {e}");
                        false
                    }
                };
                if !ok {
                    eprintln!(
                        "replica differs from System::run_with on {}",
                        ConfigKey::new(config, workload).label()
                    );
                    failed += 1;
                }
            });
        }
    });
    (t, replica, failed)
}

/// Writes the spans next to the build output, for inspection.
fn write_spans(t: &Tracer, out_dir: &Path, workload: &str, seed: u64) {
    let path = out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| t.write_jsonl(&path)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// One untraced single-thread sweep of the paper points on a fresh
/// engine: its wall time, the engine and the checked reports.
fn paper_untraced(jobs: &[Job]) -> (f64, SweepEngine, Result<Vec<Arc<RunReport>>, String>) {
    let engine = SweepEngine::new().with_threads(1);
    let t0 = Instant::now();
    let reports =
        guarded(|| Ok(engine.run_batch(jobs))).and_then(|r| w::check_paper(jobs, &r).map(|()| r));
    (t0.elapsed().as_secs_f64(), engine, reports)
}

/// The traced paper figures: untraced single-thread `SweepEngine`
/// passes around the replica over the distinct points in submission
/// order.
pub fn paper_figs(seed: u64, out_dir: &Path, out: &mut Outcome) {
    let jobs = shuffled(&w::paper_jobs(), seed);
    let (before, engine, reports) = paper_untraced(&jobs);
    let reports = match reports {
        Ok(r) => r,
        Err(e) => {
            eprintln!("paper_figs: {e}");
            out.tally(jobs.len() as u64, jobs.len() as u64);
            return;
        }
    };
    let points = w::distinct(&jobs);
    let by_key: HashMap<ConfigKey, &RunReport> = jobs
        .iter()
        .zip(&reports)
        .map(|(&(c, wl), r)| (ConfigKey::new(c, wl), &**r))
        .collect();
    let refs: Vec<Option<RunReport>> = points
        .iter()
        .map(|&(c, wl)| by_key.get(&ConfigKey::new(c, wl)).map(|r| (*r).clone()))
        .collect();
    let (t, replica, failed) = trace_replica(&points, &refs, false);
    out.tally(points.len() as u64, failed);
    let (after, engine_after, again) = paper_untraced(&jobs);
    out.tally(
        jobs.len() as u64,
        untraced_failures(&again, jobs.len(), "paper_figs"),
    );
    let (untraced, engine) = if after < before {
        (after, engine_after)
    } else {
        (before, engine)
    };
    let mut layers = Layers::new();
    sweep_engine_layers(&engine, untraced, &points, &mut layers);
    layers.fill_from_trace(&t, untraced);
    layers.fill_from_replica(&replica);
    write_spans(&t, out_dir, "paper_figs", seed);
    layers.into_outcome(out);
}

/// The failed operations of the second untraced pass: all `n` if its
/// check failed.
fn untraced_failures<T>(result: &Result<T, String>, n: usize, workload: &str) -> u64 {
    match result {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("{workload}: {e}");
            n as u64
        }
    }
}

/// Memo and harness figures of an untraced single-thread engine pass.
fn sweep_engine_layers(engine: &SweepEngine, batch_s: f64, points: &[Job], layers: &mut Layers) {
    let stats = engine.stats();
    let sim_s: f64 = engine
        .job_timings()
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    layers.set(
        "bench.memo_hit_ratio",
        stats.memo_hits as f64 / stats.requests.max(1) as f64,
    );
    layers.set("bench.redundant_sim_ratio", w::redundant_sim_ratio(points));
    layers.set("bench.harness_s", batch_s - sim_s);
}

/// One untraced single-thread exploration on a fresh engine.
struct DseRun {
    wall_s: f64,
    engine: SweepEngine,
    evaluate_s: f64,
    result: Result<(Vec<ExploreOutcome>, f64), String>,
}

fn dse_untraced(seed: u64, tmp: &Path) -> DseRun {
    let engine = SweepEngine::new().with_threads(1);
    let eval = SeededEvaluator::new(&engine, seed);
    let t0 = Instant::now();
    let result = guarded(|| explore_spaces(&eval, &w::dse_spaces(), seed, tmp))
        .and_then(|(o, explore_s)| w::check_dse(&o, eval.cycles.get()).map(|()| (o, explore_s)));
    let wall_s = t0.elapsed().as_secs_f64();
    let evaluate_s = eval.evaluate_s.get();
    DseRun {
        wall_s,
        engine,
        evaluate_s,
        result,
    }
}

/// The traced exploration: untraced single-thread `explore` passes for
/// the DSE layer times around the replica over the lattice.
pub fn accel_dse(seed: u64, out_dir: &Path, tmp: &Path, out: &mut Outcome) {
    let points = w::dse_jobs();
    let before = dse_untraced(seed, tmp);
    if let Err(e) = &before.result {
        eprintln!("accel_dse: {e}");
        out.tally(points.len() as u64, points.len() as u64);
        return;
    }
    // The engine figures before the reference look-ups add memo hits.
    let mut layers = Layers::new();
    sweep_engine_layers(&before.engine, before.evaluate_s, &points, &mut layers);
    let refs: Vec<Option<RunReport>> = points
        .iter()
        .map(|&(c, wl)| Some((*before.engine.run(c, wl)).clone()))
        .collect();
    let (t, replica, failed) = trace_replica(&points, &refs, false);
    out.tally(points.len() as u64, failed);
    let after = dse_untraced(seed, tmp);
    out.tally(
        points.len() as u64,
        untraced_failures(&after.result, points.len(), "accel_dse"),
    );
    let run = if after.result.is_ok() && after.wall_s < before.wall_s {
        sweep_engine_layers(&after.engine, after.evaluate_s, &points, &mut layers);
        after
    } else {
        before
    };
    let Ok((outcomes, explore_s)) = &run.result else {
        unreachable!("the first pass passed its check")
    };
    layers.set("dse.explore_s", *explore_s);
    layers.set("dse.evaluate_s", run.evaluate_s);
    layers.set("dse.overhead_s", explore_s - run.evaluate_s);
    layers.set(
        "dse.points",
        outcomes.iter().map(|o| o.lattice_points as f64).sum(),
    );
    layers.set(
        "dse.frontier_points",
        outcomes.iter().map(|o| o.frontier.len() as f64).sum(),
    );
    layers.fill_from_trace(&t, run.wall_s);
    layers.fill_from_replica(&replica);
    write_spans(&t, out_dir, "accel_dse", seed);
    layers.into_outcome(out);
}

/// One untraced single-thread pass of profiled runs: its wall time, the
/// time inside profiled `run_with`, the time of the same points
/// unprofiled (outside the wall time), and the checked reports.
struct ProfiledRun {
    wall_s: f64,
    run_s: f64,
    plain_s: f64,
    reports: Vec<Option<RunReport>>,
}

fn profiled_untraced(configs: &[SystemConfig]) -> ProfiledRun {
    let mut run = ProfiledRun {
        wall_s: 0.0,
        run_s: 0.0,
        plain_s: 0.0,
        reports: Vec::new(),
    };
    for &c in configs {
        let r = guarded(|| {
            let t0 = Instant::now();
            let sys = System::new(c);
            let t1 = Instant::now();
            let report = sys.run_with(RunOptions::new(Workload::SignVerify).profiled());
            run.run_s += t1.elapsed().as_secs_f64();
            w::check_profile(&report)?;
            run.wall_s += t0.elapsed().as_secs_f64();
            let t2 = Instant::now();
            black_box(sys.run_with(RunOptions::new(Workload::SignVerify)));
            run.plain_s += t2.elapsed().as_secs_f64();
            Ok(report)
        });
        run.reports
            .push(r.map_err(|e| eprintln!("profiled: {e}")).ok());
    }
    run
}

/// The traced profiled workload: untraced single-thread passes of
/// profiled runs around the profiled replica on the reference
/// interpreter.
pub fn profiled(seed: u64, out_dir: &Path, out: &mut Outcome) {
    let configs = shuffled(&w::profiled_points(), seed);
    let points: Vec<Job> = configs.iter().map(|&c| (c, Workload::SignVerify)).collect();
    let before = profiled_untraced(&configs);
    let (t, replica, failed) = trace_replica(&points, &before.reports, true);
    out.tally(points.len() as u64, failed);
    let after = profiled_untraced(&configs);
    let again_failed = after.reports.iter().filter(|r| r.is_none()).count() as u64;
    out.tally(points.len() as u64, again_failed);
    let run = if after.wall_s < before.wall_s {
        after
    } else {
        before
    };
    let mut layers = Layers::new();
    layers.set("profile.run_s", run.run_s);
    layers.set(
        "profile.overhead_ratio",
        if run.plain_s > 0.0 {
            run.run_s / run.plain_s
        } else {
            0.0
        },
    );
    layers.fill_from_trace(&t, run.wall_s);
    layers.fill_from_replica(&replica);
    write_spans(&t, out_dir, "profiled", seed);
    layers.into_outcome(out);
}

/// The traced serve workload: untraced passes around a pass with one
/// span per phase of each configuration.
pub fn serve(seed: u64, out_dir: &Path, out: &mut Outcome) {
    let cfgs = w::serve_configs(seed);
    let mut first = Vec::new();
    let before = w::serve_pass(seed, &mut first);
    if before.failed > 0 {
        out.tally(before.attempted, before.failed);
        return;
    }
    let mut t = Tracer::default();
    let mut censuses = Vec::new();
    let result = guarded(|| {
        t.span("pass", |t| {
            for (i, cfg) in cfgs.iter().enumerate() {
                t.set_point(i as u32);
                let curve = t.span("curves.curve_build", |_| cfg.curve.curve());
                let planned = t.span("serve.plan", |_| w::Planned {
                    plans: ule_serve::request::plan_shards(&curve, cfg),
                    model: ule_serve::vtime::CostModel::for_curve(&curve, cfg.cycles_per_verify),
                    curve,
                });
                let (outs, _) = t.span("serve.verify", |_| w::serve_verify(cfg, &planned));
                let census = t.span("harness.check", |_| w::census(&outs));
                censuses.push(census);
            }
        });
        Ok(())
    });
    let requests: u64 = cfgs.iter().map(|c| c.requests as u64).sum();
    if let Err(e) = result {
        eprintln!("serve: {e}");
        out.tally(requests, requests);
        return;
    }
    out.tally(requests, w::check_serve(&cfgs, &censuses, &first));
    let after = w::serve_pass(seed, &mut first);
    out.tally(after.attempted, after.failed);
    let mut layers = Layers::new();
    layers.fill_from_trace(&t, before.wall_s.min(after.wall_s));
    let (rlc, batches) = cfgs
        .iter()
        .zip(&censuses)
        .filter(|(c, _)| c.batch_size > 1)
        .fold((0, 0), |(r, b), (_, c)| (r + c.rlc_batches, b + c.batches));
    layers.set(
        "serve.rlc_success_ratio",
        rlc as f64 / batches.max(1) as f64,
    );
    layers.set(
        "serve.host_weighted_ops",
        censuses
            .iter()
            .map(|c| ule_serve::metrics::weighted_ops(&c.ops) as f64)
            .sum(),
    );
    layers.set(
        "serve.mismatches",
        censuses.iter().map(|c| c.mismatches as f64).sum(),
    );
    write_spans(&t, out_dir, "serve", seed);
    layers.into_outcome(out);
}
