//! Harness performance benchmark: times a full sweep through
//! [`SweepEngine`] and writes `BENCH_sweep.json` — the machine-readable
//! perf-trajectory record compared across PRs.
//!
//! ```text
//! cargo run -p ule-bench --release --bin bench            # all experiments
//! cargo run -p ule-bench --release --bin bench -- fig7_1 t7_4
//! cargo run -p ule-bench --release --bin bench -- --threads 2 --out BENCH_sweep.json
//! ```
//!
//! The output is one JSON object: deterministic simulated totals
//! (`sim_cycles_total`, `sim_energy_uj_total` over the distinct design
//! points — CI gates on these exactly), batch wall-clock, engine
//! memoization counters, per-experiment job counts, and the per-job
//! simulation wall-clock (descending, one entry per simulation executed,
//! labelled with its timing point), all under the metrics
//! `schema_version`.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

use std::collections::HashSet;

use ule_bench::{ConfigKey, ExperimentId, Job, SweepEngine};
use ule_obs::json::JsonBuf;

/// `sim_wall_ms_total` and `simulations` of the frozen pre-fast-tier
/// sweep (`BENCH_baseline_prefast.json`, looked up next to the output
/// path), or `None` when the baseline is absent or malformed — a fresh
/// checkout without the baseline still benches fine.
fn prefast_base(out: &std::path::Path) -> Option<(f64, u64)> {
    let path = out.with_file_name("BENCH_baseline_prefast.json");
    let text = std::fs::read_to_string(path).ok()?;
    let doc = ule_obs::json::parse(&text)?;
    let ms = doc
        .get("sim_wall_ms_total")?
        .as_f64()
        .filter(|v| *v > 0.0)?;
    Some((ms, doc.get("simulations")?.as_u64()?))
}

fn main() {
    let mut threads: Option<usize> = None;
    let mut out = PathBuf::from("BENCH_sweep.json");
    let mut selected: Vec<ExperimentId> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--threads expects a positive integer");
                        std::process::exit(2);
                    });
                threads = Some(n);
            }
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                }
            },
            "-h" | "--help" => {
                println!("usage: bench [--threads N] [--out PATH] [<experiment-id>... | all]");
                println!("times a sweep and writes BENCH_sweep.json (default: all experiments)");
                return;
            }
            "all" => selected.extend(ExperimentId::ALL),
            other => match ExperimentId::from_str(other) {
                Ok(id) => selected.push(id),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
        }
    }
    if selected.is_empty() {
        selected.extend(ExperimentId::ALL);
    }

    let mut engine = SweepEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }

    let jobs: Vec<Job> = selected.iter().flat_map(|id| id.jobs()).collect();
    let started = Instant::now();
    let reports = engine.run_batch(&jobs);
    let batch_wall = started.elapsed();

    // Deterministic workload totals over the *distinct* design points
    // (the submission union repeats points across experiments): pure
    // simulator outputs, so CI can gate on them exactly while the
    // wall-clock numbers stay advisory.
    let mut seen = HashSet::new();
    let mut sim_cycles_total = 0u64;
    let mut sim_energy_uj_total = 0f64;
    for (&(config, workload), report) in jobs.iter().zip(&reports) {
        if seen.insert(ConfigKey::new(config, workload)) {
            sim_cycles_total += report.cycles;
            sim_energy_uj_total += report.energy.total_uj();
        }
    }
    let stats = engine.stats();
    let mut timings = engine.job_timings();
    timings.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.label().cmp(&b.0.label())));
    let sim_wall_ms_total: f64 = timings.iter().map(|(_, d)| d.as_secs_f64() * 1e3).sum();

    let mut b = JsonBuf::new();
    b.begin_object();
    b.key("bench").value_str("sweep");
    b.key("schema_version")
        .value_u64(ule_obs::record::SCHEMA_VERSION);
    b.key("threads").value_u64(engine.threads() as u64);
    b.key("experiments");
    b.begin_array();
    for id in &selected {
        b.value_str(id.name());
    }
    b.end_array();
    b.key("jobs_submitted").value_u64(jobs.len() as u64);
    b.key("design_points").value_u64(seen.len() as u64);
    b.key("sim_cycles_total").value_u64(sim_cycles_total);
    b.key("sim_energy_uj_total").value_f64(sim_energy_uj_total);
    b.key("requests").value_u64(stats.requests);
    b.key("memo_hits").value_u64(stats.memo_hits);
    b.key("inflight_waits").value_u64(stats.inflight_waits);
    b.key("simulations").value_u64(stats.simulations);
    b.key("batch_wall_ms")
        .value_f64(batch_wall.as_secs_f64() * 1e3);
    b.key("sim_wall_ms_total").value_f64(sim_wall_ms_total);
    b.key("job_wall_us");
    b.begin_array();
    for (key, wall) in &timings {
        b.begin_object();
        b.key("job").value_str(&key.label());
        b.key("wall_us").value_u64(wall.as_micros() as u64);
        b.end_object();
    }
    b.end_array();
    b.end_object();
    let json = b.finish();
    debug_assert!(ule_obs::json::is_valid(&json));

    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }

    // One-line run summary appended to BENCH_history.jsonl next to the
    // sweep record: the harness perf trajectory across PRs, one line
    // per bench run, with the speedup against the frozen pre-fast-tier
    // reference sweep when that baseline is present.
    let history = out.with_file_name("BENCH_history.jsonl");
    let mut h = JsonBuf::new();
    h.begin_object();
    h.key("schema_version")
        .value_u64(ule_obs::record::SCHEMA_VERSION);
    h.key("experiments").value_u64(selected.len() as u64);
    h.key("threads").value_u64(engine.threads() as u64);
    h.key("design_points").value_u64(seen.len() as u64);
    h.key("sim_cycles_total").value_u64(sim_cycles_total);
    h.key("simulations").value_u64(stats.simulations);
    h.key("sim_wall_ms_total").value_f64(sim_wall_ms_total);
    h.key("batch_wall_ms")
        .value_f64(batch_wall.as_secs_f64() * 1e3);
    // The pre-fast baseline is a full sweep, so the ratio is only
    // apples-to-apples when this run covered every experiment. Its base
    // is recorded beside it: the baseline simulated every design point,
    // while this engine prices energy-only siblings from a shared
    // simulation, so part of the ratio is fewer simulations rather than
    // faster ones.
    let full_sweep = selected.len() == ExperimentId::ALL.len();
    match prefast_base(&out) {
        Some((baseline_ms, baseline_sims)) if full_sweep && sim_wall_ms_total > 0.0 => {
            h.key("speedup_vs_prefast")
                .value_f64(baseline_ms / sim_wall_ms_total);
            h.key("prefast_sim_wall_ms_total").value_f64(baseline_ms);
            h.key("prefast_simulations").value_u64(baseline_sims);
        }
        _ => {
            h.key("speedup_vs_prefast").value_null();
        }
    }
    h.end_object();
    let line = h.finish();
    debug_assert!(ule_obs::json::is_valid(&line));
    let append = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{line}\n").as_bytes()));
    if let Err(e) = append {
        eprintln!("cannot append {}: {e}", history.display());
        std::process::exit(1);
    }

    eprintln!(
        "bench: {} jobs ({} cold) in {:.1} ms on {} threads -> {}",
        jobs.len(),
        stats.simulations,
        batch_wall.as_secs_f64() * 1e3,
        engine.threads(),
        out.display()
    );
}
