//! Machine-readable sweep output — the `--metrics-out`/`--format json`
//! backend of `repro` and the `bench` binary.
//!
//! One flat `design_point` record per *distinct* design point (the
//! submission union may repeat points across experiments; the first
//! occurrence wins and later duplicates are dropped, mirroring the
//! memo), followed by one `engine_summary` record with the
//! [`SweepEngine`]'s memoization counters and per-job simulation
//! wall-clock. Schema: see `ule_obs::record::SCHEMA_VERSION` and the
//! golden-file test in `tests/metrics.rs`.

use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::sweep::{ConfigKey, EngineStats, Job, SweepEngine};
use ule_core::metrics::design_point_record;
use ule_core::RunReport;
use ule_obs::json::JsonBuf;
use ule_obs::record::{MetricsRegistry, Record};

/// Builds the full metrics registry for one finished sweep:
/// `design_point` records (deduplicated, submission order) plus the
/// trailing `engine_summary`.
///
/// # Panics
///
/// Panics if `jobs` and `reports` differ in length (they must be the
/// paired output of [`SweepEngine::run_batch`]).
pub fn metrics_registry(
    jobs: &[Job],
    reports: &[Arc<RunReport>],
    engine: &SweepEngine,
) -> MetricsRegistry {
    assert_eq!(
        jobs.len(),
        reports.len(),
        "jobs and reports must pair up (run_batch output)"
    );
    let mut seen = HashSet::new();
    let mut reg = MetricsRegistry::new();
    for (&(config, workload), report) in jobs.iter().zip(reports) {
        if seen.insert(ConfigKey::new(config, workload)) {
            reg.push(design_point_record(&config, workload, report));
        }
    }
    reg.push(engine_summary_record(engine));
    reg
}

/// The `engine_summary` record: request/memoization counters and the
/// wall-clock of every simulation executed, labelled with its timing
/// point.
pub fn engine_summary_record(engine: &SweepEngine) -> Record {
    // Exhaustive: a new engine counter must be exported.
    let EngineStats {
        requests,
        memo_hits,
        inflight_waits,
        simulations,
    } = engine.stats();
    let mut r = Record::new("engine_summary");
    r.push("threads", engine.threads() as u64);
    r.push("requests", requests);
    r.push("memo_hits", memo_hits);
    r.push("inflight_waits", inflight_waits);
    r.push("simulations", simulations);
    let timings = engine.job_timings();
    r.push(
        "sim_wall_us_total",
        timings
            .iter()
            .map(|(_, d)| d.as_micros() as u64)
            .sum::<u64>(),
    );
    let mut b = JsonBuf::new();
    b.begin_array();
    for (key, wall) in &timings {
        b.begin_object();
        b.key("job").value_str(&key.label());
        b.key("wall_us").value_u64(wall.as_micros() as u64);
        b.end_object();
    }
    b.end_array();
    r.push("job_wall_us", ule_obs::Value::Raw(b.finish()));
    r
}

/// Writes the sweep's metrics registry to `path` as JSONL. Returns the
/// number of records written (design points + 1 summary).
pub fn write_metrics(
    path: &Path,
    jobs: &[Job],
    reports: &[Arc<RunReport>],
    engine: &SweepEngine,
) -> io::Result<usize> {
    let reg = metrics_registry(jobs, reports, engine);
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    reg.write_jsonl(&mut f)?;
    io::Write::flush(&mut f)?;
    Ok(reg.records().len())
}
