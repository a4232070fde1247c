//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p ule-bench --release --bin repro -- all
//! cargo run -p ule-bench --release --bin repro -- fig7_1 t7_4
//! cargo run -p ule-bench --release --bin repro -- --list
//! cargo run -p ule-bench --release --bin repro -- --threads 4 all
//! cargo run -p ule-bench --release --bin repro -- --metrics-out m.jsonl fig7_1
//! cargo run -p ule-bench --release --bin repro -- --format json t7_4
//! ```
//!
//! Every selected experiment's design points are first submitted to
//! [`SweepEngine::run_batch`], which simulates them in parallel and
//! memoizes the reports; the experiment text is then rendered serially
//! in argument order, so the output is byte-identical for any thread
//! count (including 1).

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use ule_bench::args::{usage_error, Args};
use ule_bench::diff::{diff_metrics, DiffThresholds};
use ule_bench::{metrics_out, ConfigKey, ExperimentId, Job, SweepEngine};
use ule_core::attr::{self, FlameWeight};
use ule_core::space::arch_supports_curve;
use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_obs::progress::stderr_is_tty;
use ule_obs::trace_events::TraceEventsBuf;
use ule_obs::{Entered, Recorder};
use ule_pete::cpu::EngineTier;
use ule_swlib::builder::Arch;

/// Per-thread flight-recorder ring size for CLI runs: large enough
/// that a full `repro all` keeps every harness-level span (jobs, sim
/// runs) for the merged trace export, still bounded.
const FLIGHT_CAPACITY: usize = 4096;
/// Where post-mortems go without `--flight-dump`.
const FLIGHT_DUMP: &str = "flight_dump.jsonl";

/// A subcommand's outcome: `Err` carries the nonzero exit code of a
/// failure already reported on stderr.
type Exit = Result<(), i32>;

fn exit_code(code: i32) -> Exit {
    (code == 0).then_some(()).ok_or(code)
}

/// Observability switches shared by the simulating subcommands, parsed
/// from the global (pre-subcommand) options, and the run's recorder
/// once a subcommand starts it.
#[derive(Default)]
struct ObsOptions {
    /// `--trace PATH`: stream every event to a JSONL file.
    trace: Option<PathBuf>,
    /// `--flight-dump PATH`: where panic/cycle-limit post-mortems go.
    flight_dump: Option<PathBuf>,
    /// `--progress`/`--no-progress`; `None` = autodetect from stderr.
    progress: Option<bool>,
    /// The started recorder, current on the main thread.
    run: Option<(Recorder, Entered)>,
}

impl ObsOptions {
    /// Builds the run's one recorder and makes it current: the flight
    /// ring armed to dump at `--flight-dump`, the `--trace` writer, and a
    /// reporter labelled `progress` when progress is on. Called once by
    /// every simulating subcommand before the first run.
    fn start(&mut self, progress: Option<&str>) {
        let dump = self.flight_dump.clone().unwrap_or(FLIGHT_DUMP.into());
        let mut rec = Recorder::builder().flight(FLIGHT_CAPACITY, Some(dump));
        if let Some(path) = &self.trace {
            match std::fs::File::create(path) {
                Ok(f) => rec = rec.trace(std::io::BufWriter::new(f)),
                Err(e) => usage_error(format!("cannot open trace file {}: {e}", path.display())),
            }
        }
        let on = self.progress.unwrap_or_else(stderr_is_tty);
        if let Some(label) = progress.filter(|_| on) {
            rec = rec.progress(label);
        }
        let rec = rec.build();
        self.run = Some((rec.clone(), rec.enter()));
    }

    /// Finishes the started recorder: the final progress line, the trace
    /// flushed. `main` also calls it before its one exit.
    fn finish(&self) {
        if let Some((rec, _)) = &self.run {
            if let Err(e) = rec.finish() {
                eprintln!("cannot write trace: {e}");
            }
        }
    }
}

fn print_help() {
    println!("usage: repro [options] <experiment-id>... | all");
    println!("       repro verify [verify-options]");
    println!("       repro diff OLD.jsonl NEW.jsonl [--max-cycles-pct X] [--max-energy-pct X]");
    println!("       repro profile [profile-options]");
    println!("       repro explore [explore-options]");
    println!("       repro serve [serve-options]");
    println!("       repro check [--flame PATH] [--trace-events PATH] [--journal PATH]");
    println!("                   [--flight-dump PATH] [--serve PATH [--serve-min-gain G]]");
    println!("                   [--sla PATH [--max-p99 CYCLES]]");
    println!("       repro selftest-flight    (panics on purpose; the armed flight");
    println!("                                recorder must dump first — a self-test)");
    println!();
    println!("options:");
    println!("  --list              list experiment ids and exit");
    println!("  --threads N         batch fan-out width (positive integer)");
    println!("  --format text|json  text tables (default) or flat JSONL metrics records");
    println!("  --metrics-out PATH  write one JSONL metrics record per design point");
    println!("                      plus an engine summary (memo hits, per-job wall-clock)");
    println!("  --trace PATH        write structured trace events (JSONL) to PATH");
    println!("  --flight-dump PATH  post-mortem destination for the always-on flight");
    println!("                      recorder (default flight_dump.jsonl): the last");
    println!("                      events per thread are written there on panic or");
    println!("                      when a simulation hits its cycle budget");
    println!("  --progress          print live heartbeat lines (jobs done/total, memo");
    println!("                      hits, slowest in-flight job, ETA) to stderr;");
    println!("                      default: on iff stderr is a terminal");
    println!("  --no-progress       force the heartbeat off");
    println!("  --profile           build this run's sweep engine profiled: each of its");
    println!("                      simulations carries the per-routine cycle profiler");
    println!("                      (adds a `profile` field to metrics records)");
    println!("  --flame PATH        with --profile: write the call-graph of every profiled");
    println!("                      design point as collapsed flamegraph stacks (label-");
    println!("                      prefixed, aggregated into one file)");
    println!("  --flame-weight W    stack weight: `cycles` (default) or `nj` (attributed");
    println!("                      energy, nanojoules)");
    println!("  --trace-events PATH write Chrome trace-event JSON: a harness process");
    println!("                      (SweepEngine batches/jobs/sim runs) plus, with");
    println!("                      --profile, one synthetic process per design point");
    println!("                      (load in Perfetto)");
    println!("  -h, --help          show this help");
    println!();
    println!("environment:");
    println!("  ULE_SWEEP_THREADS   default fan-out width when --threads is absent; must be");
    println!("                      a positive integer (anything else warns once and falls");
    println!("                      back to std::thread::available_parallelism)");
    println!();
    println!("verify-options (differential verification campaign):");
    println!("  --seed S            campaign seed: hex, decimal, or any token");
    println!("                      (hashed deterministically; default 0xULE)");
    println!("  --iters N           random cases per curve before cost tiering");
    println!("                      (default 16; big fields run fewer)");
    println!("  --curve NAME        restrict to one curve (repeatable)");
    println!("  --config LABEL      restrict to one configuration: baseline,");
    println!("                      baseline+ic, isa-ext, isa-ext+ic, monte/billie");
    println!("  --case LABEL        replay one case: random:N, edge:NAME, negative:N");
    println!("  --no-edge           skip the adversarial edge corpus");
    println!("  --no-negative      skip bit-flip negative tests");
    println!("  --inject-fault      corrupt one RAM limb in the first simulated");
    println!("                      verification (harness self-test: the campaign");
    println!("                      must catch and shrink it)");
    println!("  --batch-oracle      host-only differential oracle: random batches");
    println!("                      through verify_batch_prehashed vs per-signature");
    println!("                      verify_prehashed; divergences are shrunk to a");
    println!("                      one-line reproducer (exit 1 on any divergence)");
    println!("  --batch-cases N     oracle batches per curve (default 24)");
    println!("  --max-batch N       largest random batch size (default 20)");
    println!("  --batch-case K      replay exactly one oracle batch (reproducer)");
    println!();
    println!("profile-options (single-point per-routine energy attribution):");
    println!("  --curve NAME        curve (default P-256)");
    println!("  --arch A            baseline | isa_ext | monte | billie (default isa_ext)");
    println!("  --workload W        sign | verify | sign_verify | scalar_mul | field_mul |");
    println!("                      xdh | handshake (default sign; xdh/handshake need an");
    println!("                      RFC 7748 curve: X25519 or X448)");
    println!("  --tier T            fast (default) | reference: the engine the exact");
    println!("                      profiler runs on (reference is the differential");
    println!("                      oracle; both print the same bytes)");
    println!("  --top N             table rows before aggregation (default 20, 0 = all)");
    println!("  --flame PATH        also write collapsed flamegraph stacks");
    println!("  --flame-weight W    `cycles` (default) or `nj`");
    println!("  --trace-events PATH also write Chrome trace-event JSON");
    println!();
    println!("serve-options (batched signing/verification service model):");
    println!("  --curve NAME        curve to serve (repeatable; default P-256 and K-163)");
    println!("  --batch-size N      verification batch size (repeatable; default 1 4 16;");
    println!("                      the batch-size-1 reference is always included)");
    println!("  --shards N          worker shards, one keypair each (default 4)");
    println!("  --requests N        total requests across shards (default 256)");
    println!("  --seed S            traffic + RLC seed: hex, decimal, or any token");
    println!("                      (hashed deterministically; default 0xULE)");
    println!("  --arch A            arch whose simulated verify cost anchors the energy");
    println!("                      projection in serve_point records (default isa_ext);");
    println!("                      the serve_frontier always spans the family's archs");
    println!("  --arrival-rate R    offered load in units of single-verify service time:");
    println!("                      the mean inter-arrival gap on the virtual clock is");
    println!("                      cycles_per_verify / R (default 0.25 — un-congested,");
    println!("                      so latencies are shard-count-invariant; R > shard");
    println!("                      count saturates the fleet and grows the p99 tail)");
    println!("  --metrics-out PATH  write serve_point/serve_summary/serve_frontier JSONL");
    println!("                      (validate with `repro check --serve PATH`); a gain");
    println!("                      summary line is appended to BENCH_history.jsonl");
    println!("                      next to PATH either way");
    println!("  --sla-out PATH      write serve_latency (fleet + per-shard mergeable");
    println!("                      latency histograms) and sla_summary (p99 x energy,");
    println!("                      queue depth, utilization) JSONL — fully virtual-time,");
    println!("                      byte-identical across reruns and worker degradation;");
    println!("                      validate with `repro check --sla PATH`");
    println!("  --trace-events PATH write the virtual request timeline as Chrome trace-");
    println!("                      event JSON: one process per (curve, batch size) run,");
    println!("                      one track per shard, one slice per executed batch");
    println!("                      (args: queued requests, service/wait cycles; 1 cycle");
    println!("                      rendered as 1 us — load in Perfetto)");
    println!();
    println!("explore-options (design-space exploration with Pareto extraction):");
    println!(
        "  --space S           built-in space ({}) or",
        ule_dse::spaces::BUILTIN_NAMES.join("|")
    );
    println!("                      a path to a JSON space file (see DESIGN.md \u{a7}12)");
    println!("  --strategy grid|greedy");
    println!("                      exhaustive grid (default) or frontier-guided pruner");
    println!("  --seed S            schedule seed for greedy: hex, decimal, or any");
    println!("                      token (hashed deterministically; default 0xULE)");
    println!("  --out PATH          resumable JSONL journal: design_point lines are");
    println!("                      appended as points finish, frontier + dse_summary");
    println!("                      records close the file; an existing journal at PATH");
    println!("                      is resumed without re-simulating matching points");
    println!("  --threads N         batch fan-out width (positive integer)");
    println!("  --report            print the frontier table of the journal at --out");
    println!("                      (no exploration; references are simulated on demand)");
    println!();
    println!("diff exit codes: 0 no drift, 1 drift or removed points, 2 usage/parse error");
    println!();
    println!("ids: {}", id_list());
}

const FLAME_WEIGHTS: &str = "`cycles` or `nj`";

fn parse_flame_weight(s: &str) -> Option<FlameWeight> {
    match s {
        "cycles" => Some(FlameWeight::Cycles),
        "nj" | "nanojoules" => Some(FlameWeight::NanoJoules),
        _ => None,
    }
}

fn read_or_die(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(format!("cannot read {}: {e}", path.display())))
}

fn write_file(path: &Path, contents: &str, what: &str) -> Exit {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {}: {e}", path.display());
        return Err(1);
    }
    eprintln!("wrote {what} to {}", path.display());
    Ok(())
}

/// `repro diff OLD NEW`: compare two metrics JSONL files on the
/// deterministic headline metrics. Exit 0 clean, 1 drift, 2 usage.
fn run_diff(mut args: Args) -> Exit {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut thresholds = DiffThresholds::default();
    let pct = |v: &str| v.parse::<f64>().ok().filter(|p| p.is_finite() && *p >= 0.0);
    while let Some(arg) = args.next() {
        let what = "a non-negative percentage";
        match arg.as_str() {
            "--max-cycles-pct" => {
                thresholds.max_cycles_frac = args.value_with(&arg, what, pct) / 100.0
            }
            "--max-energy-pct" => {
                thresholds.max_energy_frac = args.value_with(&arg, what, pct) / 100.0
            }
            other if other.starts_with('-') => Args::unknown("diff", other),
            p => paths.push(PathBuf::from(p)),
        }
    }
    if paths.len() != 2 {
        usage_error(
            "usage: repro diff OLD.jsonl NEW.jsonl [--max-cycles-pct X] [--max-energy-pct X]",
        );
    }
    let new_path = paths.pop().unwrap();
    let old_path = paths.pop().unwrap();
    let (old_text, new_text) = (read_or_die(&old_path), read_or_die(&new_path));
    let report = diff_metrics(
        &old_path.display().to_string(),
        &old_text,
        &new_path.display().to_string(),
        &new_text,
        thresholds,
    )
    .unwrap_or_else(|e| usage_error(format!("diff: {e}")));
    print!("{report}");
    exit_code(report.exit_code())
}

/// `repro check`: validate exported observability files (folded stacks
/// and/or trace-event JSON) the way a consumer would. Exit 0 valid,
/// 1 invalid, 2 usage.
fn run_check(mut args: Args) -> Exit {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let mut serve_min_gain: Option<f64> = None;
    let mut max_p99: Option<u64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flame" | "--trace-events" | "--journal" | "--flight-dump" | "--serve" | "--sla" => {
                let path = args.value(&arg);
                files.push((arg, path));
            }
            "--max-p99" => max_p99 = Some(args.positive(&arg)),
            "--serve-min-gain" => {
                serve_min_gain = Some(args.value_with(&arg, "a number >= 1", |v| {
                    v.parse::<f64>().ok().filter(|g| *g >= 1.0)
                }))
            }
            other => Args::unknown("check", other),
        }
    }
    let file = |flag: &str| files.iter().rev().find(|(f, _)| f == flag).map(|(_, p)| p);
    // A gate whose file is absent would pass vacuously.
    for (gate, needs, given) in [
        ("--serve-min-gain", "--serve", serve_min_gain.is_some()),
        ("--max-p99", "--sla", max_p99.is_some()),
    ] {
        if given && file(needs).is_none() {
            usage_error(format!("{gate} needs {needs} (the file it gates)"));
        }
    }
    if files.is_empty() {
        usage_error(
            "usage: repro check [--flame PATH] [--trace-events PATH] [--journal PATH] \
             [--flight-dump PATH] [--serve PATH [--serve-min-gain G]] \
             [--sla PATH [--max-p99 CYCLES]]",
        );
    }
    type Validator = Box<dyn Fn(&str) -> Result<String, String>>;
    let validators: [(&str, &str, Validator); 6] = [
        (
            "--flame",
            "folded stacks",
            Box::new(|text| {
                let stacks = ule_obs::flame::parse_folded(text)?;
                let total: u64 = stacks.iter().map(|(_, w)| w).sum();
                Ok(format!("{} stacks, total weight {total}", stacks.len()))
            }),
        ),
        (
            "--trace-events",
            "trace events",
            Box::new(|text| {
                let s = ule_obs::trace_events::validate_trace_events(text)?;
                Ok(format!(
                    "{} events ({} complete, {} metadata)",
                    s.events, s.complete_events, s.metadata_events
                ))
            }),
        ),
        (
            "--journal",
            "explorer journal",
            Box::new(|text| {
                let j = ule_dse::journal::validate_journal(text)?;
                let mut line = format!(
                    "{} design points, {} frontier points, {} summary",
                    j.points.len(),
                    j.frontier.len(),
                    j.summaries.len()
                );
                if j.unknown > 0 {
                    line += &format!(", {} unknown-kind lines skipped", j.unknown);
                }
                Ok(line)
            }),
        ),
        (
            "--serve",
            "serve journal",
            Box::new(move |text| {
                let s = ule_serve::metrics::validate_serve(text, serve_min_gain)?;
                let mut line = format!(
                    "{} serve points, {} summaries, {} frontier points, 0 mismatches",
                    s.points, s.summaries, s.frontier
                );
                if s.min_gain_ops.is_finite() {
                    line += &format!(", min batching gain {:.2}x", s.min_gain_ops);
                }
                Ok(line)
            }),
        ),
        (
            "--sla",
            "SLA journal",
            Box::new(move |text| {
                let s = ule_serve::metrics::validate_sla(text, max_p99)?;
                Ok(format!(
                    "{} runs, {} latency records, {} SLA summaries, worst p99 {} cycles",
                    s.runs, s.latency_records, s.summaries, s.max_p99
                ))
            }),
        ),
        (
            "--flight-dump",
            "flight dump",
            Box::new(|text| {
                let s = ule_obs::flight::validate_dump(text)?;
                Ok(format!(
                    "{} threads, {} events, {} dropped{}",
                    s.threads,
                    s.events,
                    s.dropped,
                    if s.wrapped { " (wrapped)" } else { "" }
                ))
            }),
        ),
    ];
    let mut failed = false;
    for (flag, what, validate) in &validators {
        let Some(p) = file(flag) else { continue };
        match validate(&read_or_die(p)) {
            Ok(summary) => println!("{}: {summary}", p.display()),
            Err(e) => {
                eprintln!("{}: INVALID {what}: {e}", p.display());
                failed = true;
            }
        }
    }
    exit_code(i32::from(failed))
}

/// `repro profile`: simulate one design point with the exact profiler
/// attached and print the per-routine energy attribution table. The
/// profile is the same on either engine tier (`--tier reference` runs
/// the differential oracle).
fn run_profile(mut args: Args, obs: &mut ObsOptions) -> Exit {
    let mut curve = CurveId::P256;
    let mut arch = Arch::IsaExt;
    let mut workload = Workload::Sign;
    let mut tier = EngineTier::Fast;
    let mut top = 20usize;
    let mut flame: Option<PathBuf> = None;
    let mut flame_weight = FlameWeight::Cycles;
    let mut trace: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--curve" => curve = args.value(&arg),
            "--arch" => arch = args.value(&arg),
            "--workload" => workload = args.value(&arg),
            "--tier" => tier = args.value(&arg),
            "--top" => top = args.value_with(&arg, "a non-negative integer", |v| v.parse().ok()),
            "--flame" => flame = Some(args.value(&arg)),
            "--flame-weight" => {
                flame_weight = args.value_with(&arg, FLAME_WEIGHTS, parse_flame_weight)
            }
            "--trace-events" => trace = Some(args.value(&arg)),
            other => Args::unknown("profile", other),
        }
    }
    if let Err(e) = ule_core::validate_workload(curve, arch, workload) {
        usage_error(e);
    }
    obs.start(None);
    let config = SystemConfig::new(curve, arch);
    let label = ConfigKey::new(config, workload).label();
    let started = std::time::Instant::now();
    let report = System::new(config).run_with(RunOptions::new(workload).profiled().with_tier(tier));
    let wall = started.elapsed();
    let p = report.profile.as_ref().expect("profiled run sets profile");
    println!(
        "{label}: {} cycles, {:.4} uJ, {} routines, {} call paths",
        report.cycles,
        report.energy.total_uj(),
        p.routines.len(),
        p.calls.nodes.len()
    );
    println!();
    print!("{}", attr::routine_energy_table(p, &report.energy, top));
    // Wall-clock on stderr, so stdout stays byte-identical across tiers.
    eprintln!("profile wall-clock: {} ms", wall.as_millis());
    if let Some(path) = &flame {
        let stacks = attr::folded_stacks(p, &report.energy, flame_weight, &label);
        write_file(path, &ule_obs::flame::to_folded(&stacks), "folded stacks")?;
    }
    if let Some(path) = &trace {
        let mut buf = TraceEventsBuf::new();
        attr::trace_events_into(&mut buf, 1, &label, p);
        write_file(path, &buf.finish(), "trace events")?;
    }
    Ok(())
}

/// `repro serve`: the batched signing/verification service model.
/// Generates seeded traffic per curve, replays it on the virtual clock
/// through the sharded `ule-serve` engine at every requested batch
/// size, projects energy per request from simulated per-verification
/// costs, and emits `serve_point`/`serve_summary`/`serve_frontier`
/// records plus — behind `--sla-out` — `serve_latency`/`sla_summary`
/// latency records (schema v5). Exit 1 iff any batch verdict disagreed
/// with `verify_prehashed`.
fn run_serve(mut args: Args, obs: &mut ObsOptions) -> Exit {
    let mut curves: Vec<CurveId> = Vec::new();
    let mut batch_sizes: Vec<usize> = Vec::new();
    let mut shards = 4usize;
    let mut requests = 256usize;
    let mut seed = ule_verify::parse_seed("0xULE");
    let mut arch = Arch::IsaExt;
    let mut arrival_rate = 0.25f64;
    let mut metrics_path: Option<PathBuf> = None;
    let mut sla_path: Option<PathBuf> = None;
    let mut trace_events_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--curve" => {
                let c: CurveId = args.value(&arg);
                if c.is_mont() {
                    usage_error(format!(
                        "serve is an ECDSA service model; {} carries no signatures",
                        c.name()
                    ));
                }
                curves.push(c);
            }
            "--batch-size" => batch_sizes.push(args.positive(&arg)),
            "--shards" => shards = args.positive(&arg),
            "--requests" => requests = args.positive(&arg),
            "--seed" => seed = ule_verify::parse_seed(&args.value::<String>(&arg)),
            "--arch" => arch = args.value(&arg),
            "--arrival-rate" => {
                arrival_rate = args.value_with(&arg, "a positive number", |v| {
                    v.parse::<f64>().ok().filter(|r| r.is_finite() && *r > 0.0)
                })
            }
            "--metrics-out" => metrics_path = Some(args.value(&arg)),
            "--sla-out" => sla_path = Some(args.value(&arg)),
            "--trace-events" => trace_events_path = Some(args.value(&arg)),
            other => Args::unknown("serve", other),
        }
    }
    if curves.is_empty() {
        curves = vec![CurveId::P256, CurveId::K163];
    }
    if batch_sizes.is_empty() {
        batch_sizes = vec![1, 4, 16];
    }
    batch_sizes.sort_unstable();
    batch_sizes.dedup();
    if batch_sizes[0] != 1 {
        // The batch-size-1 reference anchors op_scale and the gains.
        batch_sizes.insert(0, 1);
    }
    // Usage errors exit before the recorder starts, so no run is cut short.
    if let Some(c) = curves.iter().find(|&&c| !arch_supports_curve(arch, c)) {
        let (a, n) = (arch.key(), c.name());
        usage_error(format!(
            "arch {a} is not valid on {n} (family accelerator mismatch)"
        ));
    }
    obs.start(Some("repro serve"));
    let engine = SweepEngine::new();
    // Per-verification simulated costs for the energy projection: the
    // valid accelerator set differs by family (Monte fronts the prime
    // datapath, Billie the binary one).
    let sim_costs = |curve: CurveId, archs: &[Arch]| -> Vec<ule_serve::metrics::SimCosts> {
        let jobs: Vec<Job> = archs
            .iter()
            .map(|&a| (SystemConfig::new(curve, a), Workload::Verify))
            .collect();
        let reports = engine.run_batch(&jobs);
        archs
            .iter()
            .zip(&reports)
            .map(|(&a, r)| ule_serve::metrics::SimCosts {
                arch: a.key().to_owned(),
                cycles: r.cycles,
                energy_uj: r.energy.total_uj(),
                area_kge: ule_core::space::area_kge(&SystemConfig::new(curve, a)),
            })
            .collect()
    };
    let mut registry = ule_obs::record::MetricsRegistry::new();
    let mut sla_registry = ule_obs::record::MetricsRegistry::new();
    let mut trace_buf = ule_obs::trace_events::TraceEventsBuf::new();
    let mut trace_pid = 0u64;
    let mut mismatches_total = 0usize;
    let mut history_gains: Vec<String> = Vec::new();
    for &curve in &curves {
        let family_archs: Vec<Arch> = Arch::ALL
            .into_iter()
            .filter(|&a| arch_supports_curve(a, curve))
            .collect();
        let costs = sim_costs(curve, &family_archs);
        let point_costs = costs
            .iter()
            .find(|c| c.arch == arch.key())
            .expect("requested arch simulated")
            .clone();
        println!(
            "{}: {requests} requests, {shards} shards, seed {seed:#x}, arch {}",
            curve.name(),
            arch.key()
        );
        let mut runs: Vec<(ule_serve::ServeOutcome, f64)> = Vec::new();
        for &batch in &batch_sizes {
            let cfg = ule_serve::ServeConfig {
                curve,
                requests,
                batch_size: batch,
                shards,
                seed,
                arrival_rate,
                // The virtual clock is anchored to the requested arch's
                // simulated per-verification cycle cost.
                cycles_per_verify: point_costs.cycles,
            };
            let outcome = ule_serve::run_service(&cfg);
            let scale = ule_serve::metrics::op_scale(
                &outcome,
                runs.first().map(|(o, _)| o).unwrap_or(&outcome),
            );
            mismatches_total += outcome.mismatches;
            println!(
                "  batch {batch:>3}: {:>9.1} sig/s, op_scale {scale:.3}, rlc {}/{} batches, \
                 {:.2} uJ/Mreq, p99 {} cycles",
                outcome.signatures_per_sec(),
                outcome.rlc_batches,
                outcome.batches,
                ule_serve::metrics::energy_uj_per_million_requests(&point_costs, scale),
                outcome.telemetry.fleet_hist.percentile(99.0),
            );
            registry.push(ule_serve::metrics::serve_point_record(
                &outcome,
                scale,
                &point_costs,
            ));
            for record in ule_serve::metrics::serve_latency_records(&outcome) {
                sla_registry.push(record);
            }
            sla_registry.push(ule_serve::metrics::sla_summary_record(
                &outcome,
                scale,
                &point_costs,
            ));
            if trace_events_path.is_some() {
                // One Perfetto process per (curve, batch size) run, one
                // track per shard, one slice per executed batch; 1
                // virtual cycle rendered as 1 µs. The per-slice
                // `queued` args sum to the run's request count.
                trace_pid += 1;
                trace_buf.process_name(trace_pid, &format!("serve {} batch {batch}", curve.name()));
                for s in 0..shards {
                    trace_buf.thread_name(trace_pid, s as u64 + 1, &format!("shard {s}"));
                }
                for t in &outcome.telemetry.traces {
                    trace_buf.complete(
                        trace_pid,
                        t.shard as u64 + 1,
                        &format!("batch {}", t.index),
                        t.start_cycles as f64,
                        t.service_cycles as f64,
                        &[
                            ("queued", t.items as u64),
                            ("service_cycles", t.service_cycles),
                            ("wait_cycles", t.start_cycles - t.ready_cycles),
                        ],
                    );
                }
            }
            runs.push((outcome, scale));
        }
        let summary = ule_serve::metrics::serve_summary_record(&runs);
        let gain = |key: &str| match summary.get(key) {
            Some(ule_obs::Value::F64(g)) => *g,
            _ => 0.0,
        };
        let (gain_sps, gain_ops) = (gain("gain_sps"), gain("gain_ops"));
        println!(
            "  batch {} vs 1: {gain_sps:.2}x sig/s, {gain_ops:.2}x fewer host ops",
            batch_sizes.last().unwrap(),
        );
        // p99 of the largest-batch run: the latency the gain is
        // bought at (absent in pre-v5 history lines).
        let p99 = runs
            .last()
            .map(|(o, _)| o.telemetry.fleet_hist.percentile(99.0))
            .unwrap_or(0);
        history_gains.push(format!(
            "{{\"curve\":\"{}\",\"gain_sps\":{gain_sps:.4},\"gain_ops\":{gain_ops:.4},\"p99_latency_cycles\":{p99}}}",
            curve.name(),
        ));
        registry.push(summary);
        let (_, frontier) = ule_serve::metrics::frontier_records(&costs, &runs);
        for record in frontier {
            registry.push(record);
        }
    }
    if let Some(path) = &metrics_path {
        write_file(path, &registry.to_jsonl(), "serve metrics")?;
    }
    if let Some(path) = &sla_path {
        // Every field in the SLA journal is virtual-time: the file is
        // byte-identical across reruns (CI pins this with `cmp`).
        write_file(path, &sla_registry.to_jsonl(), "SLA records")?;
    }
    if let Some(path) = &trace_events_path {
        write_file(path, &trace_buf.finish(), "serve trace events")?;
    }
    // One-line gain summary appended to BENCH_history.jsonl (next to
    // --metrics-out when given): the batching-gain trajectory across
    // PRs, mirroring the bench sweep's history line.
    let history = metrics_path
        .as_deref()
        .map(|p| p.with_file_name("BENCH_history.jsonl"))
        .unwrap_or_else(|| PathBuf::from("BENCH_history.jsonl"));
    let line = format!(
        "{{\"schema_version\":{},\"serve_requests\":{requests},\"serve_batch_max\":{},\"arrival_rate\":{arrival_rate},\"serve_gains\":[{}]}}",
        ule_obs::record::SCHEMA_VERSION,
        batch_sizes.last().unwrap(),
        history_gains.join(",")
    );
    debug_assert!(ule_obs::json::is_valid(&line));
    let append = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{line}\n").as_bytes()));
    if let Err(e) = append {
        eprintln!("cannot append {}: {e}", history.display());
        return Err(1);
    }
    if mismatches_total > 0 {
        eprintln!("serve: {mismatches_total} batch verdicts diverged from verify_prehashed");
        return Err(1);
    }
    Ok(())
}

/// `repro selftest-flight`: end-to-end self-test of the flight
/// recorder's panic path. Starts the recorder exactly as every other
/// subcommand does, emits a recognizable event trail, then panics
/// deliberately — the panic hook must write the dump before the
/// process dies. The `ule-bench` CLI tests run this expecting a nonzero
/// exit and a dump that `flight::validate_dump` accepts.
fn run_selftest_flight(obs: &mut ObsOptions) -> Exit {
    obs.start(None);
    for i in 0..8u64 {
        ule_obs::obs_event!("selftest.tick", index = i);
    }
    ule_obs::obs_event!("selftest.boom", note = "deliberate panic next");
    panic!("flight-recorder self-test: deliberate panic (the dump above is expected)");
}

/// `repro verify …`: run a differential campaign and exit. Exit code 0
/// means the campaign matched expectations (zero divergences, or — with
/// `--inject-fault` — exactly the injected fault was caught).
fn run_verify(mut args: Args, obs: &mut ObsOptions) -> Exit {
    let mut campaign = ule_verify::Campaign::new(ule_verify::parse_seed("0xULE"), 16);
    let mut curves: Vec<CurveId> = Vec::new();
    let mut batch_oracle = false;
    let mut batch_cases = 24usize;
    let mut max_batch = 20usize;
    let mut batch_case: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => campaign.seed = ule_verify::parse_seed(&args.value::<String>(&arg)),
            "--iters" => campaign.iters = args.positive(&arg),
            "--curve" => curves.push(args.value(&arg)),
            "--config" => campaign.only_config = Some(args.value(&arg)),
            "--case" => campaign.only_case = Some(args.value(&arg)),
            "--tier" => campaign.tier = args.value(&arg),
            "--no-edge" => campaign.edge = false,
            "--no-negative" => campaign.negative = false,
            "--inject-fault" => campaign.inject_fault = true,
            "--batch-oracle" => batch_oracle = true,
            "--batch-cases" => batch_cases = args.positive(&arg),
            "--max-batch" => max_batch = args.positive(&arg),
            "--batch-case" => {
                batch_case = Some(args.value_with(&arg, "a case index", |v| v.parse().ok()))
            }
            "--progress" | "--no-progress" => obs.progress = Some(arg == "--progress"),
            other => Args::unknown("verify", other),
        }
    }
    if !curves.is_empty() {
        campaign.curves = curves;
    }
    // The host-only batch oracle reports no jobs to a progress line.
    obs.start(Some("repro verify").filter(|_| !batch_oracle));
    if batch_oracle {
        // Host-only differential campaign for the batch verifier: no
        // simulator involved, so it runs before (and independently of)
        // the sim campaign and owns the exit code when selected.
        let cfg = ule_verify::BatchOracleConfig {
            seed: campaign.seed,
            curves: campaign.curves.clone(),
            cases: batch_cases,
            max_batch,
            only_case: batch_case,
        };
        let report = ule_verify::run_batch_oracle(&cfg);
        print!("{}", report.render(&cfg));
        return exit_code(i32::from(!report.divergences.is_empty()));
    }
    let report = ule_verify::run_campaign(&campaign);
    print!("{}", report.render(&campaign));
    if campaign.inject_fault {
        // Self-test: the deliberate corruption must be caught.
        if report.divergences.is_empty() {
            eprintln!("verify: injected fault was NOT caught");
            return Err(1);
        }
        println!("verify: injected fault caught and shrunk (self-test ok)");
        return Ok(());
    }
    exit_code(i32::from(!report.divergences.is_empty()))
}

/// `repro explore …`: enumerate a design-space lattice, evaluate it
/// through the memoizing engine, and print the Pareto frontier. With
/// `--report`, skip exploration and render the frontier table of an
/// existing journal instead.
fn run_explore(mut args: Args, obs: &mut ObsOptions) -> Exit {
    let mut space_arg: Option<String> = None;
    let mut strategy = ule_dse::StrategyKind::Grid;
    let mut seed = ule_verify::parse_seed("0xULE");
    let mut out: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut report = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--space" => space_arg = Some(args.value(&arg)),
            "--strategy" => strategy = args.value(&arg),
            "--seed" => seed = ule_verify::parse_seed(&args.value::<String>(&arg)),
            "--out" => out = Some(args.value(&arg)),
            "--threads" => threads = Some(args.positive(&arg)),
            "--report" => report = true,
            "--progress" | "--no-progress" => obs.progress = Some(arg == "--progress"),
            other => Args::unknown("explore", other),
        }
    }
    let mut engine = SweepEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }

    let outcome = if report {
        let Some(path) = &out else {
            usage_error("--report renders an existing journal: pass its path via --out");
        };
        ule_dse::explore::outcome_from_journal(&read_or_die(path))
            .unwrap_or_else(|e| usage_error(format!("{}: {e}", path.display())))
    } else {
        let Some(space_str) = space_arg else {
            usage_error(format!(
                "explore needs --space: one of {}, or a space-file path",
                ule_dse::spaces::BUILTIN_NAMES.join(", ")
            ));
        };
        let space = ule_dse::spaces::builtin(&space_str).unwrap_or_else(|| {
            let text = std::fs::read_to_string(&space_str).unwrap_or_else(|e| {
                usage_error(format!(
                    "--space {space_str:?} is neither a built-in ({}) nor a readable file: {e}",
                    ule_dse::spaces::BUILTIN_NAMES.join(", ")
                ))
            });
            ule_dse::spaces::parse_space_file(&text)
                .unwrap_or_else(|e| usage_error(format!("{space_str}: {e}")))
        });
        obs.start(Some("repro explore"));
        let mut strategy = strategy.build(seed);
        let outcome = ule_dse::explore(&engine, &space, strategy.as_mut(), seed, out.as_deref())
            .map_err(|e| {
                eprintln!("explore: {e}");
                1
            })?;
        obs.finish();
        println!(
            "space {} ({}): {} lattice points, {} pruned, {} evaluated \
             ({} resumed, {} simulated), frontier {}",
            outcome.space,
            outcome.workload.key(),
            outcome.lattice_points,
            outcome.pruned,
            outcome.evaluated,
            outcome.resumed,
            outcome.simulated,
            outcome.frontier.len()
        );
        if let Some(path) = &out {
            eprintln!("wrote journal to {}", path.display());
        }
        println!();
        outcome
    };
    let table = ule_dse::explore::render_report(&engine, &outcome).map_err(|e| {
        eprintln!("report: {e}");
        1
    })?;
    print!("{table}");
    Ok(())
}

fn id_list() -> String {
    let names: Vec<&str> = ExperimentId::VARIANTS.iter().map(|id| id.name()).collect();
    names.join(" ")
}

fn main() {
    let mut obs = ObsOptions::default();
    let exit = run(&mut obs);
    obs.finish();
    std::process::exit(exit.err().unwrap_or(0));
}

/// Parses the global options and runs the selected experiments or
/// subcommand.
fn run(obs: &mut ObsOptions) -> Exit {
    let mut threads: Option<usize> = None;
    let mut json = false;
    let mut metrics_path: Option<PathBuf> = None;
    let mut profile = false;
    let mut flame_path: Option<PathBuf> = None;
    let mut flame_weight = FlameWeight::Cycles;
    let mut trace_events_path: Option<PathBuf> = None;
    let mut selected: Vec<ExperimentId> = Vec::new();
    let mut args = Args::from_env();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print_help();
                return Ok(());
            }
            "--list" => {
                for id in ExperimentId::VARIANTS {
                    println!("{id}");
                }
                println!("all");
                return Ok(());
            }
            "--threads" => threads = Some(args.positive(&arg)),
            "--format" => {
                json = args.value_with(&arg, "`text` or `json`", |v| match v {
                    "text" => Some(false),
                    "json" => Some(true),
                    _ => None,
                })
            }
            "--metrics-out" => metrics_path = Some(args.value(&arg)),
            "--trace" => obs.trace = Some(args.value(&arg)),
            "--flight-dump" => obs.flight_dump = Some(args.value(&arg)),
            "--progress" | "--no-progress" => obs.progress = Some(arg == "--progress"),
            "--profile" => profile = true,
            "--flame" => flame_path = Some(args.value(&arg)),
            "--flame-weight" => {
                flame_weight = args.value_with(&arg, FLAME_WEIGHTS, parse_flame_weight)
            }
            "--trace-events" => trace_events_path = Some(args.value(&arg)),
            // Subcommands own the rest of the argument list.
            "verify" => return run_verify(args, obs),
            "diff" => return run_diff(args),
            "check" => return run_check(args),
            "profile" => return run_profile(args, obs),
            "explore" => return run_explore(args, obs),
            "serve" => return run_serve(args, obs),
            "selftest-flight" => return run_selftest_flight(obs),
            "all" => selected.extend(ExperimentId::ALL),
            other => match ExperimentId::from_str(other) {
                Ok(id) => selected.push(id),
                Err(e) => usage_error(format!("{e}\nvalid ids: {} (or: all)", id_list())),
            },
        }
    }
    if selected.is_empty() {
        usage_error(format!(
            "usage: repro [options] <experiment-id>... | all | --list\n\
             run `repro --help` for the option list\nids: {}",
            id_list()
        ));
    }
    if flame_path.is_some() && !profile {
        usage_error("--flame needs --profile (the call graph is only built on profiled runs)");
    }

    // The recorder is built before the engine so their epochs align in
    // the merged trace.
    obs.start(Some("repro"));
    let mut engine = SweepEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }
    if profile {
        engine = engine.profiled();
    }

    // Pre-warm the memo cache in parallel over the union of design
    // points, then render serially in order.
    let jobs: Vec<Job> = selected.iter().flat_map(|id| id.jobs()).collect();
    let reports = engine.run_batch(&jobs);
    obs.finish();
    if json {
        let reg = metrics_out::metrics_registry(&jobs, &reports, &engine);
        print!("{}", reg.to_jsonl());
    } else {
        for id in &selected {
            print!("{}", id.run(&engine));
        }
    }
    if let Some(path) = &metrics_path {
        let n = metrics_out::write_metrics(path, &jobs, &reports, &engine).map_err(|e| {
            eprintln!("cannot write metrics to {}: {e}", path.display());
            1
        })?;
        eprintln!("wrote {n} metrics records to {}", path.display());
    }

    // Aggregated call-graph exports: one prefix/process per distinct
    // profiled design point (same dedup as the metrics registry), plus
    // a harness process (pid 0) with the SweepEngine's scheduling
    // timeline above the sim-level routine tracks.
    if flame_path.is_some() || trace_events_path.is_some() {
        let mut seen = HashSet::new();
        let mut stacks: Vec<(String, u64)> = Vec::new();
        let mut tbuf = TraceEventsBuf::new();
        if trace_events_path.is_some() {
            merge_harness_track(&mut tbuf, &engine);
        }
        let mut pid = 0u64;
        for (&(config, workload), report) in jobs.iter().zip(&reports) {
            let key = ConfigKey::new(config, workload);
            if !seen.insert(key) {
                continue;
            }
            if let Some(p) = &report.profile {
                pid += 1;
                let label = key.label();
                if flame_path.is_some() {
                    stacks.extend(attr::folded_stacks(p, &report.energy, flame_weight, &label));
                }
                if trace_events_path.is_some() {
                    attr::trace_events_into(&mut tbuf, pid, &label, p);
                }
            }
        }
        if let Some(path) = &flame_path {
            write_file(path, &ule_obs::flame::to_folded(&stacks), "folded stacks")?;
        }
        if let Some(path) = &trace_events_path {
            write_file(path, &tbuf.finish(), "trace events")?;
        }
    }
    Ok(())
}

/// Writes the harness timeline into `buf` as process 0: one thread per
/// sweep worker, a complete event per simulation executed (from the
/// engine's [`job spans`](SweepEngine::job_spans)), with the `sys.sim`
/// and `sweep.batch` spans recovered from the current recorder's ring
/// nested on the same tracks. Loading the merged file in Perfetto shows
/// SweepEngine scheduling directly above the per-design-point routine
/// processes.
fn merge_harness_track(buf: &mut TraceEventsBuf, engine: &SweepEngine) {
    let spans = engine.job_spans();
    let rec = Recorder::current();
    let mut recovered = rec.lines_of_kind("sweep.batch");
    recovered.extend(rec.lines_of_kind("sys.sim"));
    let recovered = recovered.join("\n");
    if spans.is_empty() && recovered.is_empty() {
        return;
    }
    buf.process_name(0, "harness (SweepEngine)");
    let mut tids: BTreeMap<String, u64> = BTreeMap::new();
    let mut tid_of = |buf: &mut TraceEventsBuf, thread: &str| -> u64 {
        match tids.get(thread) {
            Some(&t) => t,
            None => {
                let t = tids.len() as u64 + 1;
                tids.insert(thread.to_owned(), t);
                buf.thread_name(0, t, thread);
                t
            }
        }
    };
    for s in &spans {
        let tid = tid_of(buf, &s.thread);
        buf.complete(
            0,
            tid,
            &format!("job {}", s.key.label()),
            s.start.as_micros() as f64,
            s.wall.as_micros() as f64,
            &[],
        );
    }
    // Span events carry their end time (`t_us`, the drop) and duration;
    // start = end - dur. The ring's epoch is the recorder's build time,
    // microseconds before the engine's, so the tracks align.
    for (_, _, v) in ule_obs::json::records(&recovered) {
        let Ok(v) = v else {
            continue;
        };
        let (Some(t_us), Some(dur_us), Some(thread), Some(kind)) = (
            v.get("t_us").and_then(|x| x.as_u64()),
            v.get("dur_us").and_then(|x| x.as_u64()),
            v.get("thread").and_then(|x| x.as_str()),
            v.get("kind").and_then(|x| x.as_str()),
        ) else {
            continue;
        };
        let name = if kind == "sweep.batch" {
            format!(
                "batch ({} jobs)",
                v.get("jobs").and_then(|x| x.as_u64()).unwrap_or(0)
            )
        } else {
            format!(
                "sim {} ({})",
                v.get("entry").and_then(|x| x.as_str()).unwrap_or("?"),
                v.get("curve").and_then(|x| x.as_str()).unwrap_or("?"),
            )
        };
        let mut args: Vec<(&str, u64)> = Vec::new();
        if let Some(c) = v.get("cycles").and_then(|x| x.as_u64()) {
            args.push(("cycles", c));
        }
        let tid = tid_of(buf, thread);
        buf.complete(
            0,
            tid,
            &name,
            t_us.saturating_sub(dur_us) as f64,
            dur_us as f64,
            &args,
        );
    }
}
