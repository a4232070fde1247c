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
use std::path::PathBuf;
use std::str::FromStr;

use ule_bench::diff::{diff_metrics, DiffThresholds};
use ule_bench::{metrics_out, ConfigKey, ExperimentId, Job, SweepEngine};
use ule_core::attr::{self, FlameWeight};
use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_obs::trace_events::TraceEventsBuf;
use ule_swlib::builder::Arch;

/// Per-thread flight-recorder ring size for CLI runs: large enough
/// that a full `repro all` keeps every harness-level span (jobs, sim
/// runs) for the merged trace export, still bounded.
const FLIGHT_CAPACITY: usize = 4096;

/// Observability switches shared by the simulating subcommands, parsed
/// from the global (pre-subcommand) options.
struct ObsOptions {
    /// `--trace PATH`: stream every event to a JSONL file (chained
    /// behind the flight recorder).
    trace: Option<PathBuf>,
    /// `--flight-dump PATH`: where panic/cycle-limit post-mortems go.
    flight_dump: PathBuf,
    /// `--progress`/`--no-progress`; `None` = autodetect from stderr.
    progress: Option<bool>,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            trace: None,
            flight_dump: PathBuf::from("flight_dump.jsonl"),
            progress: None,
        }
    }
}

impl ObsOptions {
    /// Installs the flight recorder (chaining the `--trace` sink when
    /// requested) and arms post-mortem dumping. Called once by every
    /// simulating subcommand before the first run.
    fn install(&self) {
        let inner: Option<Box<dyn ule_obs::EventSink>> = match &self.trace {
            Some(path) => match ule_obs::JsonlFileSink::create(path) {
                Ok(sink) => Some(Box::new(sink)),
                Err(e) => {
                    eprintln!("cannot open trace file {}: {e}", path.display());
                    std::process::exit(2);
                }
            },
            None => None,
        };
        ule_obs::flight::install(FLIGHT_CAPACITY, inner);
        ule_obs::flight::arm_auto_dump(self.flight_dump.clone());
    }

    /// Whether to run the live progress reporter: explicit flag wins,
    /// otherwise on iff stderr is a terminal.
    fn progress_on(&self) -> bool {
        self.progress
            .unwrap_or_else(ule_obs::progress::stderr_is_tty)
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
    println!("       repro overhead [overhead-options]");
    println!("       repro selftest-flight    (panics on purpose; the armed flight");
    println!("                                recorder must dump first — CI self-test)");
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
    println!("  --profile           attach the per-routine cycle profiler to every");
    println!("                      simulation (adds a `profile` field to metrics records)");
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
    println!("  --tier T            reference (default): exact per-instruction profiler");
    println!("                      with full call graph; fast: sampled profiler on the");
    println!("                      fast engine (exact totals, approximate per-routine");
    println!("                      split, no call graph)");
    println!("  --top N             table rows before aggregation (default 20, 0 = all)");
    println!("  --flame PATH        also write collapsed flamegraph stacks (reference");
    println!("                      tier only: the sampled profiler has no call graph)");
    println!("  --flame-weight W    `cycles` (default) or `nj`");
    println!("  --trace-events PATH also write Chrome trace-event JSON (reference tier");
    println!("                      only)");
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
    println!("overhead-options (sampled-profiler wall-clock A/B against an identically");
    println!("                  allocated never-firing ballast sampler; hard-gated in CI):");
    println!("  --curve NAME        curve (default K-163)");
    println!("  --arch A            baseline | isa_ext | monte | billie (default baseline)");
    println!("  --workload W        workload (default sign)");
    println!("  --runs N            timed runs per mode, best-of (default 3)");
    println!("  --max-pct P         failure threshold, percent (default 5)");
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

fn parse_arch(s: &str) -> Option<Arch> {
    match s {
        "baseline" => Some(Arch::Baseline),
        "isa_ext" | "isa-ext" => Some(Arch::IsaExt),
        "monte" => Some(Arch::Monte),
        "billie" => Some(Arch::Billie),
        _ => None,
    }
}

fn parse_workload(s: &str) -> Option<Workload> {
    match s {
        "sign" => Some(Workload::Sign),
        "verify" => Some(Workload::Verify),
        "sign_verify" | "sign-verify" => Some(Workload::SignVerify),
        "scalar_mul" | "scalar-mul" => Some(Workload::ScalarMul),
        "field_mul" | "field-mul" => Some(Workload::FieldMul),
        "xdh" => Some(Workload::Xdh),
        "handshake" => Some(Workload::Handshake),
        _ => None,
    }
}

fn parse_flame_weight(s: &str) -> Option<FlameWeight> {
    match s {
        "cycles" => Some(FlameWeight::Cycles),
        "nj" | "nanojoules" => Some(FlameWeight::NanoJoules),
        _ => None,
    }
}

fn write_or_die(path: &std::path::Path, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {what} to {}", path.display());
}

/// `repro diff OLD NEW`: compare two metrics JSONL files on the
/// deterministic headline metrics. Exit 0 clean, 1 drift, 2 usage.
fn run_diff(args: impl Iterator<Item = String>) -> ! {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut thresholds = DiffThresholds::default();
    let args_v: Vec<String> = args.collect();
    let mut i = 0;
    while i < args_v.len() {
        let pct = |i: &mut usize, flag: &str| -> f64 {
            *i += 1;
            args_v
                .get(*i)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|p| p.is_finite() && *p >= 0.0)
                .unwrap_or_else(|| {
                    eprintln!("{flag} expects a non-negative percentage");
                    std::process::exit(2);
                })
        };
        match args_v[i].as_str() {
            "--max-cycles-pct" => {
                thresholds.max_cycles_frac = pct(&mut i, "--max-cycles-pct") / 100.0
            }
            "--max-energy-pct" => {
                thresholds.max_energy_frac = pct(&mut i, "--max-energy-pct") / 100.0
            }
            other if other.starts_with('-') => {
                eprintln!("unknown diff option {other:?}");
                std::process::exit(2);
            }
            p => paths.push(PathBuf::from(p)),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: repro diff OLD.jsonl NEW.jsonl [--max-cycles-pct X] [--max-energy-pct X]"
        );
        std::process::exit(2);
    }
    let new_path = paths.pop().unwrap();
    let old_path = paths.pop().unwrap();
    let read = |p: &PathBuf| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", p.display());
            std::process::exit(2);
        })
    };
    let (old_text, new_text) = (read(&old_path), read(&new_path));
    let report = diff_metrics(
        &old_path.display().to_string(),
        &old_text,
        &new_path.display().to_string(),
        &new_text,
        thresholds,
    )
    .unwrap_or_else(|e| {
        eprintln!("diff: {e}");
        std::process::exit(2);
    });
    print!("{report}");
    std::process::exit(report.exit_code());
}

/// `repro check`: validate exported observability files (folded stacks
/// and/or trace-event JSON) the way a consumer would. Exit 0 valid,
/// 1 invalid, 2 usage.
fn run_check(args: impl Iterator<Item = String>) -> ! {
    let mut flame: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut flight_dump: Option<PathBuf> = None;
    let mut serve: Option<PathBuf> = None;
    let mut serve_min_gain: Option<f64> = None;
    let mut sla: Option<PathBuf> = None;
    let mut max_p99: Option<u64> = None;
    let args_v: Vec<String> = args.collect();
    let mut i = 0;
    while i < args_v.len() {
        let take = |i: &mut usize, flag: &str| -> PathBuf {
            *i += 1;
            args_v.get(*i).map(PathBuf::from).unwrap_or_else(|| {
                eprintln!("{flag} expects a path");
                std::process::exit(2);
            })
        };
        match args_v[i].as_str() {
            "--flame" => flame = Some(take(&mut i, "--flame")),
            "--trace-events" => trace = Some(take(&mut i, "--trace-events")),
            "--journal" => journal = Some(take(&mut i, "--journal")),
            "--flight-dump" => flight_dump = Some(take(&mut i, "--flight-dump")),
            "--serve" => serve = Some(take(&mut i, "--serve")),
            "--sla" => sla = Some(take(&mut i, "--sla")),
            "--max-p99" => {
                i += 1;
                let v = args_v.get(i).cloned().unwrap_or_default();
                max_p99 = Some(v.parse::<u64>().ok().filter(|c| *c > 0).unwrap_or_else(|| {
                    eprintln!("--max-p99 expects a positive cycle count");
                    std::process::exit(2);
                }));
            }
            "--serve-min-gain" => {
                i += 1;
                let v = args_v.get(i).cloned().unwrap_or_default();
                serve_min_gain = Some(v.parse::<f64>().ok().filter(|g| *g >= 1.0).unwrap_or_else(
                    || {
                        eprintln!("--serve-min-gain expects a number >= 1");
                        std::process::exit(2);
                    },
                ));
            }
            other => {
                eprintln!("unknown check option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if flame.is_none()
        && trace.is_none()
        && journal.is_none()
        && flight_dump.is_none()
        && serve.is_none()
        && sla.is_none()
    {
        eprintln!(
            "usage: repro check [--flame PATH] [--trace-events PATH] [--journal PATH] \
             [--flight-dump PATH] [--serve PATH [--serve-min-gain G]] \
             [--sla PATH [--max-p99 CYCLES]]"
        );
        std::process::exit(2);
    }
    let read = |p: &PathBuf| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", p.display());
            std::process::exit(2);
        })
    };
    let mut failed = false;
    if let Some(p) = &flame {
        match ule_obs::flame::parse_folded(&read(p)) {
            Ok(stacks) => {
                let total: u64 = stacks.iter().map(|(_, w)| w).sum();
                println!(
                    "{}: {} stacks, total weight {}",
                    p.display(),
                    stacks.len(),
                    total
                );
            }
            Err(e) => {
                eprintln!("{}: INVALID folded stacks: {e}", p.display());
                failed = true;
            }
        }
    }
    if let Some(p) = &trace {
        match ule_obs::trace_events::validate_trace_events(&read(p)) {
            Ok(stats) => println!(
                "{}: {} events ({} complete, {} metadata)",
                p.display(),
                stats.events,
                stats.complete_events,
                stats.metadata_events
            ),
            Err(e) => {
                eprintln!("{}: INVALID trace events: {e}", p.display());
                failed = true;
            }
        }
    }
    if let Some(p) = &journal {
        match ule_dse::journal::validate_journal(&read(p)) {
            Ok(stats) => {
                print!(
                    "{}: {} design points, {} frontier points, {} summary",
                    p.display(),
                    stats.design_points,
                    stats.frontier_points,
                    stats.summaries
                );
                if stats.unknown > 0 {
                    print!(", {} unknown-kind lines skipped", stats.unknown);
                }
                println!();
            }
            Err(e) => {
                eprintln!("{}: INVALID explorer journal: {e}", p.display());
                failed = true;
            }
        }
    }
    if let Some(p) = &serve {
        match ule_serve::metrics::validate_serve(&read(p), serve_min_gain) {
            Ok(stats) => {
                print!(
                    "{}: {} serve points, {} summaries, {} frontier points, 0 mismatches",
                    p.display(),
                    stats.points,
                    stats.summaries,
                    stats.frontier
                );
                if stats.min_gain_ops.is_finite() {
                    print!(", min batching gain {:.2}x", stats.min_gain_ops);
                }
                println!();
            }
            Err(e) => {
                eprintln!("{}: INVALID serve journal: {e}", p.display());
                failed = true;
            }
        }
    }
    if let Some(p) = &sla {
        match ule_serve::metrics::validate_sla(&read(p), max_p99) {
            Ok(stats) => println!(
                "{}: {} runs, {} latency records, {} SLA summaries, worst p99 {} cycles",
                p.display(),
                stats.runs,
                stats.latency_records,
                stats.summaries,
                stats.max_p99
            ),
            Err(e) => {
                eprintln!("{}: INVALID SLA journal: {e}", p.display());
                failed = true;
            }
        }
    }
    if let Some(p) = &flight_dump {
        match ule_obs::flight::validate_dump(&read(p)) {
            Ok(stats) => println!(
                "{}: {} threads, {} events, {} dropped{}",
                p.display(),
                stats.threads,
                stats.events,
                stats.dropped,
                if stats.wrapped { " (wrapped)" } else { "" }
            ),
            Err(e) => {
                eprintln!("{}: INVALID flight dump: {e}", p.display());
                failed = true;
            }
        }
    }
    std::process::exit(i32::from(failed));
}

/// `repro profile`: simulate one design point with a profiler attached
/// and print the per-routine energy attribution table. The reference
/// tier attaches the exact per-instruction profiler (full call graph);
/// `--tier fast` attaches the sampled profiler and runs on the fast
/// engine (exact totals, stride-bounded per-routine split, no call
/// graph).
fn run_profile(args: impl Iterator<Item = String>, obs: ObsOptions) -> ! {
    let mut curve = ule_curves::params::CurveId::P256;
    let mut arch = Arch::IsaExt;
    let mut workload = Workload::Sign;
    let mut fast_tier = false;
    let mut top = 20usize;
    let mut flame: Option<PathBuf> = None;
    let mut flame_weight = FlameWeight::Cycles;
    let mut trace: Option<PathBuf> = None;
    let args_v: Vec<String> = args.collect();
    let mut i = 0;
    while i < args_v.len() {
        let take = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args_v.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            })
        };
        match args_v[i].as_str() {
            "--curve" => {
                let v = take(&mut i, "--curve");
                curve = ule_verify::parse_curve(&v).unwrap_or_else(|| {
                    eprintln!("unknown curve {v:?}");
                    std::process::exit(2);
                });
            }
            "--arch" => {
                let v = take(&mut i, "--arch");
                arch = parse_arch(&v).unwrap_or_else(|| {
                    eprintln!("unknown arch {v:?} (baseline|isa_ext|monte|billie)");
                    std::process::exit(2);
                });
            }
            "--workload" => {
                let v = take(&mut i, "--workload");
                workload = parse_workload(&v).unwrap_or_else(|| {
                    eprintln!("unknown workload {v:?}");
                    std::process::exit(2);
                });
            }
            "--tier" => {
                let v = take(&mut i, "--tier");
                fast_tier = match v.as_str() {
                    "fast" => true,
                    "reference" => false,
                    _ => {
                        eprintln!("--tier expects `fast` or `reference`, got {v:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--top" => {
                let v = take(&mut i, "--top");
                top = v.parse().unwrap_or_else(|_| {
                    eprintln!("--top expects a non-negative integer");
                    std::process::exit(2);
                });
            }
            "--flame" => flame = Some(PathBuf::from(take(&mut i, "--flame"))),
            "--flame-weight" => {
                let v = take(&mut i, "--flame-weight");
                flame_weight = parse_flame_weight(&v).unwrap_or_else(|| {
                    eprintln!("--flame-weight expects `cycles` or `nj`");
                    std::process::exit(2);
                });
            }
            "--trace-events" => trace = Some(PathBuf::from(take(&mut i, "--trace-events"))),
            other => {
                eprintln!("unknown profile option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if fast_tier && (flame.is_some() || trace.is_some()) {
        eprintln!(
            "--flame/--trace-events need the call graph, which the sampled profiler \
             does not build; drop --tier fast (or the export flags)"
        );
        std::process::exit(2);
    }
    if let Err(e) = ule_core::validate_workload(curve, arch, workload) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    obs.install();
    let config = SystemConfig::new(curve, arch);
    let label = ConfigKey::new(config, workload).label();
    let opts = if fast_tier {
        RunOptions::new(workload).sampled()
    } else {
        RunOptions::new(workload).profiled()
    };
    let started = std::time::Instant::now();
    let report = System::new(config).run_with(opts);
    let wall = started.elapsed();
    let p = report.profile.as_ref().expect("profiled run sets profile");
    if fast_tier {
        println!(
            "{label}: {} cycles, {:.4} uJ, {} routines (sampled, fast engine)",
            report.cycles,
            report.energy.total_uj(),
            p.routines.len(),
        );
    } else {
        println!(
            "{label}: {} cycles, {:.4} uJ, {} routines, {} call paths",
            report.cycles,
            report.energy.total_uj(),
            p.routines.len(),
            p.calls.nodes.len()
        );
    }
    println!();
    print!("{}", attr::routine_energy_table(p, &report.energy, top));
    // Wall-clock on stderr (stdout stays deterministic): the CI tier
    // A/B compares this across `--tier fast` and `--tier reference`.
    eprintln!("profile wall-clock: {} ms", wall.as_millis());
    if let Some(path) = &flame {
        let stacks = attr::folded_stacks(p, &report.energy, flame_weight, &label);
        write_or_die(path, &ule_obs::flame::to_folded(&stacks), "folded stacks");
    }
    if let Some(path) = &trace {
        let mut buf = TraceEventsBuf::new();
        attr::trace_events_into(&mut buf, 1, &label, p);
        write_or_die(path, &buf.finish(), "trace events");
    }
    std::process::exit(0);
}

/// `repro overhead`: A/B the sampled profiler's wall-clock cost against
/// a *ballast* run of the same point — a sampler configured with a
/// stride so large it never fires. Both arms therefore allocate the
/// identical profiler machinery (same heap layout, same code paths up
/// to the stride check), so the measured delta is the marginal cost of
/// samples actually firing, not allocator noise. This is what lets CI
/// hold the hard ≤5% gate: the old uninstrumented baseline differed in
/// allocation layout and showed a spurious ~6% floor. Exits 1 when the
/// overhead exceeds the threshold.
fn run_overhead(args: impl Iterator<Item = String>) -> ! {
    let mut curve = ule_curves::params::CurveId::K163;
    let mut arch = Arch::Baseline;
    let mut workload = Workload::Sign;
    let mut runs = 3usize;
    let mut max_pct = 5.0f64;
    let args_v: Vec<String> = args.collect();
    let mut i = 0;
    while i < args_v.len() {
        let take = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args_v.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            })
        };
        match args_v[i].as_str() {
            "--curve" => {
                let v = take(&mut i, "--curve");
                curve = ule_verify::parse_curve(&v).unwrap_or_else(|| {
                    eprintln!("unknown curve {v:?}");
                    std::process::exit(2);
                });
            }
            "--arch" => {
                let v = take(&mut i, "--arch");
                arch = parse_arch(&v).unwrap_or_else(|| {
                    eprintln!("unknown arch {v:?} (baseline|isa_ext|monte|billie)");
                    std::process::exit(2);
                });
            }
            "--workload" => {
                let v = take(&mut i, "--workload");
                workload = parse_workload(&v).unwrap_or_else(|| {
                    eprintln!("unknown workload {v:?}");
                    std::process::exit(2);
                });
            }
            "--runs" => {
                let v = take(&mut i, "--runs");
                runs = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--runs expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--max-pct" => {
                let v = take(&mut i, "--max-pct");
                max_pct = v
                    .parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--max-pct expects a non-negative number");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("unknown overhead option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if let Err(e) = ule_core::validate_workload(curve, arch, workload) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let config = SystemConfig::new(curve, arch);
    let label = ConfigKey::new(config, workload).label();
    let system = System::new(config);
    // One untimed warm-up per mode (first-touch effects), then the
    // timed runs interleaved so drift hits both modes equally.
    let time = |opts: &RunOptions| {
        let t0 = std::time::Instant::now();
        let report = system.run_with(*opts);
        (t0.elapsed(), report)
    };
    // The baseline arm carries the same sampler machinery with a
    // stride (2^40) no fast-tier run ever reaches, so the only
    // difference between the arms is samples firing.
    let plain = RunOptions::new(workload).sampled_with_stride(1 << 40);
    let sampled = RunOptions::new(workload).sampled();
    let (_, base_report) = time(&plain);
    let (_, sampled_report) = time(&sampled);
    assert_eq!(
        base_report.cycles, sampled_report.cycles,
        "sampling must not change simulated cycles"
    );
    let mut best_plain = std::time::Duration::MAX;
    let mut best_sampled = std::time::Duration::MAX;
    for _ in 0..runs {
        best_plain = best_plain.min(time(&plain).0);
        best_sampled = best_sampled.min(time(&sampled).0);
    }
    let pct = (best_sampled.as_secs_f64() / best_plain.as_secs_f64() - 1.0) * 100.0;
    println!(
        "{label}: ballast fast tier {} us, sampled {} us, overhead {pct:+.2}% \
         (threshold {max_pct}%, best of {runs})",
        best_plain.as_micros(),
        best_sampled.as_micros(),
    );
    std::process::exit(i32::from(pct > max_pct));
}

/// `repro serve`: the batched signing/verification service model.
/// Generates seeded traffic per curve, replays it on the virtual clock
/// through the sharded `ule-serve` engine at every requested batch
/// size, projects energy per request from simulated per-verification
/// costs, and emits `serve_point`/`serve_summary`/`serve_frontier`
/// records plus — behind `--sla-out` — `serve_latency`/`sla_summary`
/// latency records (schema v5). Exit 1 iff any batch verdict disagreed
/// with `verify_prehashed`.
fn run_serve(args: impl Iterator<Item = String>, obs: ObsOptions) -> ! {
    let mut curves: Vec<ule_curves::params::CurveId> = Vec::new();
    let mut batch_sizes: Vec<usize> = Vec::new();
    let mut shards = 4usize;
    let mut requests = 256usize;
    let mut seed = ule_verify::parse_seed("0xULE");
    let mut arch = Arch::IsaExt;
    let mut arrival_rate = 0.25f64;
    let mut metrics_path: Option<PathBuf> = None;
    let mut sla_path: Option<PathBuf> = None;
    let mut trace_events_path: Option<PathBuf> = None;
    let args_v: Vec<String> = args.collect();
    let mut i = 0;
    while i < args_v.len() {
        let take = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            args_v.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            })
        };
        match args_v[i].as_str() {
            "--curve" => {
                let v = take(&mut i, "--curve");
                match ule_verify::parse_curve(&v) {
                    Some(c) if !c.is_mont() => curves.push(c),
                    Some(_) => {
                        eprintln!("serve is an ECDSA service model; {v} carries no signatures");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("unknown curve {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--batch-size" => {
                let v = take(&mut i, "--batch-size");
                match v.parse::<usize>().ok().filter(|&b| b > 0) {
                    Some(b) => batch_sizes.push(b),
                    None => {
                        eprintln!("--batch-size expects a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--shards" => {
                let v = take(&mut i, "--shards");
                shards = v
                    .parse()
                    .ok()
                    .filter(|&s: &usize| s > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--shards expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--requests" => {
                let v = take(&mut i, "--requests");
                requests = v
                    .parse()
                    .ok()
                    .filter(|&r: &usize| r > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--requests expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--seed" => seed = ule_verify::parse_seed(&take(&mut i, "--seed")),
            "--arch" => {
                let v = take(&mut i, "--arch");
                arch = parse_arch(&v).unwrap_or_else(|| {
                    eprintln!("unknown arch {v:?} (baseline|isa_ext|monte|billie)");
                    std::process::exit(2);
                });
            }
            "--arrival-rate" => {
                let v = take(&mut i, "--arrival-rate");
                arrival_rate = v
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--arrival-rate expects a positive number");
                        std::process::exit(2);
                    });
            }
            "--metrics-out" => metrics_path = Some(PathBuf::from(take(&mut i, "--metrics-out"))),
            "--sla-out" => sla_path = Some(PathBuf::from(take(&mut i, "--sla-out"))),
            "--trace-events" => {
                trace_events_path = Some(PathBuf::from(take(&mut i, "--trace-events")))
            }
            other => {
                eprintln!("unknown serve option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if curves.is_empty() {
        curves = vec![
            ule_curves::params::CurveId::P256,
            ule_curves::params::CurveId::K163,
        ];
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
    obs.install();
    if obs.progress_on() {
        ule_obs::progress::start("repro serve");
    }
    let engine = SweepEngine::new();
    let arch_label = |a: Arch| match a {
        Arch::Baseline => "baseline",
        Arch::IsaExt => "isa_ext",
        Arch::Monte => "monte",
        Arch::Billie => "billie",
    };
    // Per-verification simulated costs for the energy projection: the
    // valid accelerator set differs by family (Monte fronts the prime
    // datapath, Billie the binary one).
    let sim_costs =
        |curve: ule_curves::params::CurveId, archs: &[Arch]| -> Vec<ule_serve::metrics::SimCosts> {
            let jobs: Vec<Job> = archs
                .iter()
                .map(|&a| (SystemConfig::new(curve, a), Workload::Verify))
                .collect();
            let reports = engine.run_batch(&jobs);
            archs
                .iter()
                .zip(&reports)
                .map(|(&a, r)| ule_serve::metrics::SimCosts {
                    arch: arch_label(a).to_owned(),
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
        let family_archs: &[Arch] = if curve.is_binary() {
            &[Arch::Baseline, Arch::IsaExt, Arch::Billie]
        } else {
            &[Arch::Baseline, Arch::IsaExt, Arch::Monte]
        };
        if !family_archs.contains(&arch) {
            eprintln!(
                "arch {} is not valid on {} (family accelerator mismatch)",
                arch_label(arch),
                curve.name()
            );
            std::process::exit(2);
        }
        let costs = sim_costs(curve, family_archs);
        let point_costs = costs
            .iter()
            .find(|c| c.arch == arch_label(arch))
            .expect("requested arch simulated")
            .clone();
        println!(
            "{}: {requests} requests, {shards} shards, seed {seed:#x}, arch {}",
            curve.name(),
            arch_label(arch)
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
        let gain_ops = summary.get("gain_ops").and_then(|v| match v {
            ule_obs::Value::F64(g) => Some(*g),
            _ => None,
        });
        let gain_sps = summary.get("gain_sps").and_then(|v| match v {
            ule_obs::Value::F64(g) => Some(*g),
            _ => None,
        });
        println!(
            "  batch {} vs 1: {:.2}x sig/s, {:.2}x fewer host ops",
            batch_sizes.last().unwrap(),
            gain_sps.unwrap_or(0.0),
            gain_ops.unwrap_or(0.0),
        );
        // p99 of the largest-batch run: the latency the gain is
        // bought at (absent in pre-v5 history lines).
        let p99 = runs
            .last()
            .map(|(o, _)| o.telemetry.fleet_hist.percentile(99.0))
            .unwrap_or(0);
        history_gains.push(format!(
            "{{\"curve\":\"{}\",\"gain_sps\":{:.4},\"gain_ops\":{:.4},\"p99_latency_cycles\":{p99}}}",
            curve.name(),
            gain_sps.unwrap_or(0.0),
            gain_ops.unwrap_or(0.0)
        ));
        registry.push(summary);
        let (_, frontier) = ule_serve::metrics::frontier_records(&costs, &runs);
        for record in frontier {
            registry.push(record);
        }
    }
    ule_obs::progress::finish();
    if let Some(path) = &metrics_path {
        write_or_die(path, &registry.to_jsonl(), "serve metrics");
    }
    if let Some(path) = &sla_path {
        // Every field in the SLA journal is virtual-time: the file is
        // byte-identical across reruns (CI pins this with `cmp`).
        write_or_die(path, &sla_registry.to_jsonl(), "SLA records");
    }
    if let Some(path) = &trace_events_path {
        write_or_die(path, &trace_buf.finish(), "serve trace events");
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
        std::process::exit(1);
    }
    if mismatches_total > 0 {
        eprintln!("serve: {mismatches_total} batch verdicts diverged from verify_prehashed");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `repro selftest-flight`: end-to-end self-test of the flight
/// recorder's panic path. Installs the recorder exactly as every other
/// subcommand does, emits a recognizable event trail, then panics
/// deliberately — the armed hook must write the dump before the
/// process dies. CI runs this expecting a nonzero exit and then
/// validates the dump with `repro check --flight-dump`.
fn run_selftest_flight(obs: &ObsOptions) -> ! {
    obs.install();
    for i in 0..8u64 {
        ule_obs::obs_event!("selftest.tick", index = i);
    }
    ule_obs::obs_event!("selftest.boom", note = "deliberate panic next");
    panic!("flight-recorder self-test: deliberate panic (the dump above is expected)");
}

/// `repro verify …`: run a differential campaign and exit. Exit code 0
/// means the campaign matched expectations (zero divergences, or — with
/// `--inject-fault` — exactly the injected fault was caught).
fn run_verify(args: impl Iterator<Item = String>, mut obs: ObsOptions) -> ! {
    let mut campaign = ule_verify::Campaign::new(ule_verify::parse_seed("0xULE"), 16);
    let mut curves: Vec<ule_curves::params::CurveId> = Vec::new();
    let mut batch_oracle = false;
    let mut batch_cases = 24usize;
    let mut max_batch = 20usize;
    let mut batch_case: Option<usize> = None;
    let args_v: Vec<String> = args.collect();
    let mut i = 0;
    let take = |i: &mut usize, args_v: &[String], flag: &str| -> String {
        *i += 1;
        match args_v.get(*i) {
            Some(v) => v.clone(),
            None => {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            }
        }
    };
    while i < args_v.len() {
        match args_v[i].as_str() {
            "--seed" => campaign.seed = ule_verify::parse_seed(&take(&mut i, &args_v, "--seed")),
            "--iters" => {
                let v = take(&mut i, &args_v, "--iters");
                campaign.iters = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--iters expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--curve" => {
                let v = take(&mut i, &args_v, "--curve");
                match ule_verify::parse_curve(&v) {
                    Some(id) => curves.push(id),
                    None => {
                        eprintln!("unknown curve {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--config" => {
                let v = take(&mut i, &args_v, "--config");
                match ule_verify::ConfigKind::parse(&v) {
                    Some(c) => campaign.only_config = Some(c),
                    None => {
                        eprintln!("unknown config {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--case" => {
                let v = take(&mut i, &args_v, "--case");
                match ule_verify::CaseSelector::parse(&v) {
                    Some(s) => campaign.only_case = Some(s),
                    None => {
                        eprintln!("bad case selector {v:?} (random:N, edge:NAME, negative:N)");
                        std::process::exit(2);
                    }
                }
            }
            "--tier" => {
                let v = take(&mut i, &args_v, "--tier");
                match ule_verify::TierPolicy::parse(&v) {
                    Some(t) => campaign.tier = t,
                    None => {
                        eprintln!("--tier expects fast, reference, or alternate");
                        std::process::exit(2);
                    }
                }
            }
            "--no-edge" => campaign.edge = false,
            "--no-negative" => campaign.negative = false,
            "--inject-fault" => campaign.inject_fault = true,
            "--batch-oracle" => batch_oracle = true,
            "--batch-cases" => {
                let v = take(&mut i, &args_v, "--batch-cases");
                batch_cases = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--batch-cases expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--max-batch" => {
                let v = take(&mut i, &args_v, "--max-batch");
                max_batch = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--max-batch expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--batch-case" => {
                let v = take(&mut i, &args_v, "--batch-case");
                batch_case = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--batch-case expects a case index");
                    std::process::exit(2);
                }));
            }
            "--progress" => obs.progress = Some(true),
            "--no-progress" => obs.progress = Some(false),
            other => {
                eprintln!("unknown verify option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !curves.is_empty() {
        campaign.curves = curves;
    }
    obs.install();
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
        ule_obs::clear_sink();
        std::process::exit(if report.divergences.is_empty() { 0 } else { 1 });
    }
    if obs.progress_on() {
        ule_obs::progress::start("repro verify");
    }
    let report = ule_verify::run_campaign(&campaign);
    ule_obs::progress::finish();
    print!("{}", report.render(&campaign));
    ule_obs::clear_sink();
    if campaign.inject_fault {
        // Self-test: the deliberate corruption must be caught.
        if report.divergences.is_empty() {
            eprintln!("verify: injected fault was NOT caught");
            std::process::exit(1);
        }
        println!("verify: injected fault caught and shrunk (self-test ok)");
        std::process::exit(0);
    }
    std::process::exit(if report.divergences.is_empty() { 0 } else { 1 });
}

/// `repro explore …`: enumerate a design-space lattice, evaluate it
/// through the memoizing engine, and print the Pareto frontier. With
/// `--report`, skip exploration and render the frontier table of an
/// existing journal instead.
fn run_explore(args: impl Iterator<Item = String>, mut obs: ObsOptions) -> ! {
    let mut space_arg: Option<String> = None;
    let mut strategy_arg = String::from("grid");
    let mut seed = ule_verify::parse_seed("0xULE");
    let mut out: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut report = false;
    let args_v: Vec<String> = args.collect();
    let mut i = 0;
    let take = |i: &mut usize, args_v: &[String], flag: &str| -> String {
        *i += 1;
        match args_v.get(*i) {
            Some(v) => v.clone(),
            None => {
                eprintln!("{flag} expects a value");
                std::process::exit(2);
            }
        }
    };
    while i < args_v.len() {
        match args_v[i].as_str() {
            "--space" => space_arg = Some(take(&mut i, &args_v, "--space")),
            "--strategy" => strategy_arg = take(&mut i, &args_v, "--strategy"),
            "--seed" => seed = ule_verify::parse_seed(&take(&mut i, &args_v, "--seed")),
            "--out" => out = Some(PathBuf::from(take(&mut i, &args_v, "--out"))),
            "--threads" => {
                let v = take(&mut i, &args_v, "--threads");
                threads = Some(
                    v.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| {
                            eprintln!("--threads expects a positive integer");
                            std::process::exit(2);
                        }),
                );
            }
            "--report" => report = true,
            "--progress" => obs.progress = Some(true),
            "--no-progress" => obs.progress = Some(false),
            other => {
                eprintln!("unknown explore option {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let mut engine = SweepEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }

    if report {
        let Some(path) = &out else {
            eprintln!("--report renders an existing journal: pass its path via --out");
            std::process::exit(2);
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        let outcome = ule_dse::explore::outcome_from_journal(&text).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(2);
        });
        match ule_dse::explore::render_report(&engine, &outcome) {
            Ok(table) => {
                print!("{table}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("report: {e}");
                std::process::exit(1);
            }
        }
    }

    let Some(space_str) = space_arg else {
        eprintln!(
            "explore needs --space: one of {}, or a space-file path",
            ule_dse::spaces::BUILTIN_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let space = match ule_dse::spaces::builtin(&space_str) {
        Some(s) => s,
        None => {
            let text = std::fs::read_to_string(&space_str).unwrap_or_else(|e| {
                eprintln!(
                    "--space {space_str:?} is neither a built-in ({}) nor a readable file: {e}",
                    ule_dse::spaces::BUILTIN_NAMES.join(", ")
                );
                std::process::exit(2);
            });
            ule_dse::spaces::parse_space_file(&text).unwrap_or_else(|e| {
                eprintln!("{space_str}: {e}");
                std::process::exit(2);
            })
        }
    };
    let mut strategy: Box<dyn ule_dse::Strategy> = match strategy_arg.as_str() {
        "grid" => Box::new(ule_dse::Grid::new()),
        "greedy" => Box::new(ule_dse::Greedy::new(seed)),
        other => {
            eprintln!("--strategy expects `grid` or `greedy`, got {other:?}");
            std::process::exit(2);
        }
    };
    obs.install();
    if obs.progress_on() {
        ule_obs::progress::start("repro explore");
    }
    let outcome = ule_dse::explore(&engine, &space, strategy.as_mut(), seed, out.as_deref())
        .unwrap_or_else(|e| {
            eprintln!("explore: {e}");
            std::process::exit(1);
        });
    ule_obs::progress::finish();
    println!(
        "space {} ({}): {} lattice points, {} pruned, {} evaluated \
         ({} resumed, {} simulated), frontier {}",
        outcome.space,
        ule_core::metrics::workload_key(outcome.workload),
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
    match ule_dse::explore::render_report(&engine, &outcome) {
        Ok(table) => print!("{table}"),
        Err(e) => {
            eprintln!("report: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0)
}

fn usage() -> ! {
    eprintln!("usage: repro [options] <experiment-id>... | all | --list");
    eprintln!("run `repro --help` for the option list");
    eprintln!("ids: {}", id_list());
    std::process::exit(2);
}

fn id_list() -> String {
    let names: Vec<&str> = ExperimentId::VARIANTS.iter().map(|id| id.name()).collect();
    names.join(" ")
}

enum Format {
    Text,
    Json,
}

fn main() {
    let mut threads: Option<usize> = None;
    let mut format = Format::Text;
    let mut metrics_path: Option<PathBuf> = None;
    let mut obs = ObsOptions::default();
    let mut profile = false;
    let mut flame_path: Option<PathBuf> = None;
    let mut flame_weight = FlameWeight::Cycles;
    let mut trace_events_path: Option<PathBuf> = None;
    let mut selected: Vec<ExperimentId> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print_help();
                return;
            }
            "--list" => {
                for id in ExperimentId::VARIANTS {
                    println!("{id}");
                }
                println!("all");
                return;
            }
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
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => {
                    eprintln!("--format expects `text` or `json`");
                    std::process::exit(2);
                }
            },
            "--metrics-out" => match args.next() {
                Some(p) => metrics_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--metrics-out expects a path");
                    std::process::exit(2);
                }
            },
            "--trace" => match args.next() {
                Some(p) => obs.trace = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace expects a path");
                    std::process::exit(2);
                }
            },
            "--flight-dump" => match args.next() {
                Some(p) => obs.flight_dump = PathBuf::from(p),
                None => {
                    eprintln!("--flight-dump expects a path");
                    std::process::exit(2);
                }
            },
            "--progress" => obs.progress = Some(true),
            "--no-progress" => obs.progress = Some(false),
            "--profile" => profile = true,
            "--flame" => match args.next() {
                Some(p) => flame_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--flame expects a path");
                    std::process::exit(2);
                }
            },
            "--flame-weight" => match args.next().as_deref().and_then(parse_flame_weight) {
                Some(w) => flame_weight = w,
                None => {
                    eprintln!("--flame-weight expects `cycles` or `nj`");
                    std::process::exit(2);
                }
            },
            "--trace-events" => match args.next() {
                Some(p) => trace_events_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace-events expects a path");
                    std::process::exit(2);
                }
            },
            // Subcommands own the rest of the argument list.
            "verify" => run_verify(args, obs),
            "diff" => run_diff(args),
            "check" => run_check(args),
            "profile" => run_profile(args, obs),
            "explore" => run_explore(args, obs),
            "serve" => run_serve(args, obs),
            "overhead" => run_overhead(args),
            "selftest-flight" => run_selftest_flight(&obs),
            "all" => selected.extend(ExperimentId::ALL),
            other => match ExperimentId::from_str(other) {
                Ok(id) => selected.push(id),
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!("valid ids: {} (or: all)", id_list());
                    std::process::exit(2);
                }
            },
        }
    }
    if selected.is_empty() {
        usage();
    }
    if flame_path.is_some() && !profile {
        eprintln!("--flame needs --profile (the call graph is only built on profiled runs)");
        std::process::exit(2);
    }

    // Observability is configured once, before any simulation: the
    // profiling flag is read at the start of each run, and memoized
    // reports are shared, so flipping it mid-sweep would make a
    // report's `profile` depend on scheduling. The flight recorder is
    // installed before the engine so their epochs align in the merged
    // trace.
    obs.install();
    if profile {
        ule_obs::set_profiling(true);
    }

    let mut engine = SweepEngine::new();
    if let Some(n) = threads {
        engine = engine.with_threads(n);
    }

    // Pre-warm the memo cache in parallel over the union of design
    // points, then render serially in order.
    let jobs: Vec<Job> = selected.iter().flat_map(|id| id.jobs()).collect();
    if obs.progress_on() {
        ule_obs::progress::start("repro");
    }
    let reports = engine.run_batch(&jobs);
    ule_obs::progress::finish();
    match format {
        Format::Text => {
            for id in &selected {
                print!("{}", id.run(&engine));
            }
        }
        Format::Json => {
            let reg = metrics_out::metrics_registry(&jobs, &reports, &engine);
            print!("{}", reg.to_jsonl());
        }
    }
    if let Some(path) = &metrics_path {
        match metrics_out::write_metrics(path, &jobs, &reports, &engine) {
            Ok(n) => eprintln!("wrote {n} metrics records to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
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
            write_or_die(path, &ule_obs::flame::to_folded(&stacks), "folded stacks");
        }
        if let Some(path) = &trace_events_path {
            write_or_die(path, &tbuf.finish(), "trace events");
        }
    }
    ule_obs::clear_sink();
}

/// Writes the harness timeline into `buf` as process 0: one thread per
/// sweep worker, a complete event per simulation executed (from the
/// engine's [`job spans`](SweepEngine::job_spans)), with the `sys.sim`
/// and `sweep.batch` spans recovered from the flight recorder's ring
/// nested on the same tracks. Loading the merged file in Perfetto shows
/// SweepEngine scheduling directly above the per-design-point routine
/// processes.
fn merge_harness_track(buf: &mut TraceEventsBuf, engine: &SweepEngine) {
    let spans = engine.job_spans();
    let handle = ule_obs::flight::handle();
    let recovered: Vec<String> = handle
        .map(|h| {
            let mut lines = h.lines_of_kind("sweep.batch");
            lines.extend(h.lines_of_kind("sys.sim"));
            lines
        })
        .unwrap_or_default();
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
    // start = end - dur. The flight epoch is the recorder's install
    // time, microseconds before the engine's, so the tracks align.
    for line in &recovered {
        let Some(v) = ule_obs::json::parse(line) else {
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
