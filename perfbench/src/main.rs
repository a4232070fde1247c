//! The repository benchmark: host wall time of the ULE reproduction on
//! four workloads, end to end (`--trace 0`) or layer by layer
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_figs --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Simulated cycles and energy are
//! output checks, never metrics. See `perfbench/README.md`.

mod replica;
mod traced;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use util::{fastest_sum, median, Outcome};
use workloads::{self as w, pass_seed, Pass};

const WORKLOADS: [&str; 4] = ["paper_figs", "accel_dse", "serve", "profiled"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|&&n| n == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Where the benchmark may write: under the Cargo target directory of
/// this package, inside the checkout.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench-work")
}

/// Runs the workload's fixed number of passes and reports the run's
/// end-to-end metrics.
///
/// The host's speed wanders by tens of percent over seconds to minutes,
/// so a pass time, or the mean or median of a run's few pass times,
/// moves with it. What repeats is the fastest time of each unit of work
/// (a simulated point, a serve planning or shard verification) across
/// the run's passes: `wall_s` is the sum of those per-unit minima plus
/// the median of the passes' remaining time (set-up and engine
/// bookkeeping), the time of one pass at the host's undisturbed speed.
/// `setup_s` is the fastest of the passes' set-up samples.
///
/// The number of passes depends only on the workload and `seconds`, not
/// on how fast the passes run, so a faster or slower build is measured
/// with the same estimator. Only a run that would go past 1.4 times
/// `seconds` stops early.
fn timed_passes(seconds: u64, passes: usize, mut pass: impl FnMut(usize) -> Pass) -> Outcome {
    let start = Instant::now();
    let cap = Duration::from_secs(seconds) * 7 / 5;
    let mut done: Vec<Pass> = Vec::new();
    let mut last = Duration::ZERO;
    while done.len() < passes {
        if !done.is_empty() && start.elapsed() + last > cap {
            eprintln!(
                "stopping after {} of {passes} passes: the next would end past {:.0} s",
                done.len(),
                cap.as_secs_f64()
            );
            break;
        }
        let t = Instant::now();
        let p = pass(done.len());
        last = t.elapsed();
        eprintln!(
            "pass {}: {:.3} s (setup {:.6} s)",
            done.len(),
            p.wall_s,
            p.setup_s
        );
        done.push(p);
    }
    let mut out = Outcome::default();
    for p in &done {
        out.tally(p.attempted, p.failed);
    }
    let units = fastest_sum(done.iter().map(|p| &p.units));
    let verify_units = fastest_sum(done.iter().map(|p| &p.verify_units));
    let rest: Vec<f64> = done
        .iter()
        .map(|p| {
            p.wall_s
                - p.units
                    .iter()
                    .chain(&p.verify_units)
                    .map(|u| u.1)
                    .sum::<f64>()
        })
        .collect();
    let wall_s = units + verify_units + median(&rest);
    let verify_s = if verify_units > 0.0 {
        verify_units
    } else {
        wall_s
    };
    let setup_s = done.iter().map(|p| p.setup_s).fold(f64::INFINITY, f64::min);
    out.metric("wall_s", wall_s, "s");
    out.metric(
        "verify_per_s",
        done[0].verifications as f64 / verify_s,
        "1/s",
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", util::peak_rss_mb(), "MiB");
    out
}

fn untraced(args: &Args, work: &std::path::Path) -> Outcome {
    let seed = args.seed;
    let passes = w::passes(args.workload, args.seconds);
    match args.workload {
        "paper_figs" => timed_passes(args.seconds, passes, |i| w::paper_pass(pass_seed(seed, i))),
        "accel_dse" => timed_passes(args.seconds, passes, |i| {
            w::dse_pass(pass_seed(seed, i), &work.join(format!("dse-{i}")))
        }),
        "profiled" => timed_passes(args.seconds, passes, |i| {
            w::profiled_pass(pass_seed(seed, i))
        }),
        "serve" => {
            let mut first = Vec::new();
            timed_passes(args.seconds, passes, |_| w::serve_pass(seed, &mut first))
        }
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    let run_dir = work.join(format!("run-{}", std::process::id()));
    let out = if args.trace {
        let mut out = Outcome::default();
        match args.workload {
            "paper_figs" => traced::paper_figs(args.seed, &work, &mut out),
            "accel_dse" => traced::accel_dse(args.seed, &work, &run_dir, &mut out),
            "profiled" => traced::profiled(args.seed, &work, &mut out),
            "serve" => traced::serve(args.seed, &work, &mut out),
            _ => unreachable!("workload names are checked by parse_args"),
        }
        out
    } else {
        untraced(&args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
