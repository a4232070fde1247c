//! Behaviour of the `repro` command line: exit codes of bad usage, the
//! one name-spelling policy (case-insensitive; `-`, `_` and no
//! separator are the same) across every subcommand, complete `--trace`
//! files from every simulating subcommand, and the flight recorder's
//! panic dump.
//!
//! Apart from the trace and flight cases, none of these simulates more
//! than one P-192 field multiplication: usage errors exit before any
//! run starts.

use std::path::PathBuf;
use std::process::{Command, Output};
use ule_obs::json::Json;

fn repro(args: &[&str]) -> Output {
    let dump = std::env::temp_dir().join(format!("ule-cli-flight-{}.jsonl", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--flight-dump")
        .arg(&dump)
        .arg("--no-progress")
        .args(args)
        .output()
        .expect("repro runs")
}

fn assert_exit(args: &[&str], code: i32) -> Output {
    let out = repro(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "repro {args:?}: stdout {:?} stderr {:?}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// One flag that takes a value, per subcommand (`""` = the global
/// options before any subcommand).
const VALUE_FLAGS: [(&str, &str); 7] = [
    ("", "--threads"),
    ("verify", "--seed"),
    ("diff", "--max-cycles-pct"),
    ("check", "--journal"),
    ("profile", "--curve"),
    ("explore", "--space"),
    ("serve", "--shards"),
];

fn with_sub<'a>(sub: &'a str, rest: &[&'a str]) -> Vec<&'a str> {
    let mut v: Vec<&str> = Vec::new();
    if !sub.is_empty() {
        v.push(sub);
    }
    v.extend_from_slice(rest);
    v
}

#[test]
fn every_subcommand_rejects_unknown_flags() {
    for (sub, _) in VALUE_FLAGS {
        assert_exit(&with_sub(sub, &["--no-such-flag"]), 2);
    }
}

#[test]
fn every_subcommand_rejects_a_flag_without_its_value() {
    for (sub, flag) in VALUE_FLAGS {
        let out = assert_exit(&with_sub(sub, &[flag]), 2);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "repro {sub} {flag}: {err}");
    }
}

#[test]
fn bad_counts_and_names_exit_2() {
    assert_exit(&["--threads", "0", "all"], 2);
    assert_exit(&["explore", "--space", "smoke", "--threads", "0"], 2);
    assert_exit(&["serve", "--shards", "0"], 2);
    assert_exit(&["serve", "--arch", "bogus"], 2);
    assert_exit(&["profile", "--arch", "bogus"], 2);
    assert_exit(&["profile", "--curve", "P192", "--workload", "xdh"], 2);
}

#[test]
fn dependent_check_flags_need_their_file() {
    // An empty journal is valid, so only the orphaned gate can fail.
    let journal =
        std::env::temp_dir().join(format!("ule-cli-journal-{}.jsonl", std::process::id()));
    std::fs::write(&journal, "").unwrap();
    let journal = journal.to_str().unwrap();
    assert_exit(&["check", "--journal", journal], 0);
    for (gate, value, needs) in [
        ("--serve-min-gain", "2", "--serve"),
        ("--max-p99", "100", "--sla"),
    ] {
        let out = assert_exit(&["check", "--journal", journal, gate, value], 2);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{gate} needs {needs}")), "{err}");
    }
    std::fs::remove_file(journal).unwrap();
}

#[test]
fn name_spellings_are_interchangeable() {
    let a = assert_exit(
        &[
            "profile",
            "--curve",
            "P192",
            "--arch",
            "isa-ext",
            "--workload",
            "field-mul",
        ],
        0,
    );
    let b = assert_exit(
        &[
            "profile",
            "--curve",
            "p-192",
            "--arch",
            "ISA_EXT",
            "--workload",
            "FIELD_MUL",
        ],
        0,
    );
    assert!(!a.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout)
    );
}

#[test]
fn help_exits_0() {
    let out = assert_exit(&["--help"], 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro"));
}

/// A fresh scratch directory for one test's output files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ule-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro --no-progress --trace PATH <args>` in `dir` (serve
/// appends its history line to the working directory), checks a zero
/// exit, and returns the trace's records after checking that every
/// line parses and that `seq` runs 0..N-1 without a gap.
fn traced(dir: &std::path::Path, args: &[&str]) -> (Output, Vec<Json>) {
    let trace = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .arg("--no-progress")
        .arg("--flight-dump")
        .arg(dir.join("flight.jsonl"))
        .arg("--trace")
        .arg(&trace)
        .args(args)
        .output()
        .expect("repro runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "repro {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    let records: Vec<Json> = ule_obs::json::records(&text)
        .map(|(n, _, v)| v.unwrap_or_else(|e| panic!("repro {args:?}: trace line {n}: {e}")))
        .collect();
    assert!(!records.is_empty(), "repro {args:?}: empty trace");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(
            r.get("seq").and_then(|v| v.as_u64()),
            Some(i as u64),
            "repro {args:?}: trace line {}",
            i + 1
        );
    }
    (out, records)
}

fn count(records: &[Json], kind: &str) -> usize {
    records
        .iter()
        .filter(|r| r.get("kind").and_then(|k| k.as_str()) == Some(kind))
        .count()
}

#[test]
fn profile_and_serve_traces_are_complete() {
    let dir = scratch("trace-sim");
    for args in [
        &[
            "profile",
            "--curve",
            "P192",
            "--arch",
            "baseline",
            "--workload",
            "sign",
        ][..],
        &["serve", "--seed", "0xULE"][..],
    ] {
        let (_, records) = traced(&dir, args);
        for kind in ["sys.sim", "sys.energy"] {
            assert!(count(&records, kind) > 0, "repro {args:?}: no {kind}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explore_trace_has_one_job_per_engine_simulation() {
    let dir = scratch("trace-explore");
    let journal = dir.join("journal.jsonl");
    let (_, records) = traced(
        &dir,
        &[
            "explore",
            "--space",
            "billie-digit",
            "--out",
            journal.to_str().unwrap(),
        ],
    );
    assert!(count(&records, "sweep.batch") > 0, "no sweep.batch");
    // The same exploration in process, to read its engine's count.
    let engine = ule_bench::SweepEngine::new();
    let space = ule_dse::spaces::builtin("billie-digit").unwrap();
    let seed = ule_verify::parse_seed("0xULE");
    let mut strategy = ule_dse::StrategyKind::Grid.build(seed);
    ule_dse::explore(&engine, &space, strategy.as_mut(), seed, None).unwrap();
    assert_eq!(
        count(&records, "sweep.job") as u64,
        engine.stats().simulations
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn selftest_flight_panics_after_dumping_its_ring() {
    let dir = scratch("selftest");
    let dump = dir.join("dump.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--flight-dump")
        .arg(&dump)
        .arg("selftest-flight")
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "selftest-flight must exit nonzero");
    let doc = std::fs::read_to_string(&dump).expect("a dump was written");
    assert!(!doc.is_empty());
    let stats = ule_obs::flight::validate_dump(&doc).expect("the dump validates");
    assert!(stats.events > 0);
    let boom = ule_obs::json::records(&doc)
        .filter_map(|(_, _, v)| v.ok())
        .any(|v| v.get("kind").and_then(|k| k.as_str()) == Some("selftest.boom"));
    assert!(boom, "no selftest.boom event in the dump");
    std::fs::remove_dir_all(&dir).unwrap();
}
