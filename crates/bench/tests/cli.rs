//! Behaviour of the `repro` command line: exit codes of bad usage and
//! the one name-spelling policy (case-insensitive; `-`, `_` and no
//! separator are the same) across every subcommand.
//!
//! None of these cases simulates more than one P-192 field
//! multiplication: usage errors exit before any run starts.

use std::process::{Command, Output};

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
