//! The resumable exploration journal (JSONL): its writers, its one
//! reader, and its validator.
//!
//! During a run the explorer *appends* one `design_point` record per
//! evaluated point — crash-safe progress. On successful completion it
//! *rewrites* the file in canonical form: every design point in lattice
//! order, then one `frontier` record per frontier point (rank order),
//! then one `dse_summary`. Because every record is a deterministic
//! function of (space, evaluated set), the completed journal is
//! byte-identical across re-runs, resumes, and thread counts.
//!
//! Every reader of a journal goes through [`read`], which walks the
//! lines with [`ule_obs::json::records`] and reads each record kind in
//! one place, next to its writer: `design_point` join fields through
//! [`ule_core::metrics::read_design_point`], `frontier` and
//! `dse_summary` here. The consumers differ only in what they do with
//! the lines [`read`] could not read. Resume matches the design points
//! to the lattice by *identity* (the
//! [`ule_core::metrics::config_identity`] string) and skips the rest —
//! a torn final line from a killed run, or record kinds from a future
//! schema — so a journal is never a worse starting point than an empty
//! file. [`validate_journal`] (`repro check --journal`) and
//! [`crate::explore::outcome_from_journal`] (`repro explore --report`)
//! reject a journal with any such line.

use crate::explore::FrontierEntry;
use crate::pareto::Objectives;
use std::collections::HashSet;
use ule_core::metrics::{
    config_from_record, identity_of, push_identity, read_design_point, DesignPoint,
};
use ule_core::{SystemConfig, Workload};
use ule_obs::json::{self, Json};
use ule_obs::record::Record;

/// One `frontier` record: rank, the point's identity, and its three
/// objectives. Strategy-free on purpose — grid and greedy journals for
/// the same space must carry byte-identical frontier lines (the CI
/// agreement check is a literal `diff`).
pub fn frontier_record(
    space: &str,
    rank: usize,
    config: &SystemConfig,
    workload: Workload,
    objectives: &Objectives,
) -> Record {
    let mut r = Record::new("frontier");
    r.push("space", space);
    r.push("rank", rank as u64);
    push_identity(&mut r, config, workload);
    r.push("cycles", objectives.cycles);
    r.push("energy_uj", objectives.energy_uj);
    r.push("area_kge", objectives.area_kge);
    r
}

/// The closing `dse_summary` record. Deliberately excludes anything
/// resume-dependent (how many points came from a previous journal):
/// a resumed run and a fresh one finish with the same summary.
#[allow(clippy::too_many_arguments)]
pub fn dse_summary_record(
    space: &str,
    workload: Workload,
    strategy: &str,
    seed: u64,
    lattice_points: usize,
    pruned: usize,
    evaluated: usize,
    frontier_size: usize,
) -> Record {
    let mut r = Record::new("dse_summary");
    r.push("space", space);
    r.push("workload", workload.key());
    r.push("strategy", strategy);
    r.push("seed", seed);
    r.push("lattice_points", lattice_points as u64);
    r.push("pruned", pruned as u64);
    r.push("evaluated", evaluated as u64);
    r.push("frontier_size", frontier_size as u64);
    r
}

/// One `design_point` line of a journal.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalPoint {
    /// Identity and headline objectives.
    pub point: DesignPoint,
    /// The record's original JSONL line, re-emitted verbatim by the
    /// canonical rewrite so a resumed journal stays byte-identical to a
    /// fresh one.
    pub line: String,
}

/// The `dse_summary` record, read back (see [`dse_summary_record`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Space name.
    pub space: String,
    /// Workload every point ran.
    pub workload: Workload,
    /// Strategy name.
    pub strategy: String,
    /// Campaign seed.
    pub seed: u64,
    /// Size of the canonical lattice.
    pub lattice_points: usize,
    /// Points the strategy pruned.
    pub pruned: usize,
    /// Points with results in the journal.
    pub evaluated: usize,
    /// Frontier records the journal should hold.
    pub frontier_size: usize,
}

/// A journal read back into typed values, every list in file order.
#[derive(Clone, Debug, Default)]
pub struct Journal {
    /// `design_point` records.
    pub points: Vec<JournalPoint>,
    /// `frontier` records, each with its point's identity.
    pub frontier: Vec<(String, FrontierEntry)>,
    /// `dse_summary` records (a canonical journal has one, last).
    pub summaries: Vec<Summary>,
    /// Records of kinds this reader does not know.
    pub unknown: usize,
    /// One located message per line that could not be read (torn,
    /// malformed, or missing a field). Resume skips these lines; the
    /// validator and `repro explore --report` reject the journal.
    pub errors: Vec<String>,
}

/// Reads a journal: the one read path of its records. Every line must
/// carry a record kind and schema version; each known kind is read in
/// full or reported in [`Journal::errors`].
pub fn read(text: &str) -> Journal {
    let mut journal = Journal::default();
    for (n, line, doc) in json::records(text) {
        if let Err(e) = doc.and_then(|doc| journal.read_line(n, line, &doc)) {
            journal.errors.push(e);
        }
    }
    journal
}

impl Journal {
    fn read_line(&mut self, n: usize, line: &str, doc: &Json) -> Result<(), String> {
        let kind = doc.req_str(&format!("line {n}"), "record")?;
        doc.req_u64(&format!("line {n}"), "schema_version")?;
        let ctx = format!("line {n} ({kind})");
        match kind {
            "design_point" => self.points.push(JournalPoint {
                point: read_design_point(doc, &ctx)?,
                line: line.to_owned(),
            }),
            "frontier" => {
                doc.req_str(&ctx, "space")?;
                let identity = identity_of(doc).map_err(|e| format!("{ctx}: identity: {e}"))?;
                let (config, _) = config_from_record(doc).map_err(|e| format!("{ctx}: {e}"))?;
                let entry = FrontierEntry {
                    rank: doc.req_u64(&ctx, "rank")? as usize,
                    config,
                    objectives: Objectives {
                        cycles: doc.req_u64(&ctx, "cycles")?,
                        energy_uj: doc.req_f64(&ctx, "energy_uj")?,
                        area_kge: doc.req_f64(&ctx, "area_kge")?,
                    },
                };
                self.frontier.push((identity, entry));
            }
            "dse_summary" => self.summaries.push(Summary {
                space: doc.req_str(&ctx, "space")?.to_owned(),
                workload: doc
                    .req_str(&ctx, "workload")?
                    .parse()
                    .map_err(|e| format!("{ctx}: {e}"))?,
                strategy: doc.req_str(&ctx, "strategy")?.to_owned(),
                seed: doc.req_u64(&ctx, "seed")?,
                lattice_points: doc.req_u64(&ctx, "lattice_points")? as usize,
                pruned: doc.req_u64(&ctx, "pruned")? as usize,
                evaluated: doc.req_u64(&ctx, "evaluated")? as usize,
                frontier_size: doc.req_u64(&ctx, "frontier_size")? as usize,
            }),
            _ => self.unknown += 1,
        }
        Ok(())
    }
}

/// Structurally validates an exploration journal (`repro check
/// --journal`) and returns it: every line reads (see [`read`]);
/// frontier ranks are contiguous in file order and every frontier
/// point's identity also appears as a design point; a journal with a
/// frontier is finished, so it has exactly one summary, and the
/// summary's counts agree with the records around it. A journal of
/// design points alone (an exploration in progress) passes.
pub fn validate_journal(text: &str) -> Result<Journal, String> {
    let journal = read(text);
    if let Some(e) = journal.errors.first() {
        return Err(e.clone());
    }
    for (expected, (_, e)) in journal.frontier.iter().enumerate() {
        if e.rank != expected {
            return Err(format!(
                "frontier rank {} out of order (expected {expected})",
                e.rank
            ));
        }
    }
    let design: HashSet<&str> = journal
        .points
        .iter()
        .map(|p| p.point.identity.as_str())
        .collect();
    for (id, _) in &journal.frontier {
        if !design.contains(id.as_str()) {
            return Err(format!(
                "frontier point {id:?} has no matching design_point record \
                 (the frontier must be a subset of the evaluated set)"
            ));
        }
    }
    match journal.summaries.len() {
        0 if !journal.frontier.is_empty() => {
            return Err("frontier records without a dse_summary (incomplete exploration?)".into())
        }
        0 | 1 => {}
        n => {
            return Err(format!(
                "{n} dse_summary records (a finished journal has one)"
            ))
        }
    }
    if let Some(summary) = journal.summaries.first() {
        if summary.evaluated != journal.points.len() {
            return Err(format!(
                "dse_summary says evaluated={} but the journal has {} design points",
                summary.evaluated,
                journal.points.len()
            ));
        }
        if summary.frontier_size != journal.frontier.len() {
            return Err(format!(
                "dse_summary says frontier_size={} but the journal has {} frontier records",
                summary.frontier_size,
                journal.frontier.len()
            ));
        }
    }
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_core::metrics::config_identity;
    use ule_curves::params::CurveId;
    use ule_swlib::builder::Arch;

    fn cfg() -> SystemConfig {
        SystemConfig::new(CurveId::K163, Arch::Billie).with_billie_digit(4)
    }

    fn obj() -> Objectives {
        Objectives {
            cycles: 12345,
            energy_uj: 6.5,
            area_kge: 210.25,
        }
    }

    fn design_line() -> String {
        let mut r = Record::new("design_point");
        push_identity(&mut r, &cfg(), Workload::ScalarMul);
        r.push("cycles", 12345u64);
        r.push("energy_uj", 6.5);
        r.push("area_kge", 210.25);
        r.to_json()
    }

    #[test]
    fn identity_round_trips_through_a_journal_line() {
        let journal = read(&design_line());
        assert!(journal.errors.is_empty());
        let p = &journal.points[0].point;
        assert_eq!(p.identity, config_identity(&cfg(), Workload::ScalarMul));
        assert_eq!(p.cycles, 12345);
        assert_eq!(p.energy_uj, 6.5);
    }

    #[test]
    fn torn_and_unknown_lines_are_skipped() {
        let good = design_line();
        let torn = &good[..good.len() / 2];
        let text = format!("{good}\n{torn}\n{{\"record\":\"mystery\",\"schema_version\":9}}\n");
        let journal = read(&text);
        assert_eq!(journal.points.len(), 1);
        assert_eq!((journal.errors.len(), journal.unknown), (1, 1));
    }

    #[test]
    fn validator_accepts_a_canonical_journal() {
        let f = frontier_record("s", 0, &cfg(), Workload::ScalarMul, &obj());
        let s = dse_summary_record("s", Workload::ScalarMul, "grid", 7, 1, 0, 1, 1);
        let text = format!("{}\n{}\n{}\n", design_line(), f.to_json(), s.to_json());
        let journal = validate_journal(&text).unwrap();
        let counts = (
            journal.points.len(),
            journal.frontier.len(),
            journal.summaries.len(),
            journal.unknown,
        );
        assert_eq!(counts, (1, 1, 1, 0));
    }

    #[test]
    fn validator_rejects_inconsistencies() {
        // Frontier point without its design point.
        let f = frontier_record("s", 0, &cfg(), Workload::ScalarMul, &obj());
        let err = validate_journal(&format!("{}\n", f.to_json())).unwrap_err();
        assert!(err.contains("no matching design_point"), "{err}");
        // Out-of-order rank.
        let f1 = frontier_record("s", 1, &cfg(), Workload::ScalarMul, &obj());
        let err = validate_journal(&format!("{}\n{}\n", design_line(), f1.to_json())).unwrap_err();
        assert!(err.contains("rank 1 out of order"), "{err}");
        // Summary count mismatch.
        let s = dse_summary_record("s", Workload::ScalarMul, "grid", 7, 2, 0, 2, 0);
        let err = validate_journal(&format!("{}\n{}\n", design_line(), s.to_json())).unwrap_err();
        assert!(err.contains("evaluated=2"), "{err}");
        // Torn line is a hard error here (unlike resume).
        let good = design_line();
        assert!(validate_journal(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn a_frontier_needs_exactly_one_summary() {
        let f = frontier_record("s", 0, &cfg(), Workload::ScalarMul, &obj()).to_json();
        let s = dse_summary_record("s", Workload::ScalarMul, "grid", 7, 1, 0, 1, 1).to_json();
        let d = design_line();
        let err = validate_journal(&format!("{d}\n{f}\n")).unwrap_err();
        assert!(err.contains("without a dse_summary"), "{err}");
        let err = validate_journal(&format!("{d}\n{f}\n{s}\n{s}\n")).unwrap_err();
        assert!(err.contains("2 dse_summary records"), "{err}");
        // Design points alone: an exploration in progress.
        assert!(validate_journal(&format!("{d}\n")).is_ok());
    }

    #[test]
    fn unknown_kinds_are_counted_not_fatal() {
        let text = "{\"record\":\"future_thing\",\"schema_version\":9}\n";
        let journal = validate_journal(text).unwrap();
        assert_eq!(journal.unknown, 1);
    }
}
