//! The resumable exploration journal (JSONL) and its validator.
//!
//! During a run the explorer *appends* one `design_point` record per
//! evaluated point — crash-safe progress. On successful completion it
//! *rewrites* the file in canonical form: every design point in lattice
//! order, then one `frontier` record per frontier point (rank order),
//! then one `dse_summary`. Because every record is a deterministic
//! function of (space, evaluated set), the completed journal is
//! byte-identical across re-runs, resumes, and thread counts.
//!
//! Resume parses `design_point` lines back by their *identity* (the
//! [`ule_core::metrics::config_identity`] string) and skips anything it
//! does not understand — a torn final line from a killed run, or record
//! kinds from a future schema — so a journal is never a worse starting
//! point than an empty file.

use crate::pareto::Objectives;
use std::collections::HashMap;
use ule_core::metrics::{identity_of, push_identity};
use ule_core::{SystemConfig, Workload};
use ule_obs::json;
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

/// One design point recovered from a journal.
#[derive(Clone, Debug, PartialEq)]
pub struct ResumedPoint {
    /// Simulated cycles.
    pub cycles: u64,
    /// Total energy, µJ (bit-exact: the JSON writer uses shortest-
    /// round-trip formatting).
    pub energy_uj: f64,
    /// The record's original JSONL line, re-emitted verbatim by the
    /// canonical rewrite so a resumed journal stays byte-identical to a
    /// fresh one.
    pub line: String,
}

/// Parses the `design_point` lines of a (possibly torn or partial)
/// journal, keyed by identity. Unknown record kinds, malformed lines,
/// and design points missing required fields are skipped — their count
/// comes back alongside the map. Later lines win on duplicate identity.
pub fn parse_design_points(text: &str) -> (HashMap<String, ResumedPoint>, usize) {
    let mut points = HashMap::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line).and_then(|doc| {
            if doc.get("record")?.as_str()? != "design_point" {
                return None;
            }
            Some((
                identity_of(&doc).ok()?,
                ResumedPoint {
                    cycles: doc.get("cycles")?.as_u64()?,
                    energy_uj: doc.get("energy_uj")?.as_f64()?,
                    line: line.to_owned(),
                },
            ))
        });
        match parsed {
            Some((identity, point)) => {
                points.insert(identity, point);
            }
            None => skipped += 1,
        }
    }
    (points, skipped)
}

/// What a validated journal contains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// `design_point` records.
    pub design_points: usize,
    /// `frontier` records.
    pub frontier_points: usize,
    /// `dse_summary` records.
    pub summaries: usize,
    /// Records of kinds this validator does not know (tolerated, per
    /// the skip-and-count forward-compatibility rule).
    pub unknown: usize,
}

/// Structurally validates an exploration journal (`repro check
/// --journal`): every line is valid JSON with a record kind and schema
/// version; design points carry their identity and objectives;
/// frontier ranks are contiguous in file order and every frontier
/// point's identity also appears as a design point; the summary's
/// counts agree with the records around it.
pub fn validate_journal(text: &str) -> Result<JournalStats, String> {
    let mut stats = JournalStats::default();
    let mut design_identities: Vec<String> = Vec::new();
    let mut frontier_identities: Vec<String> = Vec::new();
    let mut summary: Option<(u64, u64)> = None; // (evaluated, frontier_size)
    for (n, line) in text.lines().enumerate() {
        let n = n + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).ok_or_else(|| format!("line {n}: not valid JSON"))?;
        let kind = doc.req_str(&format!("line {n}"), "record")?.to_owned();
        doc.req_u64(&format!("line {n}"), "schema_version")?;
        let ctx = format!("line {n} ({kind})");
        let identity = || identity_of(&doc).map_err(|e| format!("{ctx}: identity: {e}"));
        match kind.as_str() {
            "design_point" => {
                design_identities.push(identity()?);
                doc.req_u64(&ctx, "cycles")?;
                doc.req_f64(&ctx, "energy_uj")?;
                stats.design_points += 1;
            }
            "frontier" => {
                doc.req_str(&ctx, "space")?;
                let rank = doc.req_u64(&ctx, "rank")?;
                if rank as usize != frontier_identities.len() {
                    return Err(format!(
                        "{ctx}: rank {rank} out of order (expected {})",
                        frontier_identities.len()
                    ));
                }
                frontier_identities.push(identity()?);
                doc.req_u64(&ctx, "cycles")?;
                doc.req_f64(&ctx, "energy_uj")?;
                doc.req_f64(&ctx, "area_kge")?;
                stats.frontier_points += 1;
            }
            "dse_summary" => {
                for key in ["space", "workload", "strategy"] {
                    doc.req_str(&ctx, key)?;
                }
                for key in ["seed", "lattice_points", "pruned"] {
                    doc.req_u64(&ctx, key)?;
                }
                summary = Some((
                    doc.req_u64(&ctx, "evaluated")?,
                    doc.req_u64(&ctx, "frontier_size")?,
                ));
                stats.summaries += 1;
            }
            _ => stats.unknown += 1,
        }
    }
    for id in &frontier_identities {
        if !design_identities.contains(id) {
            return Err(format!(
                "frontier point {id:?} has no matching design_point record \
                 (the frontier must be a subset of the evaluated set)"
            ));
        }
    }
    if let Some((evaluated, frontier_size)) = summary {
        if evaluated as usize != stats.design_points {
            return Err(format!(
                "dse_summary says evaluated={evaluated} but the journal has {} design points",
                stats.design_points
            ));
        }
        if frontier_size as usize != stats.frontier_points {
            return Err(format!(
                "dse_summary says frontier_size={frontier_size} but the journal has {} frontier records",
                stats.frontier_points
            ));
        }
    }
    Ok(stats)
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
        let (points, skipped) = parse_design_points(&design_line());
        assert_eq!(skipped, 0);
        let identity = config_identity(&cfg(), Workload::ScalarMul);
        let p = &points[&identity];
        assert_eq!(p.cycles, 12345);
        assert_eq!(p.energy_uj, 6.5);
    }

    #[test]
    fn torn_and_unknown_lines_are_skipped() {
        let good = design_line();
        let torn = &good[..good.len() / 2];
        let text = format!("{good}\n{torn}\n{{\"record\":\"mystery\",\"schema_version\":9}}\n");
        let (points, skipped) = parse_design_points(&text);
        assert_eq!(points.len(), 1);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn validator_accepts_a_canonical_journal() {
        let f = frontier_record("s", 0, &cfg(), Workload::ScalarMul, &obj());
        let s = dse_summary_record("s", Workload::ScalarMul, "grid", 7, 1, 0, 1, 1);
        let text = format!("{}\n{}\n{}\n", design_line(), f.to_json(), s.to_json());
        let stats = validate_journal(&text).unwrap();
        assert_eq!(
            stats,
            JournalStats {
                design_points: 1,
                frontier_points: 1,
                summaries: 1,
                unknown: 0
            }
        );
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
    fn unknown_kinds_are_counted_not_fatal() {
        let text = "{\"record\":\"future_thing\",\"schema_version\":9}\n";
        let stats = validate_journal(text).unwrap();
        assert_eq!(stats.unknown, 1);
    }
}
