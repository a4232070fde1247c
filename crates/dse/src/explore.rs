//! The explorer: lattice enumeration → (resumable) evaluation via a
//! [`Strategy`] → incremental Pareto frontier → canonical journal.

use crate::journal;
use crate::pareto::{Objectives, ParetoFront};
use crate::strategy::{ExploreState, Strategy};
use crate::Evaluator;
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use ule_core::metrics::config_identity;
use ule_core::space::{area_kge, SpaceError, SpaceSpec};
use ule_core::{SystemConfig, Workload};

/// Why an exploration could not run to completion.
#[derive(Debug)]
pub enum ExploreError {
    /// The space itself is invalid.
    Space(SpaceError),
    /// Journal I/O failed.
    Io(std::io::Error),
    /// The evaluator broke its contract (wrong result count).
    Evaluator(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Space(e) => write!(f, "invalid space: {e}"),
            ExploreError::Io(e) => write!(f, "journal I/O: {e}"),
            ExploreError::Evaluator(e) => write!(f, "evaluator: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<SpaceError> for ExploreError {
    fn from(e: SpaceError) -> Self {
        ExploreError::Space(e)
    }
}

impl From<std::io::Error> for ExploreError {
    fn from(e: std::io::Error) -> Self {
        ExploreError::Io(e)
    }
}

/// One frontier point of a finished exploration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontierEntry {
    /// Presentation rank: energy ascending, ties by lattice index.
    pub rank: usize,
    /// The configuration.
    pub config: SystemConfig,
    /// Its objectives.
    pub objectives: Objectives,
}

/// A finished exploration.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreOutcome {
    /// Space name.
    pub space: String,
    /// Workload every point ran.
    pub workload: Workload,
    /// Strategy name.
    pub strategy: String,
    /// Campaign seed (orders greedy's schedule; recorded for grid too).
    pub seed: u64,
    /// Size of the canonical lattice.
    pub lattice_points: usize,
    /// Points the strategy proved it never needs to evaluate.
    pub pruned: usize,
    /// Points with results in the journal (resumed + simulated).
    pub evaluated: usize,
    /// Points recovered from the journal instead of re-simulated.
    pub resumed: usize,
    /// Points actually simulated this run.
    pub simulated: usize,
    /// The Pareto frontier, rank order.
    pub frontier: Vec<FrontierEntry>,
}

/// Runs one exploration. `out` is the journal path: design points are
/// appended as they finish (so a killed run loses at most the
/// in-flight batch), matching points from an existing journal are
/// resumed without re-simulation, and on completion the file is
/// rewritten in canonical order — byte-identical across runs, resumes,
/// and thread counts.
pub fn explore(
    evaluator: &dyn Evaluator,
    space: &SpaceSpec,
    strategy: &mut dyn Strategy,
    seed: u64,
    out: Option<&Path>,
) -> Result<ExploreOutcome, ExploreError> {
    let lattice = space.enumerate()?;
    let identities: Vec<String> = lattice
        .iter()
        .map(|c| config_identity(c, space.workload))
        .collect();
    let mut objectives: Vec<Option<Objectives>> = vec![None; lattice.len()];
    let mut lines: Vec<Option<String>> = vec![None; lattice.len()];
    let mut frontier = ParetoFront::new();
    let mut resumed = 0usize;

    if let Some(path) = out {
        if path.exists() {
            let journal = journal::read(&fs::read_to_string(path)?);
            // Later lines win on a duplicate identity.
            let recovered: HashMap<&str, &journal::JournalPoint> = journal
                .points
                .iter()
                .map(|p| (p.point.identity.as_str(), p))
                .collect();
            for (i, identity) in identities.iter().enumerate() {
                if let Some(p) = recovered.get(identity.as_str()) {
                    let obj = Objectives {
                        cycles: p.point.cycles,
                        energy_uj: p.point.energy_uj,
                        area_kge: area_kge(&lattice[i]),
                    };
                    objectives[i] = Some(obj);
                    lines[i] = Some(p.line.clone());
                    frontier.insert(i, obj);
                    resumed += 1;
                }
            }
        }
    }

    let mut appender = match out {
        Some(path) => Some(OpenOptions::new().create(true).append(true).open(path)?),
        None => None,
    };
    let mut simulated = 0usize;
    loop {
        let batch = strategy.next_batch(&ExploreState {
            space,
            lattice: &lattice,
            evaluated: &objectives,
            frontier: &frontier,
        });
        if batch.is_empty() {
            break;
        }
        let jobs: Vec<(SystemConfig, Workload)> = batch
            .iter()
            .map(|&i| (lattice[i], space.workload))
            .collect();
        let evals = evaluator.evaluate(&jobs);
        if evals.len() != jobs.len() {
            return Err(ExploreError::Evaluator(format!(
                "returned {} results for {} jobs",
                evals.len(),
                jobs.len()
            )));
        }
        for (&i, ev) in batch.iter().zip(&evals) {
            let obj = Objectives {
                cycles: ev.cycles,
                energy_uj: ev.energy_uj,
                area_kge: area_kge(&lattice[i]),
            };
            let line = ev.record.to_json();
            if let Some(f) = appender.as_mut() {
                writeln!(f, "{line}")?;
            }
            objectives[i] = Some(obj);
            lines[i] = Some(line);
            frontier.insert(i, obj);
            simulated += 1;
        }
        if let Some(f) = appender.as_mut() {
            f.flush()?;
        }
    }
    drop(appender);

    let frontier = rank_frontier(&frontier);
    let evaluated = lines.iter().filter(|l| l.is_some()).count();
    let outcome = ExploreOutcome {
        space: space.name.clone(),
        workload: space.workload,
        strategy: strategy.name().to_owned(),
        seed,
        lattice_points: lattice.len(),
        pruned: strategy.pruned(),
        evaluated,
        resumed,
        simulated,
        frontier: frontier
            .iter()
            .enumerate()
            .map(|(rank, &(index, objectives))| FrontierEntry {
                rank,
                config: lattice[index],
                objectives,
            })
            .collect(),
    };

    if let Some(path) = out {
        let mut text = String::new();
        for line in lines.iter().flatten() {
            text.push_str(line);
            text.push('\n');
        }
        for e in &outcome.frontier {
            text.push_str(
                &journal::frontier_record(
                    &outcome.space,
                    e.rank,
                    &e.config,
                    outcome.workload,
                    &e.objectives,
                )
                .to_json(),
            );
            text.push('\n');
        }
        text.push_str(
            &journal::dse_summary_record(
                &outcome.space,
                outcome.workload,
                &outcome.strategy,
                outcome.seed,
                outcome.lattice_points,
                outcome.pruned,
                outcome.evaluated,
                outcome.frontier.len(),
            )
            .to_json(),
        );
        text.push('\n');
        fs::write(path, text)?;
    }
    Ok(outcome)
}

/// Presentation order of the frontier: energy ascending, ties by
/// lattice index — deterministic, like everything else in the journal.
fn rank_frontier(front: &ParetoFront) -> Vec<(usize, Objectives)> {
    let mut v: Vec<(usize, Objectives)> = front
        .points()
        .iter()
        .map(|p| (p.id, p.objectives))
        .collect();
    v.sort_by(|a, b| {
        a.1.energy_uj
            .partial_cmp(&b.1.energy_uj)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    v
}

/// A compact human label for a configuration: curve + arch plus only
/// the knobs that depart from the defaults of `SystemConfig::new`.
pub fn label(config: &SystemConfig) -> String {
    use ule_energy::report::Gating;
    use ule_swlib::builder::Arch;
    let mut s = format!("{} {}", config.curve.name(), config.arch.key());
    if let Some(c) = config.icache {
        s.push_str(&format!(
            " i${}{}{}",
            c.size_bytes / 1024,
            if c.size_bytes % 1024 == 0 { "K" } else { "B" },
            if c.ideal {
                "-ideal"
            } else if c.prefetch {
                "+pf"
            } else {
                ""
            },
        ));
    }
    if config.arch == Arch::Monte {
        let d = config.monte;
        if !d.double_buffer {
            s.push_str(" -dbuf");
        }
        if !d.forwarding {
            s.push_str(" -fwd");
        }
        if d.queue_depth != 4 {
            s.push_str(&format!(" q{}", d.queue_depth));
        }
    }
    if config.arch == Arch::Billie {
        s.push_str(&format!(" d{}", config.billie_digit));
        if config.billie_sram_rf {
            s.push_str(" sram-rf");
        }
    }
    if config.mult_variant != ule_core::MultVariant::Karatsuba {
        s.push_str(&format!(" {}", config.mult_variant.key()));
    }
    if config.gating != Gating::None {
        s.push_str(&format!(" {}-gated", config.gating.key()));
    }
    s
}

/// Reconstructs a finished exploration from its canonical journal —
/// the basis of `repro explore --report`, which must not re-simulate.
/// Requires at least the `frontier` records and the `dse_summary`, and
/// rejects a journal with any line [`journal::read`] cannot read; the
/// per-run `resumed`/`simulated` counts are not journaled (they are
/// resume-dependent) and come back as zero.
pub fn outcome_from_journal(text: &str) -> Result<ExploreOutcome, String> {
    let journal = journal::read(text);
    if let Some(e) = journal.errors.first() {
        return Err(e.clone());
    }
    let summary = journal
        .summaries
        .last()
        .ok_or("journal has no dse_summary record (incomplete exploration?)")?;
    let mut frontier: Vec<FrontierEntry> = journal.frontier.iter().map(|(_, e)| *e).collect();
    frontier.sort_by_key(|e| e.rank);
    Ok(ExploreOutcome {
        space: summary.space.clone(),
        workload: summary.workload,
        strategy: summary.strategy.clone(),
        seed: summary.seed,
        lattice_points: summary.lattice_points,
        pruned: summary.pruned,
        evaluated: summary.evaluated,
        resumed: 0,
        simulated: 0,
        frontier,
    })
}

/// Renders the frontier table of a finished exploration, with each
/// point's deltas against the paper's fixed configuration for the same
/// curve and architecture (`SystemConfig::new(curve, arch)` — digit 3,
/// default front end, no gating, flip-flop register file). The
/// reference points are evaluated through the same engine (memoized,
/// so repeated references cost one simulation).
pub fn render_report(
    evaluator: &dyn Evaluator,
    outcome: &ExploreOutcome,
) -> Result<String, ExploreError> {
    use std::fmt::Write as _;
    let refs: Vec<(SystemConfig, Workload)> = outcome
        .frontier
        .iter()
        .map(|e| {
            (
                ule_core::space::canonicalize(SystemConfig::new(e.config.curve, e.config.arch)),
                outcome.workload,
            )
        })
        .collect();
    let ref_evals = evaluator.evaluate(&refs);
    if ref_evals.len() != refs.len() {
        return Err(ExploreError::Evaluator(format!(
            "returned {} results for {} reference jobs",
            ref_evals.len(),
            refs.len()
        )));
    }
    let mut t = String::new();
    let _ = writeln!(
        t,
        "frontier of space {:?} ({} points / {} evaluated / {} lattice, strategy {}):",
        outcome.space,
        outcome.frontier.len(),
        outcome.evaluated,
        outcome.lattice_points,
        &outcome.strategy,
    );
    let _ = writeln!(
        t,
        "{:>4}  {:<32} {:>12} {:>12} {:>10} {:>18}",
        "rank", "config", "cycles", "energy_uj", "area_kge", "vs paper cfg E/cyc"
    );
    for (e, r) in outcome.frontier.iter().zip(&ref_evals) {
        let de = 100.0 * (e.objectives.energy_uj - r.energy_uj) / r.energy_uj;
        let dc = 100.0 * (e.objectives.cycles as f64 - r.cycles as f64) / r.cycles as f64;
        let _ = writeln!(
            t,
            "{:>4}  {:<32} {:>12} {:>12.4} {:>10.2} {:>+8.1}% {:>+8.1}%",
            e.rank,
            label(&e.config),
            e.objectives.cycles,
            e.objectives.energy_uj,
            e.objectives.area_kge,
            de,
            dc,
        );
    }
    Ok(t)
}
