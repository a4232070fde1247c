//! Exploration strategies: which lattice points to evaluate, in which
//! order.
//!
//! Both built-in strategies recover the **same frontier**:
//!
//! * [`Grid`] exhaustively evaluates every lattice point in canonical
//!   order;
//! * [`Greedy`] first discards points that an *analytic* argument
//!   proves can never reach the frontier (see [`provably_pruned`]),
//!   then evaluates the survivors in successive-halving batches whose
//!   order is a pure function of the seed, re-prioritizing lattice
//!   neighbours of the current frontier between batches.
//!
//! Greedy's pruning is sound by construction: a point is only dropped
//! when a specific sibling — same configuration with one knob replaced
//! — is (a) provably no worse on every objective by a documented
//! energy-model monotonicity, and (b) *earlier* in the canonical
//! lattice order. Under the index tie-breaking dominance of
//! [`crate::pareto::dominates`] the sibling then dominates the dropped
//! point outright, and because "earlier index" is acyclic the chain of
//! prunes always terminates at an evaluated point. Dropping dominated
//! points never changes the maximal elements, so grid and greedy agree
//! exactly — which the CI `explore` job asserts byte-for-byte.

use crate::pareto::{Objectives, ParetoFront};
use std::collections::HashMap;
use ule_core::space::{canonicalize, SpaceSpec};
use ule_core::SystemConfig;
use ule_energy::report::Gating;
use ule_testkit::Rng;

/// Everything a strategy may consult when planning the next batch.
pub struct ExploreState<'a> {
    /// The declarative space being explored.
    pub space: &'a SpaceSpec,
    /// The canonical lattice (`SpaceSpec::enumerate` order).
    pub lattice: &'a [SystemConfig],
    /// Per-lattice-index objectives, `Some` once evaluated (including
    /// points resumed from a journal).
    pub evaluated: &'a [Option<Objectives>],
    /// The frontier over everything evaluated so far.
    pub frontier: &'a ParetoFront,
}

/// A batch-planning policy over the lattice.
pub trait Strategy {
    /// Stable strategy name (journal `dse_summary.strategy`).
    fn name(&self) -> &'static str;
    /// Lattice indices to evaluate next; empty means the strategy is
    /// done. Must only return indices not yet evaluated.
    fn next_batch(&mut self, state: &ExploreState<'_>) -> Vec<usize>;
    /// How many lattice points the strategy proved it never needs to
    /// evaluate.
    fn pruned(&self) -> usize {
        0
    }
}

/// Exhaustive evaluation in canonical lattice order, in fixed-size
/// batches (the batch size only shapes journal flush granularity —
/// results are order-independent).
pub struct Grid {
    cursor: usize,
}

/// Points per [`Grid`] batch: small enough that an interrupted run
/// resumes most finished work, large enough to keep the parallel
/// engine's threads fed.
pub const GRID_BATCH: usize = 32;

impl Grid {
    /// A fresh grid sweep.
    pub fn new() -> Self {
        Grid { cursor: 0 }
    }
}

impl Default for Grid {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Grid {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn next_batch(&mut self, state: &ExploreState<'_>) -> Vec<usize> {
        let mut batch = Vec::new();
        while self.cursor < state.lattice.len() && batch.len() < GRID_BATCH {
            if state.evaluated[self.cursor].is_none() {
                batch.push(self.cursor);
            }
            self.cursor += 1;
        }
        batch
    }
}

/// Which lattice points can be discarded without evaluation, per the
/// documented energy-model monotonicities. `index_of` must map every
/// lattice config to its canonical index.
///
/// A point `b` is pruned iff some single-knob sibling `a` satisfies
/// both: `a`'s objectives are provably `≤ b`'s componentwise, and
/// `a` precedes `b` in the lattice. The provable knob relations:
///
/// * **mult_variant** — the §7.8 variants scale core power by a
///   constant factor and touch nothing else (timing and area
///   unchanged), so a variant with a smaller-or-equal factor is no
///   worse on all three objectives.
/// * **gating** — clock gating only removes idle accelerator dynamic
///   energy relative to no gating (timing and area unchanged), so
///   `Clock ≤ None`. Power gating is *not* provable: it trades idle
///   dynamic for a different static accounting that can lose when the
///   accelerator's DMA overlaps compute.
/// * **billie_sram_rf** — the SRAM register file scales Billie's RF
///   dynamic, static, *and* area contributions by factors `< 1` with
///   timing unchanged, so `true ≤ false`.
pub fn provably_pruned(
    space: &SpaceSpec,
    lattice: &[SystemConfig],
    index_of: &HashMap<SystemConfig, usize>,
) -> Vec<bool> {
    let dominated_at = |sibling: SystemConfig, i: usize| -> bool {
        sibling != lattice[i] && index_of.get(&sibling).is_some_and(|&j| j < i)
    };
    lattice
        .iter()
        .enumerate()
        .map(|(i, &cfg)| {
            for &v in space.mult_variants() {
                if v != cfg.mult_variant && v.factor() <= cfg.mult_variant.factor() {
                    let mut s = cfg;
                    s.mult_variant = v;
                    if dominated_at(canonicalize(s), i) {
                        return true;
                    }
                }
            }
            if cfg.gating == Gating::None && space.gatings().contains(&Gating::Clock) {
                let mut s = cfg;
                s.gating = Gating::Clock;
                if dominated_at(canonicalize(s), i) {
                    return true;
                }
            }
            if !cfg.billie_sram_rf && space.billie_sram_rf().contains(&true) {
                let mut s = cfg;
                s.billie_sram_rf = true;
                if dominated_at(canonicalize(s), i) {
                    return true;
                }
            }
            false
        })
        .collect()
}

/// Analytic pruning + seeded successive-halving evaluation, frontier
/// neighbours first.
pub struct Greedy {
    seed: u64,
    pruned: usize,
    /// Unevaluated survivors in current priority order (`None` until
    /// the first batch computes the plan).
    queue: Option<Vec<usize>>,
}

impl Greedy {
    /// A greedy sweep; `seed` fixes the evaluation order (and nothing
    /// else — the frontier is seed-independent).
    pub fn new(seed: u64) -> Self {
        Greedy {
            seed,
            pruned: 0,
            queue: None,
        }
    }

    fn plan(&mut self, state: &ExploreState<'_>) -> Vec<usize> {
        let index_of: HashMap<SystemConfig, usize> = state
            .lattice
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        let pruned = provably_pruned(state.space, state.lattice, &index_of);
        self.pruned = pruned.iter().filter(|&&p| p).count();
        let mut survivors: Vec<usize> = (0..state.lattice.len()).filter(|&i| !pruned[i]).collect();
        // Fisher–Yates with the campaign RNG: the schedule is a pure
        // function of (space, seed).
        let mut rng = Rng::new(self.seed);
        for i in (1..survivors.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            survivors.swap(i, j);
        }
        survivors
    }
}

/// Whether two lattice points differ in exactly one configuration knob
/// — the neighbourhood the greedy strategy walks first around frontier
/// points.
fn single_knob_neighbours(a: &SystemConfig, b: &SystemConfig) -> bool {
    let diffs = usize::from(a.curve != b.curve)
        + usize::from(a.arch != b.arch)
        + usize::from(a.icache != b.icache)
        + usize::from(a.monte != b.monte)
        + usize::from(a.billie_digit != b.billie_digit)
        + usize::from(a.mult_variant != b.mult_variant)
        + usize::from(a.gating != b.gating)
        + usize::from(a.billie_sram_rf != b.billie_sram_rf);
    diffs == 1
}

impl Strategy for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn next_batch(&mut self, state: &ExploreState<'_>) -> Vec<usize> {
        if self.queue.is_none() {
            let plan = self.plan(state);
            self.queue = Some(plan);
        }
        let queue = self.queue.as_mut().expect("planned above");
        queue.retain(|&i| state.evaluated[i].is_none());
        if queue.is_empty() {
            return Vec::new();
        }
        // Frontier guidance: stable-sort the remaining schedule so
        // single-knob neighbours of current frontier points run first.
        // Stability keeps the seeded order within each class, so the
        // whole schedule stays deterministic.
        queue.sort_by_key(|&i| {
            let near = state
                .frontier
                .points()
                .iter()
                .any(|p| single_knob_neighbours(&state.lattice[i], &state.lattice[p.id]));
            u8::from(!near)
        });
        // Successive halving: evaluate half the remaining schedule per
        // round (at least one point), shrinking as the frontier firms
        // up.
        let take = queue.len().div_ceil(2);
        queue.drain(..take).collect()
    }

    fn pruned(&self) -> usize {
        self.pruned
    }
}

/// The built-in strategies by name (`repro explore --strategy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// [`Grid`].
    Grid,
    /// [`Greedy`].
    Greedy,
}

impl StrategyKind {
    /// A fresh strategy of this kind; `seed` orders greedy's schedule.
    pub fn build(self, seed: u64) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Grid => Box::new(Grid::new()),
            StrategyKind::Greedy => Box::new(Greedy::new(seed)),
        }
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "grid" => Ok(StrategyKind::Grid),
            "greedy" => Ok(StrategyKind::Greedy),
            _ => Err(format!("unknown strategy {s:?} (expected grid|greedy)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_core::space::Axis;
    use ule_core::{MultVariant, Workload};
    use ule_curves::params::CurveId;
    use ule_swlib::builder::Arch;

    fn billie_space() -> SpaceSpec {
        SpaceSpec::new("t", Workload::ScalarMul)
            .axis(Axis::Curves(vec![CurveId::K163]))
            .axis(Axis::Archs(vec![Arch::Billie]))
            .axis(Axis::BillieDigits(vec![1, 2, 3]))
            .axis(Axis::MultVariants(vec![
                MultVariant::Karatsuba,
                MultVariant::OperandScan,
                MultVariant::Parallel,
            ]))
    }

    #[test]
    fn pruning_keeps_exactly_the_cheapest_variant() {
        let space = billie_space();
        let lattice = space.enumerate().unwrap();
        assert_eq!(lattice.len(), 9);
        let index_of: HashMap<SystemConfig, usize> =
            lattice.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let pruned = provably_pruned(&space, &lattice, &index_of);
        for (i, cfg) in lattice.iter().enumerate() {
            assert_eq!(
                pruned[i],
                cfg.mult_variant != MultVariant::Karatsuba,
                "point {i}: {cfg:?}"
            );
        }
    }

    #[test]
    fn pruning_respects_declared_axis_order() {
        // Karatsuba declared *last*: pruning requires the dominating
        // sibling to come earlier in the lattice. Parallel is earlier
        // but has the worse factor (never dominates); Karatsuba
        // dominates but is later. Net effect: no pruning at all —
        // correctness never depends on the declared order, only the
        // amount of pruning does.
        let space = billie_space().axis(Axis::MultVariants(vec![
            MultVariant::Parallel,
            MultVariant::OperandScan,
            MultVariant::Karatsuba,
        ]));
        let lattice = space.enumerate().unwrap();
        let index_of: HashMap<SystemConfig, usize> =
            lattice.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let pruned = provably_pruned(&space, &lattice, &index_of);
        assert!(pruned.iter().all(|&p| !p));
    }

    #[test]
    fn greedy_schedule_is_a_pure_function_of_the_seed() {
        let space = billie_space();
        let lattice = space.enumerate().unwrap();
        let evaluated = vec![None; lattice.len()];
        let frontier = ParetoFront::new();
        let schedule = |seed| {
            let mut g = Greedy::new(seed);
            let mut out = Vec::new();
            loop {
                let state = ExploreState {
                    space: &space,
                    lattice: &lattice,
                    evaluated: &evaluated,
                    frontier: &frontier,
                };
                let mut batch = g.next_batch(&state);
                if batch.is_empty() {
                    break;
                }
                out.append(&mut batch);
            }
            out
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        // Every survivor is scheduled exactly once.
        let mut s = schedule(7);
        s.sort_unstable();
        assert_eq!(s, vec![0, 3, 6]); // the three Karatsuba points
    }

    #[test]
    fn grid_covers_everything_in_order() {
        let space = billie_space();
        let lattice = space.enumerate().unwrap();
        let evaluated = vec![None; lattice.len()];
        let frontier = ParetoFront::new();
        let mut g = Grid::new();
        let state = ExploreState {
            space: &space,
            lattice: &lattice,
            evaluated: &evaluated,
            frontier: &frontier,
        };
        assert_eq!(g.next_batch(&state), (0..9).collect::<Vec<_>>());
        assert!(g.next_batch(&state).is_empty());
        assert_eq!(g.pruned(), 0);
    }
}
