//! Turning run activity into the per-component energy breakdowns of
//! Figs 7.2/7.3/7.9 and the power split of Fig 7.10.

use crate::constants::*;
use crate::logic;
use crate::mem;
use std::fmt;

/// The stacked-bar components of the paper's breakdown figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Component {
    /// The processor core ("Pete", incl. the Hi/Lo multiplier).
    PeteCore,
    /// The 256 KB program ROM.
    Rom,
    /// The 16 KB data RAM.
    Ram,
    /// Instruction cache + ROM controller + buffers (§7.1's "uncore").
    Uncore,
    /// The Monte accelerator.
    Monte,
    /// The Billie accelerator.
    Billie,
}

impl Component {
    /// Display name matching the figures.
    pub fn name(self) -> &'static str {
        match self {
            Component::PeteCore => "Pete core",
            Component::Rom => "ROM",
            Component::Ram => "RAM",
            Component::Uncore => "Uncore",
            Component::Monte => "Monte",
            Component::Billie => "Billie",
        }
    }

    /// Stable snake_case identifier for machine-readable output (the
    /// metrics schema pins these — renaming is a schema change).
    pub fn key(self) -> &'static str {
        match self {
            Component::PeteCore => "pete_core",
            Component::Rom => "rom",
            Component::Ram => "ram",
            Component::Uncore => "uncore",
            Component::Monte => "monte",
            Component::Billie => "billie",
        }
    }
}

/// Instruction-cache activity for the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IcacheActivity {
    /// Cache capacity in bytes.
    pub size_bytes: u32,
    /// Processor-side accesses (tag + data arrays).
    pub accesses: u64,
    /// Line fills written into the data array.
    pub fills: u64,
}

/// Which accelerator is attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopKind {
    /// Monte (§5.4).
    Monte,
    /// Billie for GF(2^m) (§5.5).
    Billie {
        /// The field degree (Billie's power scales with it).
        m: usize,
    },
}

/// Idle-accelerator gating strategy — the paper's stated future work
/// (§8: "we plan on modeling our system such that we can turn off Billie
/// when she is not in use"; §7.4: "our system could still benefit
/// substantially from power and clock gating techniques").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Gating {
    /// The study's design point: the accelerator clock keeps running
    /// while idle.
    #[default]
    None,
    /// Clock gating: idle dynamic power eliminated; leakage remains.
    Clock,
    /// Power gating: idle dynamic *and* static power eliminated (the
    /// paper notes leakage insight in §7.9: "how much power will be
    /// consumed if power gating is not utilized while the FFAU is
    /// idle").
    Power,
}

impl Gating {
    /// Every strategy, the study's design point first.
    pub const ALL: [Gating; 3] = [Gating::None, Gating::Clock, Gating::Power];

    /// The metrics-schema spelling (`"none"`, `"clock"`, `"power"`).
    pub fn key(self) -> &'static str {
        match self {
            Gating::None => "none",
            Gating::Clock => "clock",
            Gating::Power => "power",
        }
    }
}

impl std::str::FromStr for Gating {
    type Err = String;

    /// The design-space spelling policy (`ule_curves::params::spells`:
    /// ASCII case and `-`/`_` separators ignored), here over keys that
    /// have no separator.
    fn from_str(s: &str) -> Result<Self, String> {
        let folded = s.replace(['-', '_'], "");
        Gating::ALL
            .into_iter()
            .find(|g| folded.eq_ignore_ascii_case(g.key()))
            .ok_or_else(|| format!("unknown gating {s:?} (expected none|clock|power)"))
    }
}

/// Accelerator activity for the energy model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CopActivity {
    /// Which accelerator.
    pub kind: CopKind,
    /// Cycles its arithmetic was computing.
    pub busy_cycles: u64,
    /// Cycles its DMA / LSU moved data.
    pub dma_cycles: u64,
    /// Scratchpad accesses (Monte's AB/T memories).
    pub scratch_accesses: u64,
    /// Idle-cycle gating strategy (§8 extension).
    pub gating: Gating,
    /// Billie register-file technology (§8 extension; ignored for
    /// Monte).
    pub sram_register_file: bool,
}

/// Event counts of one simulated run — everything the energy model needs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Activity {
    /// Total clock cycles.
    pub cycles: u64,
    /// Cycles Pete was issuing (cycles - stalls).
    pub busy_cycles: u64,
    /// Cycles Pete was stalled.
    pub stall_cycles: u64,
    /// Cycles the Hi/Lo multiplier was active.
    pub mult_active_cycles: u64,
    /// §7.8 multiplier-variant power factor (1.0 = Karatsuba).
    pub mult_variant_factor: f64,
    /// 32-bit ROM reads (instruction + data buses).
    pub rom_word_reads: u64,
    /// 128-bit ROM line reads (cache fills/prefetches).
    pub rom_line_reads: u64,
    /// RAM word reads (both ports).
    pub ram_reads: u64,
    /// RAM word writes (both ports).
    pub ram_writes: u64,
    /// Instruction cache, if configured.
    pub icache: Option<IcacheActivity>,
    /// Accelerator, if attached.
    pub cop: Option<CopActivity>,
}

impl Activity {
    /// Wall-clock time of the run, seconds.
    pub fn time_s(&self) -> f64 {
        self.cycles as f64 * CLOCK_NS * 1e-9
    }
}

/// Energy broken down by component, each split static/dynamic (J).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    entries: Vec<(Component, f64, f64)>,
    time_s: f64,
}

impl EnergyBreakdown {
    /// Total energy, µJ.
    pub fn total_uj(&self) -> f64 {
        self.entries.iter().map(|(_, d, s)| d + s).sum::<f64>() * 1e6
    }

    /// One component's energy (dynamic + static), µJ.
    pub fn component_uj(&self, c: Component) -> f64 {
        self.entries
            .iter()
            .filter(|(k, _, _)| *k == c)
            .map(|(_, d, s)| d + s)
            .sum::<f64>()
            * 1e6
    }

    /// The raw per-component entries, `(component, dynamic_j, static_j)`,
    /// in display order — the full-precision data behind
    /// [`components`](Self::components), exported to the metrics layer.
    pub fn entries(&self) -> &[(Component, f64, f64)] {
        &self.entries
    }

    /// All components with nonzero energy, µJ, in display order.
    pub fn components(&self) -> Vec<(Component, f64)> {
        self.entries
            .iter()
            .map(|(k, d, s)| (*k, (d + s) * 1e6))
            .collect()
    }

    /// Average power over the run: `(dynamic_mw, static_mw)` — the two
    /// stacks of Fig 7.10.
    pub fn power_mw(&self) -> (f64, f64) {
        let dynamic: f64 = self.entries.iter().map(|(_, d, _)| d).sum();
        let stat: f64 = self.entries.iter().map(|(_, _, s)| s).sum();
        (dynamic / self.time_s * 1e3, stat / self.time_s * 1e3)
    }

    /// Static share of total energy (§7.4: ≈8.5 %).
    pub fn static_fraction(&self) -> f64 {
        let stat: f64 = self.entries.iter().map(|(_, _, s)| s).sum();
        let total: f64 = self.entries.iter().map(|(_, d, s)| d + s).sum();
        stat / total
    }
}

/// One routine's activity, as the attribution model consumes it —
/// the cycle and counter slice a profiler accumulated for that routine
/// (or call path). Decoupled from the simulator's types so `ule-energy`
/// stays dependency-free; `ule-core` converts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutineActivity {
    /// Routine (or call-path) name; carried through to the output.
    pub name: String,
    /// Cycles attributed to the routine (exclusive).
    pub cycles: u64,
    /// Retired instructions attributed to the routine.
    pub instructions: u64,
    /// ROM word reads (uncached fetches + data reads).
    pub rom_reads: u64,
    /// ROM line reads (I-cache fills/prefetches).
    pub rom_line_reads: u64,
    /// RAM reads (Pete's port + accelerator DMA).
    pub ram_reads: u64,
    /// RAM writes (Pete's port + accelerator DMA).
    pub ram_writes: u64,
    /// Instruction-cache lookups.
    pub icache_accesses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Coprocessor multiply/square operations started.
    pub cop_mul_ops: u64,
    /// Coprocessor load/store commands executed.
    pub cop_ls_ops: u64,
}

/// One routine's attributed share of a run's energy.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutineEnergy {
    /// Routine (or call-path) name.
    pub name: String,
    /// Per-component share, µJ, in the breakdown's display order.
    pub components: Vec<(Component, f64)>,
    /// Total share, µJ. Carried explicitly (not recomputed from
    /// `components`) so the conservation fix-up can land here: summing
    /// this field over all routines reproduces
    /// [`EnergyBreakdown::total_uj`] bit-exactly.
    pub total_uj: f64,
}

/// The per-routine energy attribution of one run — the paper's
/// per-field-routine tables, derived from a single profiled simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoutineEnergyAttribution {
    /// One entry per input routine, in input order.
    pub routines: Vec<RoutineEnergy>,
}

impl RoutineEnergyAttribution {
    /// Sum of the attributed totals, µJ (bit-equal to the headline
    /// [`EnergyBreakdown::total_uj`] — the conservation invariant).
    pub fn total_uj(&self) -> f64 {
        self.routines.iter().map(|r| r.total_uj).sum()
    }

    /// The entry for `name`, if present.
    pub fn routine(&self, name: &str) -> Option<&RoutineEnergy> {
        self.routines.iter().find(|r| r.name == name)
    }
}

/// Splits `total_uj` over the routines proportionally to `weights`,
/// falling back to `fallback` (cycles) when the weights carry no
/// information, and to the first routine as a last resort.
fn split_uj(total_uj: f64, weights: &[f64], fallback: &[f64]) -> Vec<f64> {
    let mut w = weights;
    let mut sum: f64 = w.iter().sum();
    if sum <= 0.0 {
        w = fallback;
        sum = w.iter().sum();
    }
    if sum > 0.0 {
        w.iter().map(|x| total_uj * (x / sum)).collect()
    } else {
        let mut v = vec![0.0; w.len()];
        v[0] = total_uj;
        v
    }
}

impl EnergyBreakdown {
    /// Attributes this breakdown over per-routine activity slices: each
    /// component's dynamic energy is split in proportion to the counters
    /// that *drive* that component (ROM energy by pJ-weighted ROM
    /// traffic, RAM by accesses, uncore by I$ activity, accelerators by
    /// datapath + DMA operations, core logic by exclusive cycles), and
    /// every static share is split by cycles (leakage is time). A
    /// residual fix-up then pins the **conservation invariant**: the
    /// attributed totals sum bit-exactly to [`total_uj`](Self::total_uj).
    pub fn attribute(&self, routines: &[RoutineActivity]) -> RoutineEnergyAttribution {
        assert!(
            !routines.is_empty(),
            "attribute() needs at least one routine"
        );
        let cycles: Vec<f64> = routines.iter().map(|r| r.cycles as f64).collect();
        let rom_cap = 256 * 1024;
        let mut out: Vec<RoutineEnergy> = routines
            .iter()
            .map(|r| RoutineEnergy {
                name: r.name.clone(),
                components: Vec::with_capacity(self.entries.len()),
                total_uj: 0.0,
            })
            .collect();
        for &(c, d, s) in &self.entries {
            let weights: Vec<f64> = match c {
                Component::PeteCore => cycles.clone(),
                Component::Rom => routines
                    .iter()
                    .map(|r| {
                        r.rom_reads as f64 * mem::sram_access_pj(rom_cap)
                            + r.rom_line_reads as f64 * mem::sram_line_access_pj(rom_cap)
                    })
                    .collect(),
                Component::Ram => routines
                    .iter()
                    .map(|r| (r.ram_reads + r.ram_writes) as f64)
                    .collect(),
                Component::Uncore => routines
                    .iter()
                    .map(|r| (r.icache_accesses + r.icache_misses) as f64)
                    .collect(),
                Component::Monte | Component::Billie => routines
                    .iter()
                    .map(|r| (r.cop_mul_ops + r.cop_ls_ops) as f64)
                    .collect(),
            };
            let dyn_shares = split_uj(d * 1e6, &weights, &cycles);
            let stat_shares = split_uj(s * 1e6, &cycles, &cycles);
            for (i, r) in out.iter_mut().enumerate() {
                r.components.push((c, dyn_shares[i] + stat_shares[i]));
            }
        }
        for r in &mut out {
            r.total_uj = r.components.iter().map(|(_, e)| e).sum();
        }
        // Conservation fix-up: proportional splitting is exact only in
        // real arithmetic; in f64 the fold can drift by a few ulps.
        // Fold the residual into one share until the ordered sum
        // reproduces the headline total bit-exactly. Applying the full
        // residual can oscillate forever when the exact sum sits on a
        // half-ulp tie (round-half-even flips it one ulp each way), so
        // each element also tries fractional corrections — the shares
        // live at a smaller scale than the total, where sub-ulp steps
        // are exact — before the walk moves to the next element.
        let target = self.total_uj();
        let mut by_size: Vec<usize> = (0..out.len()).collect();
        by_size.sort_by(|&a, &b| out[b].total_uj.total_cmp(&out[a].total_uj));
        'fixup: for &k in by_size.iter().cycle().take(25 * by_size.len()) {
            for scale in [1.0, 0.5, 0.25, 0.125] {
                let sum: f64 = out.iter().map(|r| r.total_uj).sum();
                let diff = target - sum;
                if diff == 0.0 {
                    break 'fixup;
                }
                out[k].total_uj += diff * scale;
            }
        }
        let got = RoutineEnergyAttribution { routines: out };
        debug_assert_eq!(
            got.total_uj().to_bits(),
            target.to_bits(),
            "attribution residual fix-up did not converge"
        );
        got
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (c, d, s) in &self.entries {
            writeln!(f, "{:10} {:12.3} µJ", c.name(), (d + s) * 1e6)?;
        }
        write!(f, "{:10} {:12.3} µJ", "total", self.total_uj())
    }
}

/// Computes the energy breakdown of one run (eq. 2.7: power × time, per
/// component, split into switching and leakage per §2.3).
pub fn energy(a: &Activity) -> EnergyBreakdown {
    let mut entries = Vec::new();
    let variant = if a.mult_variant_factor == 0.0 {
        1.0
    } else {
        a.mult_variant_factor
    };
    // Pete.
    entries.push((
        Component::PeteCore,
        logic::pete_dynamic_j(a.busy_cycles, a.stall_cycles, a.mult_active_cycles, variant),
        logic::pete_static_j(a.cycles),
    ));
    // ROM (256 KB; static zero per the paper's assumption).
    let rom_cap = 256 * 1024;
    entries.push((
        Component::Rom,
        logic::events_pj_j(a.rom_word_reads, mem::sram_access_pj(rom_cap))
            + logic::events_pj_j(a.rom_line_reads, mem::sram_line_access_pj(rom_cap)),
        0.0,
    ));
    // RAM (16 KB).
    let ram_cap = 16 * 1024;
    entries.push((
        Component::Ram,
        logic::events_pj_j(a.ram_reads + a.ram_writes, mem::sram_access_pj(ram_cap)),
        logic::mw_for_cycles_j(mem::leakage_mw(ram_cap, false), a.cycles),
    ));
    // Uncore (only when a cache is configured, §5.3.2).
    if let Some(ic) = a.icache {
        entries.push((
            Component::Uncore,
            logic::events_pj_j(ic.accesses, mem::sram_access_pj(ic.size_bytes))
                + logic::events_pj_j(ic.fills, mem::sram_line_access_pj(ic.size_bytes))
                + logic::mw_for_cycles_j(UNCORE_DYN_MW, a.cycles),
            logic::mw_for_cycles_j(
                mem::leakage_mw(ic.size_bytes, false) + UNCORE_STATIC_MW,
                a.cycles,
            ),
        ));
    }
    // Accelerator.
    if let Some(cop) = a.cop {
        let idle = a.cycles.saturating_sub(cop.busy_cycles);
        // Gating (§8 extension): clock gating removes idle dynamic power;
        // power gating additionally removes leakage while idle.
        let idle_dyn_on = cop.gating == Gating::None;
        let static_cycles = match cop.gating {
            Gating::Power => cop.busy_cycles + cop.dma_cycles,
            _ => a.cycles,
        };
        match cop.kind {
            CopKind::Monte => entries.push((
                Component::Monte,
                logic::events_pj_j(cop.busy_cycles, MONTE_BUSY_PJ_PER_CYCLE)
                    + if idle_dyn_on {
                        logic::events_pj_j(idle, MONTE_IDLE_PJ_PER_CYCLE)
                    } else {
                        0.0
                    }
                    + logic::events_pj_j(cop.dma_cycles, MONTE_DMA_PJ_PER_WORD)
                    + logic::events_pj_j(cop.scratch_accesses, MONTE_SCRATCH_PJ),
                logic::mw_for_cycles_j(MONTE_STATIC_MW, static_cycles),
            )),
            CopKind::Billie { m } => {
                let (dyn_f, stat_f) = if cop.sram_register_file {
                    (BILLIE_SRAM_RF_DYN_FACTOR, BILLIE_SRAM_RF_STATIC_FACTOR)
                } else {
                    (1.0, 1.0)
                };
                entries.push((
                    Component::Billie,
                    dyn_f
                        * (logic::mw_for_cycles_j(
                            billie_dyn_active_mw(m),
                            cop.busy_cycles + cop.dma_cycles,
                        ) + if idle_dyn_on {
                            logic::mw_for_cycles_j(
                                billie_dyn_idle_mw(m),
                                idle.saturating_sub(cop.dma_cycles),
                            )
                        } else {
                            0.0
                        }),
                    stat_f * logic::mw_for_cycles_j(billie_static_mw(m), static_cycles),
                ))
            }
        }
    }
    EnergyBreakdown {
        entries,
        time_s: a.time_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_like(cycles: u64) -> Activity {
        Activity {
            cycles,
            busy_cycles: cycles * 9 / 10,
            stall_cycles: cycles / 10,
            mult_active_cycles: cycles / 5,
            mult_variant_factor: 1.0,
            rom_word_reads: cycles * 95 / 100,
            rom_line_reads: 0,
            ram_reads: cycles / 5,
            ram_writes: cycles / 10,
            icache: None,
            cop: None,
        }
    }

    #[test]
    fn rom_dominates_the_baseline() {
        // §7.1: "a significant portion of the energy consumed by the
        // baseline ... is spent in the ROM".
        let e = energy(&baseline_like(1_000_000));
        assert!(e.component_uj(Component::Rom) > e.component_uj(Component::Ram));
        assert!(e.component_uj(Component::Rom) > 0.5 * e.component_uj(Component::PeteCore));
    }

    #[test]
    fn static_fraction_is_small() {
        // §7.4: static ≈ 8.5 % of the total.
        let e = energy(&baseline_like(1_000_000));
        assert!(e.static_fraction() < 0.15, "{}", e.static_fraction());
        assert!(e.static_fraction() > 0.01);
    }

    #[test]
    fn cache_trades_rom_for_uncore() {
        // Fig 7.2: the 4 KB I$ configuration trades ROM energy for
        // uncore energy and wins overall.
        let base = energy(&baseline_like(1_000_000));
        let mut cached = baseline_like(950_000);
        cached.rom_word_reads = 50_000; // data-side only
        cached.rom_line_reads = 3_000;
        cached.icache = Some(IcacheActivity {
            size_bytes: 4 * 1024,
            accesses: 900_000,
            fills: 3_000,
        });
        let e = energy(&cached);
        assert!(e.component_uj(Component::Rom) < base.component_uj(Component::Rom) / 4.0);
        assert!(e.component_uj(Component::Uncore) > 0.0);
        assert!(e.total_uj() < base.total_uj());
    }

    #[test]
    fn power_split_adds_up() {
        let a = baseline_like(2_000_000);
        let e = energy(&a);
        let (dyn_mw, stat_mw) = e.power_mw();
        let total_check = (dyn_mw + stat_mw) * 1e-3 * a.time_s() * 1e6;
        assert!((total_check - e.total_uj()).abs() / e.total_uj() < 1e-9);
    }

    #[test]
    fn billie_power_exceeds_monte_power() {
        // Fig 7.10: the Billie systems consume the most power.
        let mut with_monte = baseline_like(1_000_000);
        with_monte.cop = Some(CopActivity {
            kind: CopKind::Monte,
            busy_cycles: 600_000,
            dma_cycles: 100_000,
            scratch_accesses: 2_000_000,
            gating: Gating::None,
            sram_register_file: false,
        });
        let mut with_billie = baseline_like(1_000_000);
        with_billie.cop = Some(CopActivity {
            kind: CopKind::Billie { m: 163 },
            busy_cycles: 380_000,
            dma_cycles: 20_000,
            scratch_accesses: 0,
            gating: Gating::None,
            sram_register_file: false,
        });
        let em = energy(&with_monte);
        let eb = energy(&with_billie);
        assert!(
            eb.component_uj(Component::Billie) > em.component_uj(Component::Monte),
            "billie {} vs monte {}",
            eb.component_uj(Component::Billie),
            em.component_uj(Component::Monte)
        );
    }

    #[test]
    fn gating_reduces_idle_accelerator_energy() {
        // §8 extension: clock gating kills idle dynamic power, power
        // gating also kills idle leakage.
        let mut a = baseline_like(1_000_000);
        let mk = |gating| CopActivity {
            kind: CopKind::Billie { m: 571 },
            busy_cycles: 300_000,
            dma_cycles: 10_000,
            scratch_accesses: 0,
            gating,
            sram_register_file: false,
        };
        a.cop = Some(mk(Gating::None));
        let none = energy(&a).component_uj(Component::Billie);
        a.cop = Some(mk(Gating::Clock));
        let clock = energy(&a).component_uj(Component::Billie);
        a.cop = Some(mk(Gating::Power));
        let power = energy(&a).component_uj(Component::Billie);
        assert!(clock < none);
        assert!(power < clock);
    }

    #[test]
    fn sram_register_file_halves_billie_energy() {
        // §8 extension: the SRAM register file recovers a large share of
        // the "over half of Billie's energy" spent in flip-flops.
        let mut a = baseline_like(1_000_000);
        let mk = |sram| CopActivity {
            kind: CopKind::Billie { m: 163 },
            busy_cycles: 400_000,
            dma_cycles: 10_000,
            scratch_accesses: 0,
            gating: Gating::None,
            sram_register_file: sram,
        };
        a.cop = Some(mk(false));
        let ff = energy(&a).component_uj(Component::Billie);
        a.cop = Some(mk(true));
        let sram = energy(&a).component_uj(Component::Billie);
        assert!(sram < 0.6 * ff, "sram {sram} vs flip-flop {ff}");
    }

    fn routine(name: &str, cycles: u64, rom: u64, ram: u64) -> RoutineActivity {
        RoutineActivity {
            name: name.to_owned(),
            cycles,
            instructions: cycles,
            rom_reads: rom,
            ram_reads: ram,
            ..Default::default()
        }
    }

    #[test]
    fn attribution_conserves_total_exactly() {
        // The invariant, on an awkward three-way split (1/3 shares
        // guarantee rounding residue): attributed totals sum bit-exactly
        // to the headline total.
        let e = energy(&baseline_like(1_000_003));
        let rs = vec![
            routine("fmul", 333_334, 100_001, 7_919),
            routine("fred", 333_336, 200_003, 104_729),
            routine("other", 333_333, 650_000, 187_355),
        ];
        let att = e.attribute(&rs);
        assert_eq!(att.total_uj().to_bits(), e.total_uj().to_bits());
        assert_eq!(att.routines.len(), 3);
        // Per-component conservation holds to f64 fold precision.
        for (i, &(c, _, _)) in e.entries().iter().enumerate() {
            let sum: f64 = att.routines.iter().map(|r| r.components[i].1).sum();
            let want = e.component_uj(c);
            assert!(
                (sum - want).abs() <= 1e-9 * want.max(1.0),
                "{c:?}: {sum} vs {want}"
            );
        }
    }

    #[test]
    fn attribution_follows_the_driving_counters() {
        let e = energy(&baseline_like(1_000_000));
        // Same cycles, but `hot` does all the RAM traffic.
        let rs = vec![
            routine("hot", 500_000, 475_000, 300_000),
            routine("cold", 500_000, 475_000, 0),
        ];
        let att = e.attribute(&rs);
        let hot_ram = att.routines[0]
            .components
            .iter()
            .find(|(c, _)| *c == Component::Ram)
            .unwrap()
            .1;
        let cold_ram = att.routines[1]
            .components
            .iter()
            .find(|(c, _)| *c == Component::Ram)
            .unwrap()
            .1;
        assert!(hot_ram > cold_ram * 2.0, "hot {hot_ram} cold {cold_ram}");
        // Core logic splits by cycles: equal here (static RAM leakage
        // also splits by cycles, so `cold` still gets a RAM share).
        let hot_core = att.routines[0].components[0].1;
        let cold_core = att.routines[1].components[0].1;
        assert!((hot_core - cold_core).abs() < 1e-12 * hot_core);
        assert!(cold_ram > 0.0);
    }

    #[test]
    fn attribution_zero_weight_falls_back_to_cycles() {
        // A Monte system where the per-routine cop counters are all
        // zero (e.g. the slice predates the accelerator): Monte energy
        // falls back to a cycle-proportional split instead of vanishing.
        let mut a = baseline_like(1_000_000);
        a.cop = Some(CopActivity {
            kind: CopKind::Monte,
            busy_cycles: 400_000,
            dma_cycles: 50_000,
            scratch_accesses: 1_200_000,
            gating: Gating::None,
            sram_register_file: false,
        });
        let e = energy(&a);
        let rs = vec![
            routine("a", 750_000, 500_000, 100_000),
            routine("b", 250_000, 450_000, 200_000),
        ];
        let att = e.attribute(&rs);
        assert_eq!(att.total_uj().to_bits(), e.total_uj().to_bits());
        let monte_a = att
            .routine("a")
            .unwrap()
            .components
            .iter()
            .find(|(c, _)| *c == Component::Monte)
            .unwrap()
            .1;
        let monte_b = att
            .routine("b")
            .unwrap()
            .components
            .iter()
            .find(|(c, _)| *c == Component::Monte)
            .unwrap()
            .1;
        assert!(monte_a > 2.0 * monte_b, "{monte_a} vs {monte_b}");
    }

    #[test]
    fn attribution_single_routine_gets_everything() {
        let e = energy(&baseline_like(123_457));
        let att = e.attribute(&[routine("all", 123_457, 117_284, 37_036)]);
        assert_eq!(att.total_uj().to_bits(), e.total_uj().to_bits());
        assert_eq!(att.routines[0].name, "all");
    }

    #[test]
    fn display_lists_components() {
        let e = energy(&baseline_like(10_000));
        let s = e.to_string();
        assert!(s.contains("ROM"));
        assert!(s.contains("total"));
    }
}
