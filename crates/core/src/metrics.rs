//! Flattening [`RunReport`]s into versioned metrics records.
//!
//! [`design_point_record`] turns one `(config, workload, report)` into
//! one flat [`Record`] — the JSONL line behind `repro --metrics-out`.
//! Every counter struct the simulator produces is destructured
//! **exhaustively** (no `..` patterns): adding a field to
//! `pete::Counters`, `MemStats`, `CacheStats`, or `CopStats` without
//! exporting it here is a compile error, not a silently-dropped
//! counter. The exact key set is pinned by the golden-file test in
//! `ule-bench`.
//!
//! The design-point identity codec lives here and nowhere else:
//! [`push_identity`] writes a point's [`IDENTITY_KEYS`],
//! [`identity_of`] reads its identity string back from a parsed line,
//! and [`config_from_record`] rebuilds the config from it.
//! [`read_design_point`] is the one reader of a `design_point` line's
//! join fields (identity, `cycles`, `energy_uj`), shared by `repro
//! diff` and the explorer's journal.

use crate::{RawStats, RunReport, SystemConfig, Workload};
use ule_energy::report::{Component, EnergyBreakdown, RoutineActivity};
use ule_obs::json::{Json, JsonBuf};
use ule_obs::record::Record;
use ule_pete::cop::CopStats;
use ule_pete::cpu::Counters;
use ule_pete::icache::CacheStats;
use ule_pete::mem::MemStats;
use ule_pete::profile::RoutineProfile;

/// The record keys that identify a design point. Two records with
/// equal values for all of these describe the same configuration ×
/// workload; `repro diff` joins on them, and the explorer's journal
/// resume matches persisted points against the lattice with them.
pub const IDENTITY_KEYS: [&str; 15] = [
    "curve",
    "arch",
    "workload",
    "icache_present",
    "icache_size_bytes",
    "icache_prefetch",
    "icache_ideal",
    "icache_miss_penalty",
    "monte_double_buffer",
    "monte_forwarding",
    "monte_queue_depth",
    "billie_digit",
    "mult_variant",
    "gating",
    "billie_sram_rf",
];

/// The canonical identity string of one design point: every
/// [`IDENTITY_KEYS`] entry as `key=value|`, in key order. It is built
/// by reading back the keys [`push_identity`] writes, so an identity
/// from a live config and one [`identity_of`] a journal or metrics line
/// compare equal byte-for-byte.
pub fn config_identity(config: &SystemConfig, workload: Workload) -> String {
    let mut r = Record::new("design_point");
    push_identity(&mut r, config, workload);
    let doc = ule_obs::json::parse(&r.to_json()).expect("a record is valid JSON");
    identity_of(&doc).expect("push_identity writes every identity key")
}

/// Pushes the [`IDENTITY_KEYS`] of one design point onto a record, in
/// key order: the one writer of a point's identity, shared by
/// `design_point` records and the explorer's `frontier` records.
pub fn push_identity(r: &mut Record, config: &SystemConfig, workload: Workload) {
    // Exhaustive: a new config knob must be exported.
    let SystemConfig {
        curve,
        arch,
        icache,
        monte,
        billie_digit,
        mult_variant,
        gating,
        billie_sram_rf,
    } = *config;
    r.push("curve", curve.key());
    r.push("arch", arch.key());
    r.push("workload", workload.key());
    r.push("icache_present", icache.is_some());
    r.push(
        "icache_size_bytes",
        icache.map(|c| c.size_bytes as u64).unwrap_or(0),
    );
    r.push(
        "icache_prefetch",
        icache.map(|c| c.prefetch).unwrap_or(false),
    );
    r.push("icache_ideal", icache.map(|c| c.ideal).unwrap_or(false));
    r.push(
        "icache_miss_penalty",
        icache.map(|c| c.miss_penalty as u64).unwrap_or(0),
    );
    r.push("monte_double_buffer", monte.double_buffer);
    r.push("monte_forwarding", monte.forwarding);
    r.push("monte_queue_depth", monte.queue_depth as u64);
    r.push("billie_digit", billie_digit as u64);
    r.push("mult_variant", mult_variant.key());
    r.push("gating", gating.key());
    r.push("billie_sram_rf", billie_sram_rf);
}

/// The identity string of a parsed record (see [`config_identity`]):
/// the join key of `repro diff` and of the explorer's journal resume.
/// Errors name the first identity key that is missing or not a
/// boolean, integer or string.
pub fn identity_of(doc: &Json) -> Result<String, String> {
    let mut s = String::new();
    for key in IDENTITY_KEYS {
        let value = match doc.get(key) {
            Some(Json::Bool(b)) => b.to_string(),
            Some(Json::U64(n)) => n.to_string(),
            Some(Json::Str(t)) => t.clone(),
            Some(_) => return Err(format!("identity key {key:?} is not a scalar")),
            None => return Err(format!("missing {key:?}")),
        };
        s.push_str(key);
        s.push('=');
        s.push_str(&value);
        s.push('|');
    }
    Ok(s)
}

/// Reconstructs the configuration and workload a record's identity
/// keys describe: the inverse of [`push_identity`]. Names are read with
/// the same `FromStr` as the CLI, so any accepted spelling parses.
pub fn config_from_record(doc: &Json) -> Result<(SystemConfig, Workload), String> {
    let ctx = "record";
    let mut config = SystemConfig::new(
        doc.req_str(ctx, "curve")?.parse()?,
        doc.req_str(ctx, "arch")?.parse()?,
    );
    config.icache = if doc.req_bool(ctx, "icache_present")? {
        Some(ule_pete::icache::CacheConfig {
            size_bytes: doc.req_u64(ctx, "icache_size_bytes")? as u32,
            prefetch: doc.req_bool(ctx, "icache_prefetch")?,
            ideal: doc.req_bool(ctx, "icache_ideal")?,
            miss_penalty: doc.req_u64(ctx, "icache_miss_penalty")? as u32,
        })
    } else {
        None
    };
    config.monte = ule_monte::MonteConfig {
        double_buffer: doc.req_bool(ctx, "monte_double_buffer")?,
        forwarding: doc.req_bool(ctx, "monte_forwarding")?,
        queue_depth: doc.req_u64(ctx, "monte_queue_depth")? as usize,
    };
    config.billie_digit = doc.req_u64(ctx, "billie_digit")? as usize;
    config.mult_variant = doc.req_str(ctx, "mult_variant")?.parse()?;
    config.gating = doc.req_str(ctx, "gating")?.parse()?;
    config.billie_sram_rf = doc.req_bool(ctx, "billie_sram_rf")?;
    Ok((config, doc.req_str(ctx, "workload")?.parse()?))
}

/// The join fields of one `design_point` record: what `repro diff`
/// compares and what the explorer's journal resume recovers.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// The point's identity string (see [`config_identity`]).
    pub identity: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Total energy, µJ (bit-exact: the JSON writer uses shortest-
    /// round-trip formatting).
    pub energy_uj: f64,
}

/// Reads the [`DesignPoint`] fields of a parsed `design_point` record;
/// errors are prefixed by `ctx` (`"line 3 (design_point)"`).
pub fn read_design_point(doc: &Json, ctx: &str) -> Result<DesignPoint, String> {
    Ok(DesignPoint {
        identity: identity_of(doc).map_err(|e| format!("{ctx}: identity: {e}"))?,
        cycles: doc.req_u64(ctx, "cycles")?,
        energy_uj: doc.req_f64(ctx, "energy_uj")?,
    })
}

/// Flattens one design point (config + workload + simulation report)
/// into a `design_point` record — one JSONL line of `--metrics-out`.
pub fn design_point_record(
    config: &SystemConfig,
    workload: Workload,
    report: &RunReport,
) -> Record {
    let mut r = Record::new("design_point");

    push_identity(&mut r, config, workload);

    // Headline results (area is a pure function of the config — the
    // third objective of the `ule-dse` Pareto frontiers).
    r.push("cycles", report.cycles);
    r.push("time_ms", report.time_ms());
    r.push("energy_uj", report.energy_uj());
    r.push("area_kge", crate::space::area_kge(config));

    // Pipeline counters. Exhaustive.
    let Counters {
        instructions,
        cycles: counter_cycles,
        stall_cycles,
        load_use_stalls,
        branches,
        mispredicts,
        mult_active_cycles,
        mult_stalls,
        mult_ops,
        div_ops,
        cop2_ops,
        cop2_stalls,
        fetches,
    } = report.counters;
    r.push("pete_instructions", instructions);
    r.push("pete_cycles", counter_cycles);
    r.push("pete_stall_cycles", stall_cycles);
    r.push("pete_load_use_stalls", load_use_stalls);
    r.push("pete_branches", branches);
    r.push("pete_mispredicts", mispredicts);
    r.push("pete_mult_active_cycles", mult_active_cycles);
    r.push("pete_mult_stalls", mult_stalls);
    r.push("pete_mult_ops", mult_ops);
    r.push("pete_div_ops", div_ops);
    r.push("pete_cop2_ops", cop2_ops);
    r.push("pete_cop2_stalls", cop2_stalls);
    r.push("pete_fetches", fetches);

    // Memory, cache, and accelerator stats. Exhaustive.
    let RawStats {
        rom,
        ram,
        icache: icache_stats,
        cop,
    } = report.raw;
    let MemStats {
        reads: rom_reads,
        writes: rom_writes,
        line_reads: rom_line_reads,
    } = rom;
    r.push("rom_reads", rom_reads);
    r.push("rom_writes", rom_writes);
    r.push("rom_line_reads", rom_line_reads);
    let MemStats {
        reads: ram_reads,
        writes: ram_writes,
        line_reads: ram_line_reads,
    } = ram;
    r.push("ram_reads", ram_reads);
    r.push("ram_writes", ram_writes);
    r.push("ram_line_reads", ram_line_reads);
    let CacheStats {
        accesses,
        misses,
        prefetch_hits,
        rom_line_reads: icache_rom_line_reads,
        fills,
        stall_cycles: icache_stall_cycles,
    } = icache_stats.unwrap_or_default();
    r.push("icache_accesses", accesses);
    r.push("icache_misses", misses);
    r.push("icache_prefetch_hits", prefetch_hits);
    r.push("icache_rom_line_reads", icache_rom_line_reads);
    r.push("icache_fills", fills);
    r.push("icache_stall_cycles", icache_stall_cycles);
    let CopStats {
        busy_cycles,
        dma_cycles,
        instructions: cop_instructions,
        ram_reads: cop_ram_reads,
        ram_writes: cop_ram_writes,
        ucode_reads,
        mul_ops: cop_mul_ops,
        ls_ops,
    } = cop;
    r.push("cop_busy_cycles", busy_cycles);
    r.push("cop_dma_cycles", dma_cycles);
    r.push("cop_instructions", cop_instructions);
    r.push("cop_ram_reads", cop_ram_reads);
    r.push("cop_ram_writes", cop_ram_writes);
    r.push("cop_ucode_reads", ucode_reads);
    r.push("cop_mul_ops", cop_mul_ops);
    r.push("cop_ls_ops", ls_ops);

    // Per-component energy, every component always present (zero when
    // the component is absent from this configuration).
    for c in [
        Component::PeteCore,
        Component::Rom,
        Component::Ram,
        Component::Uncore,
        Component::Monte,
        Component::Billie,
    ] {
        r.push(
            &format!("energy_{}_uj", c.key()),
            report.energy.component_uj(c),
        );
    }
    r.push("energy_static_fraction", report.energy.static_fraction());

    // Per-routine cycle profile (present only on profiled runs, as a
    // nested array — the one non-flat field, pinned separately).
    if let Some(p) = &report.profile {
        r.push(
            "profile",
            ule_obs::Value::Raw(profile_json(p, &report.energy)),
        );
    }
    r
}

/// Serializes a routine profile as a JSON array of bucket objects:
/// one per routine in reporting order (cycles descending, then name),
/// carrying the activity counters and the attributed energy (schema
/// v2). The `energy_uj` fields sum bit-exactly to the headline
/// `energy_uj` of the enclosing record.
pub fn profile_json(p: &RoutineProfile, energy: &EnergyBreakdown) -> String {
    let acts = crate::attr::routine_activities(p);
    let att = energy.attribute(&acts);
    let mut b = JsonBuf::new();
    b.begin_array();
    for (a, e) in acts.iter().zip(&att.routines) {
        // Exhaustive: every activity counter is exported.
        let RoutineActivity {
            name,
            cycles,
            instructions,
            rom_reads,
            rom_line_reads,
            ram_reads,
            ram_writes,
            icache_accesses,
            icache_misses,
            cop_mul_ops,
            cop_ls_ops,
        } = a;
        b.begin_object();
        b.key("name").value_str(name);
        b.key("instructions").value_u64(*instructions);
        b.key("cycles").value_u64(*cycles);
        b.key("rom_reads").value_u64(*rom_reads);
        b.key("rom_line_reads").value_u64(*rom_line_reads);
        b.key("ram_reads").value_u64(*ram_reads);
        b.key("ram_writes").value_u64(*ram_writes);
        b.key("icache_accesses").value_u64(*icache_accesses);
        b.key("icache_misses").value_u64(*icache_misses);
        b.key("cop_mul_ops").value_u64(*cop_mul_ops);
        b.key("cop_ls_ops").value_u64(*cop_ls_ops);
        b.key("energy_uj").value_f64(e.total_uj);
        b.end_object();
    }
    b.end_array();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, System, Workload};
    use ule_curves::params::CurveId;
    use ule_obs::json::is_valid;
    use ule_swlib::builder::Arch;

    #[test]
    fn design_point_record_is_flat_valid_json() {
        let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline);
        let report = System::new(cfg).run_with(RunOptions::new(Workload::FieldMul));
        let rec = design_point_record(&cfg, Workload::FieldMul, &report);
        let line = rec.to_json();
        assert!(is_valid(&line), "{line}");
        assert_eq!(rec.get("curve"), Some(&ule_obs::Value::Str("P-192".into())));
        assert_eq!(rec.get("cycles"), Some(&ule_obs::Value::U64(report.cycles)));
        // Non-profiled run: no profile field.
        assert!(rec.get("profile").is_none());
    }

    #[test]
    fn config_identity_matches_serialized_record_round_trip() {
        // The identity built from the live config must equal the one a
        // journal/diff reader reconstructs from the serialized record.
        let cfg = SystemConfig::new(CurveId::K163, Arch::Billie)
            .with_billie_digit(5)
            .with_billie_sram_rf(true);
        let report = System::new(cfg).run_with(RunOptions::new(Workload::ScalarMul));
        let rec = design_point_record(&cfg, Workload::ScalarMul, &report);
        let doc = ule_obs::json::parse(&rec.to_json()).unwrap();
        assert_eq!(
            identity_of(&doc),
            Ok(config_identity(&cfg, Workload::ScalarMul))
        );
        assert_eq!(config_from_record(&doc), Ok((cfg, Workload::ScalarMul)));
    }

    #[test]
    fn every_name_round_trips_through_its_schema_key() {
        use ule_energy::report::Gating;
        use ule_pete::cpu::EngineTier;
        fn check<T>(all: &[T], key: fn(T) -> &'static str, pinned: &[&str])
        where
            T: Copy + PartialEq + std::fmt::Debug + std::str::FromStr<Err = String>,
        {
            assert_eq!(all.len(), pinned.len());
            for (&v, &want) in all.iter().zip(pinned) {
                assert_eq!(key(v), want);
                assert_eq!(want.parse(), Ok(v));
                assert_eq!(want.to_uppercase().replace('_', "-").parse(), Ok(v));
            }
            assert!("no-such-name".parse::<T>().is_err());
        }
        check(
            &Arch::ALL,
            Arch::key,
            &["baseline", "isa_ext", "monte", "billie"],
        );
        check(
            &Workload::ALL,
            Workload::key,
            &[
                "sign",
                "verify",
                "sign_verify",
                "scalar_mul",
                "field_mul",
                "xdh",
                "handshake",
            ],
        );
        check(
            &crate::MultVariant::ALL,
            crate::MultVariant::key,
            &["karatsuba", "operand_scan", "parallel"],
        );
        check(&Gating::ALL, Gating::key, &["none", "clock", "power"]);
        check(
            &[EngineTier::Fast, EngineTier::Reference],
            EngineTier::key,
            &["fast", "reference"],
        );
        assert_eq!("ref".parse(), Ok(EngineTier::Reference));
        let curves: Vec<CurveId> = CurveId::ALL.into_iter().chain(CurveId::XCURVES).collect();
        let keys: Vec<&str> = curves.iter().map(|c| c.name()).collect();
        check(&curves, CurveId::key, &keys);
    }

    #[test]
    fn profiled_record_profile_is_sorted_and_energy_conserving() {
        let cfg = SystemConfig::new(CurveId::P192, Arch::IsaExt);
        let report = System::new(cfg).run_with(RunOptions::new(Workload::FieldMul).profiled());
        let rec = design_point_record(&cfg, Workload::FieldMul, &report);
        let line = rec.to_json();
        assert!(is_valid(&line), "{line}");
        let doc = ule_obs::json::parse(&line).unwrap();
        let prof = doc.get("profile").unwrap().as_array().unwrap();
        assert!(!prof.is_empty());
        // Sorted: cycles descending, then name ascending.
        let keys: Vec<(u64, String)> = prof
            .iter()
            .map(|e| {
                (
                    e.get("cycles").unwrap().as_u64().unwrap(),
                    e.get("name").unwrap().as_str().unwrap().to_owned(),
                )
            })
            .collect();
        for w in keys.windows(2) {
            assert!(
                w[1].0 < w[0].0 || (w[1].0 == w[0].0 && w[1].1 > w[0].1),
                "not sorted: {w:?}"
            );
        }
        // Attributed energy sums to the headline total (parse-level
        // check; the bit-exact invariant is tested in ule-energy).
        let total: f64 = prof
            .iter()
            .map(|e| e.get("energy_uj").unwrap().as_f64().unwrap())
            .sum();
        let headline = doc.get("energy_uj").unwrap().as_f64().unwrap();
        assert!(
            (total - headline).abs() <= 1e-9 * headline.abs(),
            "{total} vs {headline}"
        );
        // Counters conserve: per-routine cycles sum to the headline.
        let cyc: u64 = keys.iter().map(|(c, _)| c).sum();
        assert_eq!(cyc, report.cycles);
    }
}
