//! Built-in exploration spaces and the JSON space-file format.
//!
//! Built-ins cover the paper's own sweep axes so the explorer can be
//! exercised without writing a space file:
//!
//! * `billie-digit` — the Fig 7.14 axis: K-163 scalar multiplication on
//!   Billie across every digit width, crossed with the §7.8 multiplier
//!   variants (which greedy prunes analytically);
//! * `monte-gating` — P-192 Monte front-end ablations (§7.7) crossed
//!   with the idle-gating strategies;
//! * `handshake` — the RFC 7748 ladder curves (X25519/X448) running the
//!   DTLS-style ECDHE + ECDSA handshake workload on every prime-field
//!   architecture, so ladder design points land on the same frontier as
//!   the ECDSA studies;
//! * `smoke` — a seconds-fast CI space over the baseline/ISA-ext cores.
//!
//! A space file is a JSON object with `name`, `workload`, and an
//! optional array per axis (see [`parse_space_file`]); omitted axes
//! keep the single-point default of [`SpaceSpec::new`].

use std::str::FromStr;
use ule_core::space::{Axis, SpaceSpec};
use ule_core::{MultVariant, Workload};
use ule_curves::params::CurveId;
use ule_energy::report::Gating;
use ule_monte::MonteConfig;
use ule_obs::json::{self, Json};
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

/// Names of the built-in spaces, in presentation order.
pub const BUILTIN_NAMES: [&str; 4] = ["billie-digit", "monte-gating", "handshake", "smoke"];

/// Looks up a built-in space by name.
pub fn builtin(name: &str) -> Option<SpaceSpec> {
    // Prunable axes are declared best-candidate-first on purpose:
    // greedy pruning can only discard a point in favour of an
    // *earlier*-indexed sibling.
    match name {
        "billie-digit" => Some(
            SpaceSpec::new("billie-digit", Workload::ScalarMul)
                .axis(Axis::Curves(vec![CurveId::K163]))
                .axis(Axis::Archs(vec![Arch::Billie]))
                .axis(Axis::BillieDigits((1..=16).collect()))
                .axis(Axis::MultVariants(MultVariant::ALL.to_vec())),
        ),
        "monte-gating" => Some(
            SpaceSpec::new("monte-gating", Workload::ScalarMul)
                .axis(Axis::Curves(vec![CurveId::P192]))
                .axis(Axis::Archs(vec![Arch::Monte]))
                .axis(Axis::Montes(vec![
                    MonteConfig::default(),
                    MonteConfig {
                        double_buffer: false,
                        ..MonteConfig::default()
                    },
                    MonteConfig {
                        forwarding: false,
                        ..MonteConfig::default()
                    },
                ]))
                .axis(Axis::Gatings(vec![
                    Gating::Clock,
                    Gating::None,
                    Gating::Power,
                ])),
        ),
        "handshake" => Some(
            SpaceSpec::new("handshake", Workload::Handshake)
                .axis(Axis::Curves(vec![CurveId::X25519, CurveId::X448]))
                .axis(Axis::Archs(vec![Arch::Baseline, Arch::IsaExt, Arch::Monte]))
                .axis(Axis::Gatings(vec![Gating::Clock, Gating::None])),
        ),
        "smoke" => Some(
            SpaceSpec::new("smoke", Workload::FieldMul)
                .axis(Axis::Curves(vec![CurveId::P192]))
                .axis(Axis::Archs(vec![Arch::Baseline, Arch::IsaExt]))
                .axis(Axis::Icaches(vec![None, Some(CacheConfig::best())]))
                .axis(Axis::MultVariants(MultVariant::ALL.to_vec())),
        ),
        _ => None,
    }
}

/// The optional array `key` of a space file, every entry read by
/// `item`.
fn array<T>(
    doc: &Json,
    key: &str,
    item: impl Fn(&Json) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let arr = v
        .as_array()
        .ok_or_else(|| format!("space file: {key:?} must be an array"))?;
    arr.iter()
        .map(|e| item(e).map_err(|err| format!("space file: {key:?}: {err}")))
        .collect::<Result<_, _>>()
        .map(Some)
}

/// A name entry, in any spelling its `FromStr` accepts.
fn name<T: FromStr<Err = String>>(e: &Json) -> Result<T, String> {
    e.as_str().ok_or("entries must be strings")?.parse()
}

/// Parses a JSON space file. Supported keys: `name` (string, required),
/// `workload` (string, required), and per-axis arrays `curves`,
/// `archs`, `billie_digits`, `mult_variants`, `gatings`,
/// `billie_sram_rf`, `icaches` (entries `null` or
/// `{"size_bytes": …, "prefetch": …}` with optional `ideal`/
/// `miss_penalty`), and `montes` (entries `{"double_buffer": …,
/// "forwarding": …, "queue_depth": …}`). Omitted axes keep the
/// defaults of [`SpaceSpec::new`]. Names are the metrics-schema keys
/// (`"billie"`, `"operand_scan"`, `"clock"`, `"P-192"`, …) in any
/// spelling the CLI accepts (`"P192"`, `"isa-ext"`, …).
pub fn parse_space_file(text: &str) -> Result<SpaceSpec, String> {
    let doc = json::parse(text).ok_or("space file: not valid JSON")?;
    let mut space = SpaceSpec::new(
        doc.req_str("space file", "name")?,
        doc.req_str("space file", "workload")?
            .parse()
            .map_err(|e| format!("space file: {e}"))?,
    );
    if let Some(v) = array(&doc, "curves", name)? {
        space = space.axis(Axis::Curves(v));
    }
    if let Some(v) = array(&doc, "archs", name)? {
        space = space.axis(Axis::Archs(v));
    }
    if let Some(v) = array(&doc, "mult_variants", name)? {
        space = space.axis(Axis::MultVariants(v));
    }
    if let Some(v) = array(&doc, "gatings", name)? {
        space = space.axis(Axis::Gatings(v));
    }
    let digit = |e: &Json| {
        e.as_u64()
            .map(|d| d as usize)
            .ok_or_else(|| "entries must be integers".to_owned())
    };
    if let Some(v) = array(&doc, "billie_digits", digit)? {
        space = space.axis(Axis::BillieDigits(v));
    }
    let flag = |e: &Json| {
        e.as_bool()
            .ok_or_else(|| "entries must be booleans".to_owned())
    };
    if let Some(v) = array(&doc, "billie_sram_rf", flag)? {
        space = space.axis(Axis::BillieSramRf(v));
    }
    let icache = |e: &Json| {
        if matches!(e, Json::Null) {
            return Ok(None);
        }
        let prefetch = e.req_bool("icache entry", "prefetch")?;
        let mut c = CacheConfig::real(e.req_u64("icache entry", "size_bytes")? as u32, prefetch);
        if let Some(ideal) = e.get("ideal").and_then(|v| v.as_bool()) {
            c.ideal = ideal;
        }
        if let Some(p) = e.get("miss_penalty").and_then(|v| v.as_u64()) {
            c.miss_penalty = p as u32;
        }
        Ok(Some(c))
    };
    if let Some(v) = array(&doc, "icaches", icache)? {
        space = space.axis(Axis::Icaches(v));
    }
    let monte = |e: &Json| {
        Ok(MonteConfig {
            double_buffer: e.req_bool("monte entry", "double_buffer")?,
            forwarding: e.req_bool("monte entry", "forwarding")?,
            queue_depth: e.req_u64("monte entry", "queue_depth")? as usize,
        })
    };
    if let Some(v) = array(&doc, "montes", monte)? {
        space = space.axis(Axis::Montes(v));
    }
    space.validate().map_err(|e| format!("space file: {e}"))?;
    Ok(space)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_enumerate() {
        // Identity codec round trip on every built-in lattice point. The
        // identity keys do not depend on the report, so one cheap
        // simulation serves every record.
        use ule_core::metrics::{config_from_record, config_identity, design_point_record};
        let cfg = ule_core::SystemConfig::new(CurveId::P192, Arch::Baseline);
        let report =
            ule_core::System::new(cfg).run_with(ule_core::RunOptions::new(Workload::FieldMul));
        for name in BUILTIN_NAMES {
            let space = builtin(name).unwrap();
            let lattice = space.enumerate().unwrap();
            assert!(!lattice.is_empty(), "{name}");
            for config in lattice {
                let rec = design_point_record(&config, space.workload, &report);
                let doc = json::parse(&rec.to_json()).unwrap();
                assert_eq!(config_from_record(&doc), Ok((config, space.workload)));
                assert_eq!(
                    ule_core::metrics::identity_of(&doc),
                    Ok(config_identity(&config, space.workload))
                );
            }
        }
        assert!(builtin("no-such-space").is_none());
        // The Fig 7.14 axis: 16 digits × 3 variants.
        assert_eq!(
            builtin("billie-digit").unwrap().enumerate().unwrap().len(),
            48
        );
        // 3 front ends × 3 gatings.
        assert_eq!(
            builtin("monte-gating").unwrap().enumerate().unwrap().len(),
            9
        );
        // 2 X-curves × (baseline + isa-ext collapsing the gating knob,
        // Monte keeping both gatings).
        assert_eq!(builtin("handshake").unwrap().enumerate().unwrap().len(), 8);
        // 2 cores × 2 cache options × 3 variants.
        assert_eq!(builtin("smoke").unwrap().enumerate().unwrap().len(), 12);
    }

    #[test]
    fn handshake_space_points_are_valid_ladder_points() {
        let points = builtin("handshake").unwrap().enumerate().unwrap();
        assert!(points.iter().all(|c| c.curve.is_mont()));
        assert!(points
            .iter()
            .all(|c| ule_core::supports(c.curve, c.arch, Workload::Handshake)));
        // Both curves are represented.
        assert!(points.iter().any(|c| c.curve == CurveId::X25519));
        assert!(points.iter().any(|c| c.curve == CurveId::X448));
    }

    #[test]
    fn space_file_round_trips() {
        let text = r#"{
            "name": "custom",
            "workload": "scalar_mul",
            "curves": ["K-163", "K-233"],
            "archs": ["billie"],
            "billie_digits": [1, 4],
            "billie_sram_rf": [true, false],
            "mult_variants": ["karatsuba"],
            "gatings": ["clock", "none"]
        }"#;
        let space = parse_space_file(text).unwrap();
        assert_eq!(space.name, "custom");
        // 2 curves × 2 digits × 2 rf × 2 gatings.
        assert_eq!(space.enumerate().unwrap().len(), 16);
        // The CLI spellings name the same space.
        let cli = text
            .replace("K-163", "k163")
            .replace("\"billie\"", "\"Billie\"")
            .replace("scalar_mul", "scalar-mul")
            .replace("karatsuba", "KARATSUBA");
        assert_eq!(parse_space_file(&cli).unwrap(), space);
    }

    #[test]
    fn space_file_errors_are_descriptive() {
        assert!(parse_space_file("{}").unwrap_err().contains("name"));
        let bad = r#"{"name": "x", "workload": "jog"}"#;
        assert!(parse_space_file(bad).unwrap_err().contains("jog"));
        let bad = r#"{"name": "x", "workload": "sign", "curves": ["Q-1"]}"#;
        assert!(parse_space_file(bad).unwrap_err().contains("Q-1"));
        let bad = r#"{"name": "x", "workload": "sign",
                      "icaches": [{"size_bytes": 3000, "prefetch": false}]}"#;
        assert!(parse_space_file(bad).unwrap_err().contains("power of two"));
    }
}
