//! Engine-tier A/B differential test: the fast engine (translation
//! cache + fused superinstructions) must produce reports that are
//! bit-identical to the reference interpreter — same cycles, same
//! `Counters`, same `RawStats`, same energy — on real workloads across
//! the architecture classes, and, when profiled, the same per-routine
//! profile (flat buckets, activity slices and call graph).
//!
//! The default tests cover the two cheap curves (one prime, one
//! binary) on all four architecture classes plus the X25519 ladder
//! workloads; the `#[ignore]`d exhaustive variant sweeps all ten
//! curves (minutes of wall-clock — run with
//! `cargo test -p ule-core --test tier_ab -- --ignored`).

use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_pete::cpu::EngineTier;
use ule_swlib::builder::Arch;

/// The architecture matrix for one curve: software archs plus the
/// family coprocessor, with and without an instruction cache.
fn configs_for(id: CurveId) -> Vec<SystemConfig> {
    let cop = if id.is_binary() {
        Arch::Billie
    } else {
        Arch::Monte
    };
    vec![
        SystemConfig::new(id, Arch::Baseline),
        SystemConfig::new(id, Arch::IsaExt),
        SystemConfig::new(id, Arch::IsaExt)
            .with_icache(ule_pete::icache::CacheConfig::real(4096, true)),
        SystemConfig::new(id, cop),
    ]
}

fn assert_tiers_identical(sys: &System, workload: Workload) {
    let cfg = sys.config();
    let fast = sys.run_with(RunOptions::new(workload).with_tier(EngineTier::Fast));
    let reference = sys.run_with(RunOptions::new(workload).with_tier(EngineTier::Reference));
    let ctx = format!("{} {:?} {}", cfg.curve.name(), cfg.arch, workload.name());
    assert!(fast.profile.is_none() && reference.profile.is_none());
    assert_eq!(fast.cycles, reference.cycles, "cycles diverge: {ctx}");
    assert_eq!(fast.counters, reference.counters, "counters diverge: {ctx}");
    assert_eq!(fast.raw, reference.raw, "raw stats diverge: {ctx}");
    assert_eq!(
        fast.activity, reference.activity,
        "activity diverges: {ctx}"
    );
    assert_eq!(fast.energy, reference.energy, "energy diverges: {ctx}");
}

/// Profiled runs on the two tiers give equal whole reports, the
/// profile included.
fn assert_profiled_tiers_identical(sys: &System, workload: Workload) {
    let profiled = RunOptions::new(workload).profiled();
    let fast = sys.run_with(profiled.with_tier(EngineTier::Fast));
    let reference = sys.run_with(profiled.with_tier(EngineTier::Reference));
    let cfg = sys.config();
    let ctx = format!("{} {:?} {}", cfg.curve.name(), cfg.arch, workload.name());
    let p = fast.profile.as_ref().expect("profiled run sets profile");
    assert_eq!(p.total_cycles(), fast.cycles, "{ctx}");
    assert!(!p.calls.nodes.is_empty(), "{ctx}");
    assert_eq!(fast, reference, "profiled reports diverge: {ctx}");
}

#[test]
fn fast_and_reference_tiers_agree_on_cheap_curves() {
    for id in [CurveId::P192, CurveId::K163] {
        for cfg in configs_for(id) {
            assert_tiers_identical(&System::new(cfg), Workload::SignVerify);
        }
    }
}

#[test]
fn profiled_fast_and_reference_tiers_agree_on_cheap_curves() {
    for id in [CurveId::P192, CurveId::K163] {
        for cfg in configs_for(id) {
            let sys = System::new(cfg);
            for workload in [Workload::SignVerify, Workload::FieldMul] {
                assert_profiled_tiers_identical(&sys, workload);
            }
        }
    }
}

/// The ladder workloads: `Handshake` absorbs the companion ECDSA
/// program's profile under a curve prefix.
#[test]
fn profiled_fast_and_reference_tiers_agree_on_x25519() {
    for arch in [Arch::Baseline, Arch::Monte] {
        let sys = System::new(SystemConfig::new(CurveId::X25519, arch));
        for workload in [Workload::Xdh, Workload::Handshake] {
            assert_profiled_tiers_identical(&sys, workload);
        }
    }
}

/// The call tree of a real suite stays bounded. After a return, the
/// next label is a sibling of the calling block, not its child, so a
/// loop that calls from alternating labels (`twin_mul` on ISA-ext) does
/// not nest one level deeper per iteration.
#[test]
fn profiled_call_tree_stays_bounded() {
    for (id, arch) in [
        (CurveId::P192, Arch::IsaExt),
        (CurveId::K163, Arch::Baseline),
    ] {
        let sys = System::new(SystemConfig::new(id, arch));
        let report = sys.run_with(RunOptions::new(Workload::SignVerify).profiled());
        let calls = &report.profile.expect("profiled run sets profile").calls;
        let depth = (0..calls.nodes.len())
            .map(|i| calls.path(i).len())
            .max()
            .unwrap_or(0);
        let ctx = format!("{} {:?}", id.name(), arch);
        assert!(depth <= 16, "{ctx}: call path depth {depth}");
        assert!(
            calls.nodes.len() < 10_000,
            "{ctx}: {} call-tree nodes",
            calls.nodes.len()
        );
    }
}

/// A profiled run and an unprofiled one must also agree on every
/// reported number — profiling is purely observational.
#[test]
fn profiled_equals_unprofiled() {
    let cfg = SystemConfig::new(CurveId::P192, Arch::IsaExt);
    let sys = System::new(cfg);
    let fast = sys.run_with(RunOptions::new(Workload::Sign));
    let profiled = sys.run_with(RunOptions::new(Workload::Sign).profiled());
    assert!(fast.profile.is_none());
    assert!(profiled.profile.is_some());
    assert_eq!(fast.cycles, profiled.cycles);
    assert_eq!(fast.counters, profiled.counters);
    assert_eq!(fast.raw, profiled.raw);
    assert_eq!(fast.energy, profiled.energy);
}

#[test]
#[ignore = "exhaustive ten-curve sweep; minutes of wall-clock"]
fn fast_and_reference_tiers_agree_on_all_curves() {
    for id in CurveId::ALL {
        for cfg in configs_for(id) {
            let sys = System::new(cfg);
            assert_tiers_identical(&sys, Workload::SignVerify);
            for workload in [Workload::SignVerify, Workload::FieldMul] {
                assert_profiled_tiers_identical(&sys, workload);
            }
        }
    }
    for id in [CurveId::X25519, CurveId::X448] {
        for arch in [Arch::Baseline, Arch::Monte] {
            let sys = System::new(SystemConfig::new(id, arch));
            for workload in [Workload::Xdh, Workload::Handshake] {
                assert_profiled_tiers_identical(&sys, workload);
            }
        }
    }
}
