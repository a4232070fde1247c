//! The engine's composed reports under process-wide profiling: profiles
//! included, they equal a fresh profiled `System` run. A test binary of
//! its own, because the profiling flag is global to the process and
//! would reach every other engine test running beside it.

use ule_bench::SweepEngine;
use ule_core::{RunOptions, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_swlib::builder::Arch;

#[test]
fn profiled_composed_workloads_equal_a_profiled_system_run() {
    ule_obs::set_profiling(true);
    let engine = SweepEngine::new().with_threads(1);
    let points = [
        (CurveId::P192, Arch::IsaExt, Workload::Sign),
        (CurveId::P192, Arch::IsaExt, Workload::SignVerify),
        (CurveId::K163, Arch::Billie, Workload::Verify),
        (CurveId::K163, Arch::Billie, Workload::SignVerify),
        // The companion's profile is absorbed under `P-256:`.
        (CurveId::X25519, Arch::Monte, Workload::Handshake),
    ];
    for (curve, arch, w) in points {
        let cfg = SystemConfig::new(curve, arch);
        let got = engine.run(cfg, w);
        let want = System::new(cfg).run_with(RunOptions::new(w).profiled());
        assert!(got.profile.is_some(), "{curve:?} {arch:?} {w:?}");
        assert_eq!(*got, want, "{curve:?} {arch:?} {w:?}");
    }
    let handshake = engine.run(
        SystemConfig::new(CurveId::X25519, Arch::Monte),
        Workload::Handshake,
    );
    let routines = &handshake.profile.as_ref().unwrap().routines;
    assert!(routines.iter().any(|r| r.name.starts_with("P-256:")));
    ule_obs::set_profiling(false);
}
