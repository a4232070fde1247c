//! The hardware-acceleration trade-off of Fig 1.1, regenerated: sweep
//! every architecture over the security levels and print energy,
//! latency, and average power — the data a system designer would use to
//! pick a point on the reconfigurability/efficiency spectrum.
//!
//! The sweep is submitted as one batch to [`SweepEngine::run_batch`],
//! which simulates the design points in parallel (one worker per core,
//! override with `ULE_SWEEP_THREADS`) and memoizes each report; the
//! table is then printed serially, so the output is identical for any
//! thread count.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use ule_repro::bench::{Job, SweepEngine};
use ule_repro::core_api::{SystemConfig, Workload};
use ule_repro::curves::params::CurveId;
use ule_repro::swlib::builder::Arch;

fn archs_for(curve: CurveId) -> &'static [Arch] {
    if curve.is_binary() {
        &[Arch::Baseline, Arch::IsaExt, Arch::Billie]
    } else {
        &[Arch::Baseline, Arch::IsaExt, Arch::Monte]
    }
}

fn main() {
    println!("The design space of ultra-low energy asymmetric cryptography");
    println!("(simulated ECDSA Sign+Verify per configuration)\n");

    let curves = [
        CurveId::P192,
        CurveId::P256,
        CurveId::P384,
        CurveId::K163,
        CurveId::K283,
        CurveId::K409,
    ];
    let jobs: Vec<Job> = curves
        .iter()
        .flat_map(|&curve| {
            archs_for(curve)
                .iter()
                .map(move |&arch| (SystemConfig::new(curve, arch), Workload::SignVerify))
        })
        .collect();

    let engine = SweepEngine::new();
    engine.run_batch(&jobs);
    eprintln!(
        "[{} design points from {} entry simulations on {} thread(s)]\n",
        jobs.len(),
        engine.simulations(),
        engine.threads()
    );

    println!(
        "{:8} {:10} {:>12} {:>9} {:>9} {:>10}",
        "curve", "arch", "cycles", "ms", "mW", "uJ"
    );
    for curve in curves {
        for &arch in archs_for(curve) {
            let report = engine.run(SystemConfig::new(curve, arch), Workload::SignVerify);
            let (d, s) = report.energy.power_mw();
            println!(
                "{:8} {:10} {:>12} {:>9.2} {:>9.2} {:>10.1}",
                curve.name(),
                arch.name(),
                report.cycles,
                report.time_ms(),
                d + s,
                report.energy_uj()
            );
        }
        println!();
    }
    println!("Reconfigurability decreases left-to-right on Fig 1.1's spectrum:");
    println!("  optimized software -> ISA extensions -> microcoded Monte -> fixed-function Billie");
    println!("while the energy per operation falls by roughly an order of magnitude.");
}
