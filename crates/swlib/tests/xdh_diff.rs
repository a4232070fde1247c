//! End-to-end Montgomery-ladder tests: `main_xdh` on the simulator
//! versus the RFC 7748-validated host reference (`ule-curves`
//! [`ule_curves::montgomery::MontCurve`]), across Baseline / ISA-Ext /
//! Monte on both X25519 and X448. The shared secret must be
//! **bit-identical** to the host on every configuration — including the
//! in-kernel RFC clamp and the all-zero output for low-order inputs.

use ule_curves::params::CurveId;
use ule_mpmath::mp::Mp;
use ule_pete::cpu::{Machine, MachineConfig};
use ule_swlib::builder::{build_suite, Arch, Suite};
use ule_swlib::harness::{read_buf, run_entry_expect, write_buf};
use ule_testkit::Rng;

fn machine_for(suite: &Suite) -> Machine {
    let cfg = match suite.arch {
        Arch::Baseline => MachineConfig::baseline(),
        _ => MachineConfig::isa_ext(),
    };
    let mut b = Machine::builder(&suite.program, cfg);
    if suite.arch == Arch::Monte {
        b = b.coprocessor(Box::new(ule_monte::Monte::new()));
    }
    b.build()
}

/// Little-endian bytes of a k-limb buffer (the wire form the host clamp
/// takes; the kernel clamps the same bits with word operations).
fn limbs_to_bytes(limbs: &[u32]) -> Vec<u8> {
    limbs.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn ladder_matches_host_on_every_arch() {
    for id in [CurveId::X25519, CurveId::X448] {
        let curve = id.curve();
        let mc = curve.mont();
        let f = mc.field();
        let k = f.k();
        let p = f.modulus();
        for arch in [Arch::Baseline, Arch::IsaExt, Arch::Monte] {
            let suite = build_suite(&curve, arch);
            let mut rng = Rng::new(0x7748 ^ (id.bits() as u64) ^ ((arch as u64) << 32));
            // Case 0 is the curve's base point; the rest random u < p.
            for case in 0..2 {
                let raw_k: Vec<u32> = (0..k).map(|_| rng.next_u64() as u32).collect();
                let u = if case == 0 {
                    *mc.base_u()
                } else {
                    let limbs: Vec<u32> = (0..k).map(|_| rng.next_u64() as u32).collect();
                    f.from_limbs(&Mp::from_limbs(&limbs).rem(p).to_limbs(k))
                };
                let clamped = mc.clamp(&limbs_to_bytes(&raw_k));
                let expect = mc.ladder(&clamped, &u);

                let mut m = machine_for(&suite);
                write_buf(&mut m, &suite.program, "arg_k", &raw_k);
                write_buf(&mut m, &suite.program, "arg_qx", u.limbs());
                run_entry_expect(&mut m, &suite.program, "main_xdh", 2_000_000_000);
                let got = read_buf(&m, &suite.program, "out_r", k);
                assert_eq!(
                    got,
                    expect.limbs(),
                    "{} {:?} case {case}: sim shared secret diverges from host",
                    id.name(),
                    arch
                );
            }
        }
    }
}

#[test]
fn low_order_input_yields_the_all_zero_secret() {
    // u = 0 collapses the ladder (z2 = 0); the kernel must emit the
    // all-zero secret — the value the protocol layer rejects — without
    // feeding zero to the inversion (the baseline EEA would hang).
    for id in [CurveId::X25519, CurveId::X448] {
        let curve = id.curve();
        let k = curve.mont().field().k();
        for arch in [Arch::Baseline, Arch::Monte] {
            let suite = build_suite(&curve, arch);
            let mut m = machine_for(&suite);
            let raw_k: Vec<u32> = (0..k as u32).map(|i| 0x5eed_0001 + i).collect();
            write_buf(&mut m, &suite.program, "arg_k", &raw_k);
            write_buf(&mut m, &suite.program, "arg_qx", &vec![0u32; k]);
            run_entry_expect(&mut m, &suite.program, "main_xdh", 2_000_000_000);
            let got = read_buf(&m, &suite.program, "out_r", k);
            assert_eq!(got, vec![0u32; k], "{} {:?}", id.name(), arch);
        }
    }
}

#[test]
fn monte_fold_extension_saves_cycles() {
    // The special-form `fmula24` microprogram must make the Monte
    // ladder cheaper than... there is no CIOS-only ladder build to
    // compare against, so pin the relationship that matters: the Monte
    // ladder beats both software tiers by a wide margin.
    let curve = CurveId::X25519.curve();
    let mc = curve.mont();
    let cycles_for = |arch: Arch| -> u64 {
        let suite = build_suite(&curve, arch);
        let mut m = machine_for(&suite);
        let k = mc.field().k();
        write_buf(&mut m, &suite.program, "arg_k", &vec![0x42u32; k]);
        write_buf(&mut m, &suite.program, "arg_qx", mc.base_u().limbs());
        run_entry_expect(&mut m, &suite.program, "main_xdh", 2_000_000_000)
    };
    let monte = cycles_for(Arch::Monte);
    let baseline = cycles_for(Arch::Baseline);
    assert!(
        monte * 4 < baseline,
        "Monte ladder ({monte} cycles) should be well under baseline ({baseline})"
    );
}
