//! Thread-safety, memoization, and determinism tests for `SweepEngine`.
//!
//! Cheap `FieldMul` design points keep the suite fast; the properties
//! under test (pointer-equal memo hits, batch-vs-serial bit-identity,
//! typed-key semantics) do not depend on workload size.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Barrier};

use ule_bench::{ConfigKey, ExperimentId, Job, SweepEngine};
use ule_core::{MultVariant, RunOptions, RunReport, System, SystemConfig, Workload};
use ule_curves::params::CurveId;
use ule_energy::report::Gating;
use ule_monte::MonteConfig;
use ule_pete::icache::CacheConfig;
use ule_swlib::builder::Arch;

fn fieldmul(curve: CurveId, arch: Arch) -> Job {
    (SystemConfig::new(curve, arch), Workload::FieldMul)
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

#[test]
fn engine_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SweepEngine>();
    assert_send_sync::<ConfigKey>();
    assert_send_sync::<Arc<RunReport>>();
}

#[test]
fn memo_hits_are_pointer_equal() {
    let engine = SweepEngine::new();
    let (cfg, w) = fieldmul(CurveId::P192, Arch::Baseline);
    let a = engine.run(cfg, w);
    let b = engine.run(cfg, w);
    assert!(Arc::ptr_eq(&a, &b), "second run must recall the same Arc");
    assert_eq!(engine.simulations(), 1);
}

#[test]
fn overlapping_keys_across_threads_share_one_simulation() {
    // 8 threads all racing on the same 2 design points: every returned
    // Arc for a given point must be the same allocation, and the engine
    // must have simulated each point exactly once.
    let engine = SweepEngine::new();
    let points = [
        fieldmul(CurveId::P192, Arch::Baseline),
        fieldmul(CurveId::K163, Arch::Baseline),
    ];
    let reports: Vec<Vec<Arc<RunReport>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = &engine;
                let points = &points;
                s.spawn(move || {
                    points
                        .iter()
                        .map(|&(c, w)| engine.run(c, w))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for per_thread in &reports {
        assert!(Arc::ptr_eq(&per_thread[0], &reports[0][0]));
        assert!(Arc::ptr_eq(&per_thread[1], &reports[0][1]));
    }
    assert_eq!(engine.simulations(), 2);
}

#[test]
fn cold_batch_matches_serial_bit_for_bit() {
    let jobs: Vec<Job> = [CurveId::P192, CurveId::P256, CurveId::K163, CurveId::K233]
        .iter()
        .flat_map(|&c| {
            [Arch::Baseline, Arch::IsaExt]
                .into_iter()
                .map(move |a| fieldmul(c, a))
        })
        .collect();

    let serial = SweepEngine::new().with_threads(1);
    let parallel = SweepEngine::new().with_threads(4);
    let a = serial.run_batch(&jobs);
    let b = parallel.run_batch(&jobs);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.as_ref(), y.as_ref(), "reports must be bit-identical");
    }
    assert_eq!(serial.simulations(), parallel.simulations());
}

#[test]
fn batch_results_line_up_with_jobs_and_dedup() {
    let engine = SweepEngine::new();
    let p = fieldmul(CurveId::P192, Arch::Baseline);
    let q = fieldmul(CurveId::K163, Arch::Baseline);
    let jobs = vec![p, q, p, p, q];
    let out = engine.run_batch(&jobs);
    assert_eq!(out.len(), jobs.len());
    assert!(Arc::ptr_eq(&out[0], &out[2]));
    assert!(Arc::ptr_eq(&out[0], &out[3]));
    assert!(Arc::ptr_eq(&out[1], &out[4]));
    assert!(!Arc::ptr_eq(&out[0], &out[1]));
    assert_eq!(engine.simulations(), 2, "duplicates simulate once");
}

#[test]
fn config_key_distinguishes_every_knob() {
    let base = SystemConfig::new(CurveId::K163, Arch::Billie);
    let variants = [
        base,
        SystemConfig::new(CurveId::K233, Arch::Billie),
        SystemConfig::new(CurveId::K163, Arch::Baseline),
        base.with_gating(Gating::Clock),
        base.with_gating(Gating::Power),
        base.with_billie_sram_rf(true),
        base.with_billie_digit(8),
        base.with_mult_variant(MultVariant::OperandScan),
        base.with_icache(CacheConfig::best()),
        base.with_icache(CacheConfig::real(1024, true)),
        base.with_icache(CacheConfig::ideal()),
        base.with_monte(MonteConfig {
            double_buffer: false,
            forwarding: false,
            queue_depth: 4,
        }),
    ];
    for (i, &a) in variants.iter().enumerate() {
        for (j, &b) in variants.iter().enumerate() {
            let ka = ConfigKey::new(a, Workload::FieldMul);
            let kb = ConfigKey::new(b, Workload::FieldMul);
            if i == j {
                assert_eq!(ka, kb);
                assert_eq!(hash_of(&ka), hash_of(&kb), "equal keys must hash equal");
            } else {
                assert_ne!(ka, kb, "knob {i} vs {j} must produce distinct keys");
            }
        }
    }
    // Same config, different workload: distinct key.
    assert_ne!(
        ConfigKey::new(base, Workload::Sign),
        ConfigKey::new(base, Workload::Verify)
    );
}

#[test]
fn workload_changes_key_but_config_reuses_system() {
    let engine = SweepEngine::new();
    let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline);
    let a = engine.run(cfg, Workload::FieldMul);
    let b = engine.run(cfg, Workload::ScalarMul);
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(engine.simulations(), 2);
}

#[test]
fn blocked_worker_spawns_degrade_gracefully() {
    let jobs: Vec<Job> = [CurveId::P192, CurveId::P256, CurveId::K163, CurveId::K233]
        .iter()
        .map(|&c| fieldmul(c, Arch::Baseline))
        .collect();
    let reference = SweepEngine::new().with_threads(1).run_batch(&jobs);

    // Every spawn fails: the batch must fall back to inline execution
    // on the caller thread (spawns happen on the calling thread, so the
    // thread-local shim budget is visible to run_batch).
    let engine = SweepEngine::new().with_threads(4);
    let all_blocked = {
        let _shim = ule_testkit::threads::fail_next_spawns(4);
        engine.run_batch(&jobs)
    };
    assert_eq!(all_blocked.len(), jobs.len());
    for (x, y) in all_blocked.iter().zip(&reference) {
        assert_eq!(
            x.as_ref(),
            y.as_ref(),
            "inline fallback must not change results"
        );
    }

    // Thread limit hit partway through the fan-out: the workers that
    // did spawn drain the whole queue.
    let engine = SweepEngine::new().with_threads(4);
    let partial = {
        let _shim = ule_testkit::threads::fail_spawns_after(1, 3);
        engine.run_batch(&jobs)
    };
    for (x, y) in partial.iter().zip(&reference) {
        assert_eq!(
            x.as_ref(),
            y.as_ref(),
            "degraded pool must not change results"
        );
    }
}

#[test]
fn thread_count_overrides() {
    assert_eq!(SweepEngine::new().with_threads(3).threads(), 3);
    assert!(SweepEngine::new().threads() >= 1);
}

#[test]
fn experiment_ids_round_trip_and_parse() {
    for id in ExperimentId::VARIANTS {
        let parsed: ExperimentId = id.name().parse().unwrap();
        assert_eq!(parsed, id);
        assert_eq!(format!("{id}"), id.name());
    }
    assert!("fig9_99".parse::<ExperimentId>().is_err());
    assert_eq!(ExperimentId::ALL.len(), 23);
    assert!(!ExperimentId::ALL.contains(&ExperimentId::T7_4));
}

#[test]
fn experiment_jobs_cover_the_rendered_points() {
    // Pre-warming an experiment's job list must leave nothing to
    // simulate at render time: run the batch, snapshot the simulation
    // count, render, and require the count unchanged. This pins every
    // `jobs()` list to the design points its renderer actually reads.
    // (FieldMul-cheap it is not — so restrict to the fastest three
    // simulation-backed experiments plus the table-only ones.)
    for id in [
        ExperimentId::Fig7_14,
        ExperimentId::S7_8,
        ExperimentId::Fig7_15,
        ExperimentId::T7_3,
        ExperimentId::T7_5,
    ] {
        let engine = SweepEngine::new();
        engine.run_batch(&id.jobs());
        let warmed = engine.simulations();
        let _ = id.run(&engine);
        assert_eq!(
            engine.simulations(),
            warmed,
            "{id}: renderer simulated points missing from jobs()"
        );
    }
}

#[test]
fn mult_variant_factor_is_single_sourced() {
    // §7.8 variants go through `run` like any other knob: one
    // simulation prices all three, Karatsuba (factor 1.0) is the
    // baseline report itself, and the costlier variants scale
    // monotonically with `MultVariant::factor`.
    let engine = SweepEngine::new();
    let at = |v| {
        let cfg = SystemConfig::new(CurveId::P192, Arch::Baseline).with_mult_variant(v);
        engine.run(cfg, Workload::SignVerify)
    };
    let base = engine.sv(CurveId::P192, Arch::Baseline);
    let kara = at(MultVariant::Karatsuba);
    assert!(Arc::ptr_eq(&kara, &base), "Karatsuba is the default point");

    let mut last = base.energy.total_uj();
    let mut last_factor = MultVariant::Karatsuba.factor();
    for v in [MultVariant::OperandScan, MultVariant::Parallel] {
        let r = at(v);
        assert_eq!(r.cycles, base.cycles, "§7.8 variants are timing-neutral");
        assert_eq!(r.activity.mult_variant_factor, v.factor());
        assert!(v.factor() > last_factor, "{v:?}: factor must increase");
        assert!(
            r.energy.total_uj() > last,
            "{v:?}: a costlier multiplier must cost more energy"
        );
        last = r.energy.total_uj();
        last_factor = v.factor();
    }
    assert_eq!(
        engine.simulations(),
        1,
        "the three variants share one simulation"
    );
}

/// Every energy-only sibling of a few cheap timing points.
fn sibling_jobs() -> Vec<Job> {
    let classes = [
        (CurveId::P192, Arch::Baseline, Workload::FieldMul),
        (CurveId::P192, Arch::IsaExt, Workload::FieldMul),
        (CurveId::P192, Arch::Monte, Workload::FieldMul),
        (CurveId::K163, Arch::Billie, Workload::FieldMul),
        // Non-zero coprocessor stats, so gating and the SRAM register
        // file change the price.
        (CurveId::K163, Arch::Billie, Workload::ScalarMul),
    ];
    let mut jobs = Vec::new();
    for (curve, arch, workload) in classes {
        for gating in [Gating::None, Gating::Clock, Gating::Power] {
            for sram in [false, true] {
                for variant in [
                    MultVariant::Karatsuba,
                    MultVariant::OperandScan,
                    MultVariant::Parallel,
                ] {
                    let cfg = SystemConfig::new(curve, arch)
                        .with_gating(gating)
                        .with_billie_sram_rf(sram)
                        .with_mult_variant(variant);
                    jobs.push((cfg, workload));
                }
            }
        }
    }
    jobs
}

#[test]
fn priced_siblings_match_a_fresh_simulation() {
    let jobs = sibling_jobs();
    let engine = SweepEngine::new().with_threads(1);
    for &(cfg, w) in &jobs {
        let fresh = System::new(cfg).run_with(RunOptions::new(w));
        assert_eq!(
            *engine.run(cfg, w),
            fresh,
            "{}: priced report differs from its own simulation",
            ConfigKey::new(cfg, w).label()
        );
    }
    let timing: HashSet<ConfigKey> = jobs
        .iter()
        .map(|&(c, w)| ConfigKey::new(c.timing(), w))
        .collect();
    assert_eq!(engine.simulations(), timing.len() as u64);
    let billie_sv = engine.run(jobs[jobs.len() - 1].0, Workload::ScalarMul);
    assert!(billie_sv.raw.cop.busy_cycles > 0);
    let st = engine.stats();
    assert_eq!(
        st.requests,
        st.memo_hits + st.inflight_waits + st.simulations
    );
}

#[test]
fn racing_siblings_share_one_simulation() {
    // Eight threads each ask for every gating/SRAM sibling of one point,
    // starting at different siblings: one simulation, and each full
    // configuration comes back as one allocation.
    let base = SystemConfig::new(CurveId::K163, Arch::Billie);
    let siblings: Vec<SystemConfig> = [Gating::None, Gating::Clock, Gating::Power]
        .into_iter()
        .flat_map(|g| [false, true].map(|sram| base.with_gating(g).with_billie_sram_rf(sram)))
        .collect();
    let engine = SweepEngine::new();
    let barrier = Barrier::new(8);
    let reports: Vec<Vec<Arc<RunReport>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (engine, siblings, barrier) = (&engine, &siblings, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let n = siblings.len();
                    let mut out = vec![None; n];
                    for i in 0..n {
                        let j = (t + i) % n;
                        out[j] = Some(engine.run(siblings[j], Workload::FieldMul));
                    }
                    out.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.simulations(), 1);
    for per_thread in &reports {
        for (a, b) in per_thread.iter().zip(&reports[0]) {
            assert!(Arc::ptr_eq(a, b), "identical keys share one Arc");
        }
    }
    for (cfg, r) in siblings.iter().zip(&reports[0]) {
        assert_eq!(
            **r,
            System::new(*cfg).run_with(RunOptions::new(Workload::FieldMul))
        );
    }
    let st = engine.stats();
    assert_eq!(st.requests, 8 * siblings.len() as u64);
    assert_eq!(
        st.requests,
        st.memo_hits + st.inflight_waits + st.simulations
    );
}

#[test]
fn job_spans_are_keyed_by_the_simulated_timing_point() {
    // Whichever sibling comes first, the one span names the timing
    // point that ran; priced siblings add none.
    let engine = SweepEngine::new().with_threads(1);
    let base = SystemConfig::new(CurveId::K163, Arch::Billie);
    engine.run(base.with_gating(Gating::Power), Workload::FieldMul);
    engine.run(base.with_billie_sram_rf(true), Workload::FieldMul);
    engine.run(base, Workload::FieldMul);
    let timings = engine.job_timings();
    assert_eq!(timings.len(), 1, "priced siblings add no span");
    assert_eq!(timings[0].0, ConfigKey::new(base, Workload::FieldMul));
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn a_failed_shared_simulation_poisons_its_siblings_and_retries() {
    // An ECDSA workload on a ladder curve panics inside the simulation
    // (after the system build, so racing siblings find it in flight).
    // Every sibling fails — waiters with the poison message instead of
    // hanging — and a later call simulates again.
    let base = SystemConfig::new(CurveId::X448, Arch::Monte);
    let engine = SweepEngine::new();
    let barrier = Barrier::new(8);
    let messages: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (engine, barrier) = (&engine, &barrier);
                let gating = [Gating::None, Gating::Clock, Gating::Power][t % 3];
                s.spawn(move || {
                    barrier.wait();
                    let run = || engine.run(base.with_gating(gating), Workload::Sign);
                    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                        .expect_err("an invalid point must fail");
                    panic_message(err)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let poisoned = messages
        .iter()
        .filter(|m| m.contains("panicked in another thread"))
        .count();
    let owned = messages
        .iter()
        .filter(|m| m.contains("RFC 7748 ladder curve"))
        .count();
    assert_eq!(poisoned + owned, 8, "{messages:?}");
    assert!(owned >= 1);
    let st = engine.stats();
    assert_eq!(st.inflight_waits, poisoned as u64);
    assert_eq!(st.simulations, 0);
    assert_eq!(st.memo_hits, 0);

    let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.run(base.with_gating(Gating::Power), Workload::Sign)
    }))
    .expect_err("the retry simulates and fails again");
    assert!(panic_message(retry).contains("RFC 7748 ladder curve"));
}
