//! A benchmark-side replica of `ule_core::System::run_with` that crosses
//! every layer through its public functions, one span per step:
//!
//! 1. `CurveId::curve` (`curves.curve_build`)
//! 2. `build_suite` (`swlib.assemble`)
//! 3. host inputs and expected outputs via `ule_curves` (`core.host_ref`)
//! 4. `Machine::builder().build()` (`pete.decode`)
//! 5. a 1-cycle `run_with`, which translates the ROM (`pete.xlate`)
//! 6. the remaining `run_with` (`pete.run`; its self time is Pete
//!    dispatch, its `monte.issue`/`billie.issue` children are the time
//!    spent inside the coprocessor's `issue`)
//! 7. `ule_energy::report::energy` (`energy.model`)
//!
//! Buffer loads and output checks are `harness.*` spans. The replica's
//! report must equal `System::run_with`'s bit for bit; the traced runs
//! and the tests below check that on every point.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use ule_billie::{Billie, BillieConfig};
use ule_core::{RawStats, RunReport, SystemConfig, Workload};
use ule_curves::binary::AffinePoint2m;
use ule_curves::ecdsa::{self, Keypair, PublicKey};
use ule_curves::params::{Curve, CurveKind};
use ule_curves::prime::AffinePoint;
use ule_curves::scalar;
use ule_energy::{Activity, CopActivity, CopKind, IcacheActivity};
use ule_monte::Monte;
use ule_mpmath::mp::Mp;
use ule_pete::cop::{CopStats, Coprocessor};
use ule_pete::cpu::{Counters, ExecOptions, Instrumentation, Machine, MachineConfig, RunExit};
use ule_pete::mem::Ram;
use ule_pete::profile::RoutineProfile;
use ule_swlib::builder::{build_suite, Arch, Suite};
use ule_swlib::harness::{read_buf, write_buf};

/// One closed span: a layer call, or a synthetic child carrying time
/// measured inside its parent (coprocessor `issue`).
pub struct Span {
    pub name: &'static str,
    /// The design point (or request batch) the span belongs to.
    pub point: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder for one thread; written out at exit.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    point: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            point: 0,
        }
    }
}

impl Tracer {
    /// Tags the spans that follow with a point id.
    pub fn set_point(&mut self, point: u32) {
        self.point = point;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            point: self.point,
            parent: self.stack.last().copied(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].dur_ns = start.elapsed().as_nanos() as u64;
        r
    }

    /// Depth of the open-span stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes spans a panic left open, back to `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        self.stack.truncate(depth);
    }

    /// Records `dur_ns` measured inside the open span as its child.
    fn child(&mut self, name: &'static str, dur_ns: u64) {
        if dur_ns == 0 {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            point: self.point,
            parent,
            start_ns,
            dur_ns,
        });
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns.saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Total duration of the top-level spans, seconds.
    pub fn root_time(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"point\": {}, \"parent\": {parent}, \"start_ns\": {}, \"dur_ns\": {}}}",
                s.name, s.point, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Time and operation count accumulated inside one coprocessor's
/// `issue`.
#[derive(Default)]
pub struct CopClock {
    pub ns: Cell<u64>,
    pub ops: Cell<u64>,
}

/// Wraps a coprocessor and times every `issue` call.
struct TimedCop {
    inner: Box<dyn Coprocessor>,
    clock: Rc<CopClock>,
}

impl Coprocessor for TimedCop {
    fn issue(
        &mut self,
        instr: ule_isa::instr::Instr,
        rt_value: u32,
        cycle: u64,
        ram: &mut Ram,
    ) -> u64 {
        let t = Instant::now();
        let r = self.inner.issue(instr, rt_value, cycle, ram);
        self.clock
            .ns
            .set(self.clock.ns.get() + t.elapsed().as_nanos() as u64);
        self.clock.ops.set(self.clock.ops.get() + 1);
        r
    }

    fn idle_at(&self) -> u64 {
        self.inner.idle_at()
    }

    fn stats(&self) -> CopStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A built system as `SweepEngine` caches it: curve plus program image.
struct Built {
    curve: Curve,
    suite: Suite,
}

/// The replica run loop. Like `SweepEngine`, it builds one system per
/// configuration and reuses it across that configuration's workloads.
#[derive(Default)]
pub struct Replica {
    pub monte: Rc<CopClock>,
    pub billie: Rc<CopClock>,
    pub suites_built: u64,
    pub cycles: u64,
    pub instructions: u64,
    systems: HashMap<SystemConfig, Rc<Built>>,
}

/// Counters, raw stats and profile accumulated over a workload's entry
/// points (the replica of `ule_core`'s private `RunAccum`).
#[derive(Default)]
struct Accum {
    counters: Counters,
    raw: RawStats,
    profile: Option<RoutineProfile>,
}

impl Accum {
    fn add(&mut self, m: &mut Machine) {
        self.counters.accumulate(&m.counters());
        self.raw.accumulate(&RawStats {
            rom: m.rom_stats(),
            ram: m.ram_stats(),
            icache: m.icache_stats(),
            cop: m.cop_stats(),
        });
        if let Some(p) = m.take_profile() {
            self.profile
                .get_or_insert_with(RoutineProfile::default)
                .merge(&p);
        }
    }
}

type Check = Result<(), String>;

impl Replica {
    fn system(&mut self, t: &mut Tracer, config: SystemConfig) -> Rc<Built> {
        if let Some(b) = self.systems.get(&config) {
            return b.clone();
        }
        let b = Rc::new(self.build(t, config));
        self.systems.insert(config, b.clone());
        b
    }

    fn build(&mut self, t: &mut Tracer, config: SystemConfig) -> Built {
        let curve = t.span("curves.curve_build", |_| config.curve.curve());
        let suite = t.span("swlib.assemble", |_| build_suite(&curve, config.arch));
        self.suites_built += 1;
        Built { curve, suite }
    }

    /// Runs one point through the replica and returns its report, or
    /// why a simulated output disagreed with the host reference.
    pub fn run(
        &mut self,
        t: &mut Tracer,
        config: SystemConfig,
        workload: Workload,
        profiled: bool,
    ) -> Result<RunReport, String> {
        ule_core::validate_workload(config.curve, config.arch, workload)
            .map_err(|e| e.to_string())?;
        let sys = self.system(t, config);
        let mut acc = Accum::default();
        if profiled {
            acc.profile = Some(RoutineProfile::default());
        }
        if workload.is_ladder() {
            self.xdh(t, &config, &sys, profiled, &mut acc)?;
            if workload == Workload::Handshake {
                // `System::run_with` builds the companion system on
                // every handshake run; so does the replica.
                let pair = config.curve.security_pair();
                let companion_cfg = SystemConfig {
                    curve: pair,
                    ..config
                };
                let companion = self.build(t, companion_cfg);
                let mut side = Accum::default();
                self.ecdsa(
                    t,
                    &companion_cfg,
                    &companion,
                    Workload::SignVerify,
                    profiled,
                    &mut side,
                )?;
                acc.counters.accumulate(&side.counters);
                acc.raw.accumulate(&side.raw);
                if let Some(p) = side.profile {
                    acc.profile
                        .get_or_insert_with(RoutineProfile::default)
                        .absorb(&p, &format!("{}:", pair.name()));
                }
            }
        } else {
            self.ecdsa(t, &config, &sys, workload, profiled, &mut acc)?;
        }
        let (activity, energy) = t.span("energy.model", |_| {
            let activity = energy_input(&config, &acc);
            let energy = ule_energy::report::energy(&activity);
            (activity, energy)
        });
        self.cycles += acc.counters.cycles;
        self.instructions += acc.counters.instructions;
        Ok(RunReport {
            cycles: acc.counters.cycles,
            counters: acc.counters,
            raw: acc.raw,
            activity,
            energy,
            profile: acc.profile,
        })
    }

    fn machine(&self, config: &SystemConfig, suite: &Suite, profiled: bool) -> Machine {
        let mut mc = match config.arch {
            Arch::Baseline => MachineConfig::baseline(),
            _ => MachineConfig::isa_ext(),
        };
        mc.icache = config.icache;
        let b = Machine::builder(&suite.program, mc);
        let b = match config.arch {
            Arch::Monte => b.coprocessor(Box::new(TimedCop {
                inner: Box::new(Monte::with_config(config.monte)),
                clock: self.monte.clone(),
            })),
            Arch::Billie => b.coprocessor(Box::new(TimedCop {
                inner: Box::new(Billie::with_config(
                    config.curve.nist_binary(),
                    BillieConfig {
                        digit: config.billie_digit,
                    },
                )),
                clock: self.billie.clone(),
            })),
            _ => b,
        };
        let instr = if profiled {
            Instrumentation::profile(&suite.program.text_symbols())
        } else {
            Instrumentation::none()
        };
        b.instrumentation(instr).build()
    }

    /// Steps 4 to 6 for one entry point, then its output check.
    #[allow(clippy::too_many_arguments)]
    fn entry(
        &self,
        t: &mut Tracer,
        config: &SystemConfig,
        suite: &Suite,
        profiled: bool,
        args: &[(&str, &[u32])],
        entry: &str,
        check: impl FnOnce(&Machine) -> Check,
        acc: &mut Accum,
    ) -> Check {
        let mut m = t.span("pete.decode", |_| self.machine(config, suite, profiled));
        let program = &suite.program;
        t.span("harness.load", |_| {
            for (name, limbs) in args {
                write_buf(&mut m, program, name, limbs);
            }
        });
        let pc = program
            .symbol(entry)
            .ok_or_else(|| format!("no entry point {entry:?}"))?;
        m.set_pc(pc);
        let start = m.cycles();
        let first = self.timed_run(t, "pete.xlate", &mut m, start + 1);
        let exit = match first {
            RunExit::Halted { .. } => first,
            RunExit::CycleLimit => self.timed_run(t, "pete.run", &mut m, start + u64::MAX / 2),
        };
        if !matches!(exit, RunExit::Halted { .. }) {
            return Err(format!("{entry} did not halt"));
        }
        t.span("harness.check", |_| check(&m))?;
        acc.add(&mut m);
        Ok(())
    }

    /// One `run_with` call in a span, with the coprocessor time spent
    /// inside it recorded as child spans.
    fn timed_run(
        &self,
        t: &mut Tracer,
        name: &'static str,
        m: &mut Machine,
        max_cycles: u64,
    ) -> RunExit {
        t.span(name, |t| {
            let (monte0, billie0) = (self.monte.ns.get(), self.billie.ns.get());
            let exit = m.run_with(ExecOptions::new(max_cycles));
            t.child("monte.issue", self.monte.ns.get() - monte0);
            t.child("billie.issue", self.billie.ns.get() - billie0);
            exit
        })
    }

    fn ecdsa(
        &self,
        t: &mut Tracer,
        config: &SystemConfig,
        sys: &Built,
        workload: Workload,
        profiled: bool,
        acc: &mut Accum,
    ) -> Check {
        let (curve, suite) = (&sys.curve, &sys.suite);
        let k = suite.k;
        let host = t.span("core.host_ref", |_| {
            let keys = Keypair::derive(curve, b"design-space signer");
            let e = ecdsa::hash_to_scalar(
                curve,
                b"the design space of ultra-low energy asymmetric cryptography",
            );
            let nonce = ecdsa::derive_scalar(curve, b"bench nonce", b"nonce");
            let sig = ecdsa::sign_with_nonce(curve, keys.private(), &e, &nonce)
                .ok_or("deterministic nonce is invalid")?;
            let (qx, qy) = public_xy(&keys.public(), k);
            let kg = if workload == Workload::ScalarMul {
                host_mul_g(curve, &nonce, k)?
            } else {
                Vec::new()
            };
            Ok::<_, String>(HostRef {
                d: keys.private().to_limbs(k),
                e: e.to_limbs(k),
                nonce: nonce.to_limbs(k),
                r: sig.r.to_limbs(k),
                s: sig.s.to_limbs(k),
                sig,
                qx,
                qy,
                kg,
            })
        })?;
        let prog = &suite.program;
        if matches!(workload, Workload::Sign | Workload::SignVerify) {
            let args: [(&str, &[u32]); 3] = [
                ("arg_e", &host.e),
                ("arg_d", &host.d),
                ("arg_k", &host.nonce),
            ];
            self.entry(
                t,
                config,
                suite,
                profiled,
                &args,
                "main_sign",
                |m| {
                    let r = Mp::from_limbs(&read_buf(m, prog, "out_r", k));
                    let s = Mp::from_limbs(&read_buf(m, prog, "out_s", k));
                    if r == host.sig.r && s == host.sig.s {
                        Ok(())
                    } else {
                        Err("simulated signature mismatch".into())
                    }
                },
                acc,
            )?;
        }
        if matches!(workload, Workload::Verify | Workload::SignVerify) {
            let args: [(&str, &[u32]); 5] = [
                ("arg_e", &host.e),
                ("arg_r", &host.r),
                ("arg_s", &host.s),
                ("arg_qx", &host.qx),
                ("arg_qy", &host.qy),
            ];
            self.entry(
                t,
                config,
                suite,
                profiled,
                &args,
                "main_verify",
                |m| {
                    if read_buf(m, prog, "out_ok", 1) == [1] {
                        Ok(())
                    } else {
                        Err("simulated verification rejected a valid signature".into())
                    }
                },
                acc,
            )?;
        }
        if workload == Workload::ScalarMul {
            let args: [(&str, &[u32]); 1] = [("arg_k", &host.nonce)];
            self.entry(
                t,
                config,
                suite,
                profiled,
                &args,
                "main_scalar_mul",
                |m| {
                    if read_buf(m, prog, "out_r", k) == host.kg {
                        Ok(())
                    } else {
                        Err("simulated kG mismatch".into())
                    }
                },
                acc,
            )?;
        }
        if workload == Workload::FieldMul {
            let args: [(&str, &[u32]); 2] = [("arg_qx", &host.qx), ("arg_qy", &host.qy)];
            self.entry(
                t,
                config,
                suite,
                profiled,
                &args,
                "main_fmul",
                |_| Ok(()),
                acc,
            )?;
        }
        Ok(())
    }

    fn xdh(
        &self,
        t: &mut Tracer,
        config: &SystemConfig,
        sys: &Built,
        profiled: bool,
        acc: &mut Accum,
    ) -> Check {
        let k = sys.suite.k;
        let (raw_a, peer_u, shared) = t.span("core.host_ref", |_| {
            let mc = sys.curve.mont();
            let raw_a = xdh_raw_scalar(k, 0xA11C_E000);
            let raw_b = xdh_raw_scalar(k, 0xB0B0_0000);
            let peer_u = mc.ladder(&mc.clamp(&limb_bytes(&raw_b)), mc.base_u());
            let shared = mc.ladder(&mc.clamp(&limb_bytes(&raw_a)), &peer_u);
            (raw_a, peer_u.limbs().to_vec(), shared.limbs().to_vec())
        });
        let prog = &sys.suite.program;
        let args: [(&str, &[u32]); 2] = [("arg_k", &raw_a), ("arg_qx", &peer_u)];
        self.entry(
            t,
            config,
            &sys.suite,
            profiled,
            &args,
            "main_xdh",
            |m| {
                if read_buf(m, prog, "out_r", k) == shared {
                    Ok(())
                } else {
                    Err("simulated shared secret mismatch".into())
                }
            },
            acc,
        )
    }
}

struct HostRef {
    d: Vec<u32>,
    e: Vec<u32>,
    nonce: Vec<u32>,
    r: Vec<u32>,
    s: Vec<u32>,
    sig: ecdsa::Signature,
    qx: Vec<u32>,
    qy: Vec<u32>,
    kg: Vec<u32>,
}

/// The energy model's input, built exactly as `ule_core` builds it.
fn energy_input(config: &SystemConfig, acc: &Accum) -> Activity {
    let cycles = acc.counters.cycles;
    let raw = acc.raw;
    Activity {
        cycles,
        busy_cycles: cycles.saturating_sub(acc.counters.stall_cycles),
        stall_cycles: acc.counters.stall_cycles,
        mult_active_cycles: acc.counters.mult_active_cycles,
        mult_variant_factor: config.mult_variant.factor(),
        rom_word_reads: raw.rom.reads,
        rom_line_reads: raw.rom.line_reads,
        ram_reads: raw.ram.reads,
        ram_writes: raw.ram.writes,
        icache: config.icache.map(|c| IcacheActivity {
            size_bytes: c.size_bytes,
            accesses: raw.icache.map(|ic| ic.accesses).unwrap_or(0),
            fills: raw.icache.map(|ic| ic.fills).unwrap_or(0),
        }),
        cop: match config.arch {
            Arch::Monte => Some(CopActivity {
                kind: CopKind::Monte,
                busy_cycles: raw.cop.busy_cycles,
                dma_cycles: raw.cop.dma_cycles,
                scratch_accesses: 3 * raw.cop.busy_cycles,
                gating: config.gating,
                sram_register_file: false,
            }),
            Arch::Billie => Some(CopActivity {
                kind: CopKind::Billie {
                    m: config.curve.nist_binary().m(),
                },
                busy_cycles: raw.cop.busy_cycles,
                dma_cycles: raw.cop.dma_cycles,
                scratch_accesses: 0,
                gating: config.gating,
                sram_register_file: config.billie_sram_rf,
            }),
            _ => None,
        },
    }
}

fn xdh_raw_scalar(k: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..k)
        .map(|_| crate::util::splitmix64(&mut state) as u32)
        .collect()
}

fn limb_bytes(limbs: &[u32]) -> Vec<u8> {
    limbs.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn public_xy(public: &PublicKey, k: usize) -> (Vec<u32>, Vec<u32>) {
    match public {
        PublicKey::Prime(AffinePoint::Point { x, y }) => (x.limbs().to_vec(), y.limbs().to_vec()),
        PublicKey::Binary(AffinePoint2m::Point { x, y }) => {
            (x.limbs().to_vec(), y.limbs().to_vec())
        }
        _ => (vec![0; k], vec![0; k]),
    }
}

fn host_mul_g(curve: &Curve, s: &Mp, k: usize) -> Result<Vec<u32>, String> {
    Ok(match curve.kind() {
        CurveKind::Prime(c) => match scalar::mul_window(c, s, &c.generator()) {
            AffinePoint::Point { x, .. } => x.limbs().to_vec(),
            AffinePoint::Infinity => vec![0; k],
        },
        CurveKind::Binary(c) => match scalar::mul_window(c, s, &c.generator()) {
            AffinePoint2m::Point { x, .. } => x.limbs().to_vec(),
            AffinePoint2m::Infinity => vec![0; k],
        },
        CurveKind::Mont(_) => return Err("kG needs an ECDSA curve".into()),
    })
}

/// Whether two reports agree bit for bit: every counter, raw statistic,
/// activity field and energy component, and the profile.
pub fn same_report(a: &RunReport, b: &RunReport) -> bool {
    let bits = |r: &RunReport| -> Vec<u64> {
        let mut v = vec![
            r.energy.total_uj().to_bits(),
            r.activity.mult_variant_factor.to_bits(),
        ];
        v.extend(
            r.energy
                .entries()
                .iter()
                .flat_map(|&(_, d, s)| [d.to_bits(), s.to_bits()]),
        );
        v
    };
    a.cycles == b.cycles
        && a.counters == b.counters
        && a.raw == b.raw
        && a.activity == b.activity
        && a.profile == b.profile
        && bits(a) == bits(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_core::{RunOptions, System};
    use ule_curves::params::CurveId;

    /// One small point per architecture class, plus the ladder: the
    /// replica must reproduce `System::run_with` bit for bit, so a
    /// change to the library run loop fails here before it skews a trace.
    #[test]
    fn replica_matches_system_on_every_arch_class() {
        let points = [
            (
                SystemConfig::new(CurveId::P192, Arch::Baseline),
                Workload::SignVerify,
            ),
            (
                SystemConfig::new(CurveId::P192, Arch::IsaExt),
                Workload::SignVerify,
            ),
            (
                SystemConfig::new(CurveId::P192, Arch::Monte),
                Workload::SignVerify,
            ),
            (
                SystemConfig::new(CurveId::K163, Arch::Billie),
                Workload::SignVerify,
            ),
            (
                SystemConfig::new(CurveId::X25519, Arch::Monte),
                Workload::Xdh,
            ),
        ];
        let mut replica = Replica::default();
        let mut t = Tracer::default();
        for (config, workload) in points {
            let want = System::new(config).run_with(RunOptions::new(workload));
            let got = replica
                .run(&mut t, config, workload, false)
                .expect("replica run");
            assert!(same_report(&got, &want), "{config:?} {workload:?}");
        }
        assert!(replica.monte.ops.get() > 0 && replica.billie.ops.get() > 0);
        let layers = t.self_times();
        for name in [
            "curves.curve_build",
            "swlib.assemble",
            "core.host_ref",
            "pete.decode",
            "pete.xlate",
            "pete.run",
            "monte.issue",
            "billie.issue",
            "energy.model",
        ] {
            assert!(
                layers.get(name).copied().unwrap_or(0.0) > 0.0,
                "no time in {name}"
            );
        }
    }

    /// The profiled replica (reference interpreter) matches a profiled
    /// `System` run, profile included.
    #[test]
    fn profiled_replica_matches_profiled_system() {
        let config = SystemConfig::new(CurveId::K163, Arch::IsaExt);
        let want = System::new(config).run_with(RunOptions::new(Workload::Sign).profiled());
        let got = Replica::default()
            .run(&mut Tracer::default(), config, Workload::Sign, true)
            .expect("replica run");
        assert!(got.profile.is_some());
        assert!(same_report(&got, &want));
    }

    #[test]
    fn self_times_subtract_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = t.self_times();
        assert!(s["inner"] >= 0.002);
        assert!(s["outer"] < s["inner"]);
        assert!((t.root_time() - (s["outer"] + s["inner"])).abs() < 1e-6);
    }
}
