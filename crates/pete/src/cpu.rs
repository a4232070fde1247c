//! The pipeline timing model of Pete (§5.1, Fig 2.4).
//!
//! Timing contract (see also `DESIGN.md` §6):
//!
//! * 1 instruction per cycle in the ideal case;
//! * **load-use interlock**: +1 cycle when an instruction needs, in its
//!   execute stage, the destination of the load immediately before it;
//! * **branch delay slot**: the instruction after a branch/jump always
//!   executes (MIPS architectural behaviour, §2.2);
//! * **branch predictor**: a 64-entry 2-bit bimodal table consulted in
//!   decode and verified in execute; a misprediction invalidates the one
//!   speculatively fetched instruction (+1 cycle and one wasted fetch);
//! * **Hi/Lo unit** (§5.1.1): `mult`-class instructions occupy the
//!   multi-cycle Karatsuba unit for 4 cycles (divide: 34); issuing into a
//!   busy unit, or reading Hi/Lo before the result is ready, stalls —
//!   which is exactly what the compiler's static scheduling tries to
//!   avoid;
//! * **instruction cache** (optional, §5.3): a miss stalls fetch for the
//!   miss penalty; the stream buffer can hide sequential misses;
//! * **coprocessor instructions** are forwarded in execute; Pete stalls
//!   only on a full coprocessor queue or on `cop2sync` (§5.4.1).
//!
//! Two execution engines implement this contract (DESIGN.md §6a):
//! the **fast** engine (translation cache + fused superinstructions,
//! the default) and the **reference** interpreter ([`Machine::step`],
//! the differential oracle). Cycles, every [`Counters`] field, all
//! memory-system statistics, and the per-routine profile are
//! bit-identical between the two; the fast engine is an optimisation,
//! never a second semantics.

use crate::cop::{CopStats, Coprocessor, NoCoprocessor};
use crate::icache::{CacheConfig, CacheStats, ICache};
use crate::mem::{MemStats, Ram, Rom};
use crate::profile::{ActivitySlice, ControlEvent, PcProfiler, RoutineProfile};
use crate::xlate::{
    self, AluKind, AluOp, BOp, BrBlock, BrCond, BranchOp, MemOp, Term, XOp, XTable,
};
use ule_isa::asm::Program;
use ule_isa::instr::Instr;
use ule_isa::reg::Reg;
// The `MULGF2` datapath primitive: the host field's carry-less multiply.
use ule_mpmath::f2m::clmul32;

/// Configuration of a simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Instruction cache, if present (§5.3).
    pub icache: Option<CacheConfig>,
    /// Whether the ISA-extension instructions are implemented (§5.2);
    /// executing one on a non-extended machine is a simulation error.
    pub extensions: bool,
    /// Latency of the multi-cycle Karatsuba multiplier (4, §5.1.1).
    pub mult_latency: u32,
    /// Latency of the restoring divider (§5.1.2).
    pub div_latency: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            icache: None,
            extensions: false,
            mult_latency: 4,
            div_latency: 34,
        }
    }
}

impl MachineConfig {
    /// The baseline architecture (Fig 5.1): no cache, no extensions.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// The ISA-extended architecture (§5.2).
    pub fn isa_ext() -> Self {
        MachineConfig {
            extensions: true,
            ..Self::default()
        }
    }
}

/// Event counters for one run — the quantities the energy model consumes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Architecturally executed instructions.
    pub instructions: u64,
    /// Total clock cycles.
    pub cycles: u64,
    /// All front-end stall cycles (cache misses, hazards, coprocessor).
    pub stall_cycles: u64,
    /// Load-use interlock stalls.
    pub load_use_stalls: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branch mispredictions (each costs one flushed fetch).
    pub mispredicts: u64,
    /// Cycles the Hi/Lo multiply unit was computing.
    pub mult_active_cycles: u64,
    /// Stalls waiting on the Hi/Lo unit (busy or result not ready).
    pub mult_stalls: u64,
    /// Multiply-class operations issued.
    pub mult_ops: u64,
    /// Divides issued.
    pub div_ops: u64,
    /// COP2 instructions forwarded to the accelerator.
    pub cop2_ops: u64,
    /// Stall cycles from a full coprocessor queue or `cop2sync`.
    pub cop2_stalls: u64,
    /// Instruction fetches (including wasted wrong-path fetches).
    pub fetches: u64,
}

impl Counters {
    /// Adds another run's counters onto this one, field by field.
    ///
    /// The exhaustive destructuring (no `..`) is deliberate: adding a
    /// counter to this struct without deciding how it accumulates —
    /// and without exporting it to the metrics schema — fails to
    /// compile here.
    pub fn accumulate(&mut self, other: &Counters) {
        let Counters {
            instructions,
            cycles,
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
        } = *other;
        self.instructions += instructions;
        self.cycles += cycles;
        self.stall_cycles += stall_cycles;
        self.load_use_stalls += load_use_stalls;
        self.branches += branches;
        self.mispredicts += mispredicts;
        self.mult_active_cycles += mult_active_cycles;
        self.mult_stalls += mult_stalls;
        self.mult_ops += mult_ops;
        self.div_ops += div_ops;
        self.cop2_ops += cop2_ops;
        self.cop2_stalls += cop2_stalls;
        self.fetches += fetches;
    }
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunExit {
    /// A `break` instruction was executed (the program's exit).
    Halted {
        /// The break code.
        code: u16,
    },
    /// The cycle budget was exhausted first.
    CycleLimit,
}

/// Which execution engine a run uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineTier {
    /// The translated/fused fast engine, profiled or not. The right
    /// choice everywhere outside A/B tests.
    #[default]
    Fast,
    /// The one-instruction-per-step reference interpreter: the
    /// differential oracle the fast engine is checked against.
    Reference,
}

impl EngineTier {
    /// CLI spelling (`--tier fast` …).
    pub fn key(self) -> &'static str {
        match self {
            EngineTier::Fast => "fast",
            EngineTier::Reference => "reference",
        }
    }
}

impl std::str::FromStr for EngineTier {
    type Err = String;

    /// The design-space spelling policy (ASCII case and `-`/`_`
    /// separators ignored); `ref` is accepted for `reference`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.replace(['-', '_'], "").to_ascii_lowercase().as_str() {
            "fast" => Ok(EngineTier::Fast),
            "reference" | "ref" => Ok(EngineTier::Reference),
            _ => Err(format!("unknown tier {s:?} (expected fast|reference)")),
        }
    }
}

/// Everything that varies per `run_with` call: the cycle budget and
/// the engine tier, in one place.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Stop (with [`RunExit::CycleLimit`]) once `cycles() >= max_cycles`.
    pub max_cycles: u64,
    /// Engine selection (default [`EngineTier::Fast`]).
    pub tier: EngineTier,
}

impl ExecOptions {
    /// Options with the given cycle budget on the default tier.
    pub fn new(max_cycles: u64) -> Self {
        ExecOptions {
            max_cycles,
            tier: EngineTier::default(),
        }
    }

    /// Overrides the engine tier.
    pub fn with_tier(mut self, tier: EngineTier) -> Self {
        self.tier = tier;
        self
    }
}

/// What a machine observes about its own run — attached once, at build
/// time, because it decides the fast engine's block leaders. Today that
/// is the per-routine cycle profiler; a trace sink would slot in here
/// the same way.
#[derive(Clone, Debug, Default)]
pub struct Instrumentation {
    profile_symbols: Option<Vec<(u32, String)>>,
}

impl Instrumentation {
    /// No instrumentation.
    pub fn none() -> Self {
        Instrumentation::default()
    }

    /// Per-routine cycle/activity profiling over the given routine
    /// table (from `Program::text_symbols`), exact on either tier.
    pub fn profile(text_symbols: &[(u32, String)]) -> Self {
        Instrumentation {
            profile_symbols: Some(text_symbols.to_vec()),
        }
    }
}

/// Builder for a [`Machine`] with an accelerator and/or instrumentation
/// attached — the only way to attach either, so the fast engine's
/// block leaders are decided before the first cycle, not mid-run.
pub struct MachineBuilder<'p> {
    program: &'p Program,
    config: MachineConfig,
    cop: Option<Box<dyn Coprocessor>>,
    instrumentation: Instrumentation,
}

impl MachineBuilder<'_> {
    /// Attaches an accelerator to the COP2 interface.
    pub fn coprocessor(mut self, cop: Box<dyn Coprocessor>) -> Self {
        self.cop = Some(cop);
        self
    }

    /// Attaches instrumentation (see [`Instrumentation`]).
    pub fn instrumentation(mut self, instrumentation: Instrumentation) -> Self {
        self.instrumentation = instrumentation;
        self
    }

    /// Builds the machine.
    pub fn build(self) -> Machine {
        let mut m = Machine::new(self.program, self.config);
        if let Some(cop) = self.cop {
            m.cop = cop;
        }
        if let Some(syms) = self.instrumentation.profile_symbols {
            m.profiler = Some(Box::new(PcProfiler::new(&syms)));
        }
        m
    }
}

/// A simulated Pete system: core, ROM, RAM, optional I-cache, optional
/// accelerator.
pub struct Machine {
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    ovflo: u32,
    pc: u32,
    pending_branch: Option<u32>,
    rom: Rom,
    ram: Ram,
    decoded: Vec<Option<Instr>>,
    /// Fast-engine translation table (`xlate`), built on first fast
    /// dispatch (with block leaders when profiled); reference-only
    /// machines never pay for it.
    xops: Option<XTable>,
    icache: Option<ICache>,
    cop: Box<dyn Coprocessor>,
    config: MachineConfig,
    // `MachineConfig` fields the inner loops read every instruction,
    // hoisted out of the nested struct once at construction.
    mult_latency: u32,
    div_latency: u32,
    extensions: bool,
    cycle: u64,
    counters: Counters,
    bht: [u8; 64],
    /// Cycle at which the Hi/Lo unit is free / its result is ready.
    mult_free_at: u64,
    /// Destination of the immediately preceding instruction if it was a
    /// load (for the load-use interlock).
    last_load_dest: Option<Reg>,
    halted: Option<u16>,
    /// Per-routine cycle profiler; `None` (the default) costs one
    /// branch per dispatch. Boxed so the unprofiled machine's layout
    /// stays a single pointer wide here.
    profiler: Option<Box<PcProfiler>>,
}

/// The retired-state counters a bill is measured between, snapshotted
/// when a stretch opens and again when it closes.
struct Retired {
    cycle: u64,
    instructions: u64,
    activity: ActivitySlice,
}

/// An open billing stretch: the snapshot it bills from, and the routine
/// whose PC range (`pc.wrapping_sub(start) < len`) it may not leave.
struct Stretch {
    from: Retired,
    routine: usize,
    start: u32,
    len: u32,
}

impl Machine {
    /// Builds a bare machine around a linked program (no accelerator,
    /// no instrumentation). Use [`Machine::builder`] to attach either.
    pub fn new(program: &Program, config: MachineConfig) -> Self {
        let rom = Rom::new(program.rom());
        let decoded = program
            .rom()
            .iter()
            .map(|&w| Instr::decode(w).ok())
            .collect();
        let mut regs = [0u32; 32];
        // Stack grows down from the top of RAM.
        regs[Reg::SP.num() as usize] = ule_isa::asm::RAM_BASE + ule_isa::asm::RAM_SIZE - 16;
        Machine {
            regs,
            hi: 0,
            lo: 0,
            ovflo: 0,
            pc: program.entry(),
            pending_branch: None,
            rom,
            ram: Ram::new(),
            decoded,
            xops: None,
            icache: config.icache.map(ICache::new),
            cop: Box::new(NoCoprocessor),
            config,
            mult_latency: config.mult_latency,
            div_latency: config.div_latency,
            extensions: config.extensions,
            cycle: 0,
            counters: Counters::default(),
            bht: [1; 64], // weakly not-taken
            mult_free_at: 0,
            last_load_dest: None,
            halted: None,
            profiler: None,
        }
    }

    /// Starts building a machine with attachments (accelerator,
    /// instrumentation).
    pub fn builder(program: &Program, config: MachineConfig) -> MachineBuilder<'_> {
        MachineBuilder {
            program,
            config,
            cop: None,
            instrumentation: Instrumentation::none(),
        }
    }

    /// Detaches the profiler, returning the per-routine breakdown
    /// accumulated so far (`None` if none was attached).
    pub fn take_profile(&mut self) -> Option<RoutineProfile> {
        self.profiler.take().map(|p| p.finish())
    }

    /// The data RAM (for injecting operands and reading results).
    pub fn ram(&self) -> &Ram {
        &self.ram
    }

    /// Mutable access to the data RAM.
    pub fn ram_mut(&mut self) -> &mut Ram {
        &mut self.ram
    }

    /// ROM access statistics.
    pub fn rom_stats(&self) -> MemStats {
        let mut s = self.rom.stats();
        if let Some(c) = &self.icache {
            s.line_reads += c.stats().rom_line_reads;
        }
        s
    }

    /// RAM access statistics (Pete's port; accelerator traffic is added
    /// via [`Ram::count_external`] at issue time).
    pub fn ram_stats(&self) -> MemStats {
        self.ram.stats()
    }

    /// Instruction-cache statistics, if a cache is configured.
    pub fn icache_stats(&self) -> Option<CacheStats> {
        self.icache.as_ref().map(|c| c.stats())
    }

    /// Accelerator statistics.
    pub fn cop_stats(&self) -> CopStats {
        self.cop.stats()
    }

    /// Event counters.
    pub fn counters(&self) -> Counters {
        let mut c = self.counters;
        c.cycles = self.cycle;
        c
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// The machine configuration.
    pub fn config(&self) -> MachineConfig {
        self.config
    }

    /// Current value of a GPR (testing).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.num() as usize]
    }

    /// Sets a GPR (argument injection for routine-level tests).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.num() as usize] = v;
        }
    }

    /// Sets the program counter (to call an individual routine).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Runs until `break` or the cycle limit, on the engine tier the
    /// options select.
    pub fn run_with(&mut self, opts: ExecOptions) -> RunExit {
        match opts.tier {
            EngineTier::Fast => self.run_fast(opts.max_cycles),
            EngineTier::Reference => {
                while self.halted.is_none() && self.cycle < opts.max_cycles {
                    self.step();
                }
            }
        }
        match self.halted {
            Some(code) => RunExit::Halted { code },
            None => RunExit::CycleLimit,
        }
    }

    /// The fast engine: dispatches pre-translated (and, where legal,
    /// fused) operations. Timing, counters and the profile are
    /// bit-identical to the reference interpreter. A profiled machine's
    /// table starts a dispatch at every routine entry and after every
    /// linking or register jump ([`xlate::profile_leaders`]), and its
    /// own loop ([`Machine::run_fast_profiled`]) bills the profiler, so
    /// this loop carries no profiling check at all.
    fn run_fast(&mut self, max_cycles: u64) {
        if self.xops.is_none() {
            let leaders = match &self.profiler {
                Some(p) => xlate::profile_leaders(&self.decoded, p.routine_starts()),
                None => Vec::new(),
            };
            self.xops = Some(xlate::translate(&self.decoded, &leaders));
        }
        // Move the table out for the duration of the loop so dispatch
        // needs no per-step Option check or re-borrow.
        let xt = self.xops.take().expect("translation table just built");
        if self.profiler.is_some() {
            self.run_fast_profiled(&xt, max_cycles);
        } else {
            while self.halted.is_none() && self.cycle < max_cycles {
                self.step_fast(&xt, max_cycles);
            }
        }
        self.xops = Some(xt);
    }

    /// The profiled dispatch loop. It bills once per **stretch**: a run
    /// of consecutive dispatches inside one routine's PC range that
    /// fires no shadow-stack event. A stretch closes before a dispatch
    /// whose PC leaves the range, and after every `jal`/`jalr`/`jr`
    /// dispatch (a lone dispatch on a profiled table), whose event is
    /// the stretch's. Per-instruction sums are associative, so the
    /// profile equals the reference tier's per-instruction billing.
    #[inline(never)]
    fn run_fast_profiled(&mut self, xt: &XTable, max_cycles: u64) {
        let mut open = self.open_stretch(self.retired());
        while self.halted.is_none() && self.cycle < max_cycles {
            let pc = self.pc;
            if pc.wrapping_sub(open.start) >= open.len {
                let now = self.bill(&open, None);
                open = self.open_stretch(now);
            }
            self.step_fast(xt, max_cycles);
            if let Some(event) = self.link_event(pc) {
                let now = self.bill(&open, Some(event));
                open = self.open_stretch(now);
            }
        }
        // Every dispatch retires at least one instruction; an empty
        // stretch must not bill, or it could create a node.
        if self.counters.instructions != open.from.instructions {
            self.bill(&open, None);
        }
    }

    /// Snapshot of the retired-state counters.
    fn retired(&self) -> Retired {
        Retired {
            cycle: self.cycle,
            instructions: self.counters.instructions,
            activity: self.activity_snapshot(),
        }
    }

    /// Opens a billing stretch at the current PC, billing from `from`
    /// (the current state). Out of line, like [`Machine::bill`], to
    /// keep the dispatch loops small.
    #[inline(never)]
    fn open_stretch(&self, from: Retired) -> Stretch {
        let p = self.profiler.as_ref().expect("profiled machine");
        let routine = p.routine_at(self.pc);
        Stretch {
            from,
            routine,
            start: p.routine_starts()[routine],
            len: p.routine_len(routine),
        }
    }

    /// The shadow-stack event of the instruction at `pc`, read after
    /// it retires: `get(rs)` is still the jump target then — `jr`
    /// writes no register and a linking `jalr` is classified as a
    /// call, not a jump.
    #[inline(always)]
    fn link_event(&self, pc: u32) -> Option<ControlEvent> {
        match self.decoded.get((pc / 4) as usize).copied().flatten() {
            Some(Instr::Jal { .. }) => Some(ControlEvent::Call {
                ret: pc.wrapping_add(8),
            }),
            Some(Instr::Jalr { rd, .. }) if rd != Reg::ZERO => Some(ControlEvent::Call {
                ret: pc.wrapping_add(8),
            }),
            Some(Instr::Jalr { rs, .. } | Instr::Jr { rs }) => Some(ControlEvent::JumpReg {
                target: self.get(rs),
            }),
            _ => None,
        }
    }

    /// Bills everything retired since `open` opened to the profiler,
    /// ending with `event`, and returns the snapshot it billed up to.
    #[inline(never)]
    fn bill(&mut self, open: &Stretch, event: Option<ControlEvent>) -> Retired {
        let now = self.retired();
        let activity = ActivitySlice::delta(&open.from.activity, &now.activity);
        if let Some(p) = self.profiler.as_mut() {
            p.bill(
                open.routine,
                now.instructions - open.from.instructions,
                now.cycle - open.from.cycle,
                &activity,
                event,
            );
        }
        now
    }

    /// Executes one architectural instruction (advancing time by its issue
    /// cycle plus any stalls) on the reference engine.
    fn step(&mut self) {
        if self.halted.is_some() {
            return;
        }
        let open = self
            .profiler
            .is_some()
            .then(|| self.open_stretch(self.retired()));
        let branch_target = self.pending_branch.take();
        let pc = self.pc;
        let instr = self.fetch(pc);
        self.counters.instructions += 1;

        // Load-use interlock (the one un-forwardable hazard, §2.2).
        self.interlock(xlate::src_mask(instr));

        // Base issue cycle.
        self.cycle += 1;
        let next_pc = self.execute(instr, pc);

        match branch_target {
            Some(target) => {
                // We just executed a delay slot; control transfers now.
                debug_assert!(
                    !instr.is_control_flow(),
                    "control-flow instruction in a delay slot at {pc:#x}"
                );
                self.pc = target;
            }
            None => self.pc = next_pc,
        }

        if let Some(open) = open {
            let event = self.link_event(pc);
            self.bill(&open, event);
        }
    }

    /// One fast-engine dispatch: a whole basic block (or a branch with
    /// its delay slot) where legal, a single translated op otherwise.
    /// Mirrors `step` exactly; profiling is billed around it. Inlined
    /// into both dispatch loops.
    #[inline(always)]
    fn step_fast(&mut self, xt: &XTable, max_cycles: u64) {
        let branch_target = self.pending_branch.take();
        let pc = self.pc;
        let seq = pc.wrapping_add(4);
        let op = xt
            .ops
            .get((pc >> 2) as usize)
            .copied()
            .unwrap_or(XOp::Invalid);
        match op {
            // A basic block dispatches whole when it starts outside a
            // delay slot and the cycle limit provably cannot interrupt
            // it (see `block_worst`): every member is non-halting, so
            // the reference engine would have stepped through all of
            // them too.
            XOp::Block {
                off,
                len,
                stalls,
                first_mask,
            } if branch_target.is_none()
                && self.cycle + self.block_worst(len, stalls) <= max_cycles =>
            {
                let members = &xt.pool[off as usize..off as usize + len as usize];
                self.block_body(pc, members, stalls, first_mask);
                self.last_load_dest = match members[len as usize - 1] {
                    BOp::Lw(m) => Some(m.rt),
                    _ => None,
                };
                self.pc = pc.wrapping_add(4 * len as u32);
            }
            // A block reached in a delay slot or at the cycle-limit
            // boundary executes only its first member; the next word's
            // own entry (a shorter suffix block, or a single op at the
            // run's tail) takes over from there.
            XOp::Block { off, .. } => {
                self.single_member(xt.pool[off as usize], pc, branch_target);
            }
            // A control-terminated block: the straight-line members,
            // the branch or jump, and its delay slot, all in one
            // dispatch. The terminator's interlock against a trailing
            // load member is folded into `stalls` at translation time;
            // the delay-slot member can never interlock (its
            // predecessor is the terminator, not a load).
            XOp::BlockBr { idx }
                if branch_target.is_none()
                    && self.cycle + self.blockbr_worst(&xt.brs[idx as usize]) <= max_cycles =>
            {
                let bb = &xt.brs[idx as usize];
                let members = &xt.pool[bb.off as usize..bb.off as usize + bb.len as usize];
                self.block_body(pc, members, bb.stalls, bb.first_mask);
                // Terminator and delay slot in the reference engine's
                // exact fetch order (branch word, wrong-path word on a
                // mispredict, delay word) — the I-cache state walk
                // depends on it.
                let br_pc = pc.wrapping_add(4 * bb.len as u32);
                self.fetch_access(br_pc);
                self.counters.instructions += 1;
                self.cycle += 1;
                match bb.term {
                    Term::Branch(b) => {
                        let taken = self.branch_taken(b);
                        self.branch_resolved(br_pc, b.target, taken);
                        self.exec_delay_member(bb.ds, br_pc.wrapping_add(4));
                        self.pc = self.pending_branch.take().unwrap_or(br_pc.wrapping_add(8));
                    }
                    Term::Jump { target, link } => {
                        if link {
                            self.set(Reg::RA, br_pc.wrapping_add(8));
                        }
                        self.exec_delay_member(bb.ds, br_pc.wrapping_add(4));
                        self.pc = target;
                    }
                    Term::JumpReg { rs, link } => {
                        let t = self.get(rs);
                        if let Some(rd) = link {
                            self.set(rd, br_pc.wrapping_add(8));
                        }
                        self.exec_delay_member(bb.ds, br_pc.wrapping_add(4));
                        self.pc = t;
                    }
                }
            }
            XOp::BlockBr { idx } => {
                self.single_member(
                    xt.pool[xt.brs[idx as usize].off as usize],
                    pc,
                    branch_target,
                );
            }
            XOp::Alu(a) => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(a.src_mask());
                self.cycle += 1;
                let v = self.alu_eval(a);
                self.set(a.rd, v);
                self.last_load_dest = None;
                self.pc = branch_target.unwrap_or(seq);
            }
            XOp::Lw(m) => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(1 << m.base.num());
                self.cycle += 1;
                self.lw_exec(m);
                self.last_load_dest = Some(m.rt);
                self.pc = branch_target.unwrap_or(seq);
            }
            XOp::Sw(m) => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(1 << m.base.num());
                self.cycle += 1;
                self.sw_exec(m);
                self.last_load_dest = None;
                self.pc = branch_target.unwrap_or(seq);
            }
            // Branch + delay slot in one dispatch: resolve (prediction,
            // penalty), run the delay-slot member, land on the
            // destination. The branch's interlock consumed
            // `last_load_dest`, so the delay member never stalls; the
            // worst case (see `pair_worst`) is entry interlock, branch,
            // mispredict, member, and two possible I-cache line misses.
            XOp::BranchDs(b, d)
                if branch_target.is_none() && self.cycle + self.pair_worst() <= max_cycles =>
            {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(b.src_mask());
                self.cycle += 1;
                let taken = self.branch_taken(b);
                self.branch_resolved(pc, b.target, taken);
                self.exec_delay_member(d, seq);
                self.pc = self.pending_branch.take().unwrap_or(pc.wrapping_add(8));
            }
            XOp::Branch(b) | XOp::BranchDs(b, _) => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(b.src_mask());
                self.cycle += 1;
                let taken = self.branch_taken(b);
                self.branch_resolved(pc, b.target, taken);
                self.last_load_dest = None;
                self.pc = branch_target.unwrap_or(seq);
            }
            // Jump + delay slot in one dispatch (calls and returns):
            // link, run the delay-slot member, land on the target. The
            // register target is read before the member executes, as
            // the reference does.
            XOp::JumpDs { target, link, ds }
                if branch_target.is_none() && self.cycle + self.pair_worst() <= max_cycles =>
            {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(0);
                self.cycle += 1;
                if link {
                    self.set(Reg::RA, pc.wrapping_add(8));
                }
                self.exec_delay_member(ds, seq);
                self.pc = target;
            }
            XOp::JumpRegDs { rs, link, ds }
                if branch_target.is_none() && self.cycle + self.pair_worst() <= max_cycles =>
            {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(1 << rs.num());
                self.cycle += 1;
                let t = self.get(rs);
                if let Some(rd) = link {
                    self.set(rd, pc.wrapping_add(8));
                }
                self.exec_delay_member(ds, seq);
                self.pc = t;
            }
            XOp::Jump { target, link } | XOp::JumpDs { target, link, .. } => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(0);
                self.cycle += 1;
                if link {
                    self.set(Reg::RA, pc.wrapping_add(8));
                }
                self.pending_branch = Some(target);
                self.last_load_dest = None;
                self.pc = branch_target.unwrap_or(seq);
            }
            XOp::JumpReg { rs, link } | XOp::JumpRegDs { rs, link, .. } => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(1 << rs.num());
                self.cycle += 1;
                let t = self.get(rs);
                if let Some(rd) = link {
                    self.set(rd, pc.wrapping_add(8));
                }
                self.pending_branch = Some(t);
                self.last_load_dest = None;
                self.pc = branch_target.unwrap_or(seq);
            }
            XOp::Break { code } => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(0);
                self.cycle += 1;
                self.halted = Some(code);
                self.last_load_dest = None;
                self.pc = branch_target.unwrap_or(seq);
            }
            XOp::Other(i) => {
                self.fetch_access(pc);
                self.counters.instructions += 1;
                self.interlock(xlate::src_mask(i));
                self.cycle += 1;
                let next = self.execute(i, pc);
                self.pc = branch_target.unwrap_or(next);
            }
            XOp::Invalid => {
                // Keep the reference engine's exact fetch accounting
                // and panic message.
                self.fetch_access(pc);
                panic!("fetch of a non-instruction word at {pc:#010x}");
            }
        }
    }

    /// Evaluates a translated branch condition.
    #[inline(always)]
    fn branch_taken(&self, b: BranchOp) -> bool {
        match b.cond {
            BrCond::Beq => self.get(b.rs) == self.get(b.rt),
            BrCond::Bne => self.get(b.rs) != self.get(b.rt),
            BrCond::Blez => (self.get(b.rs) as i32) <= 0,
            BrCond::Bgtz => (self.get(b.rs) as i32) > 0,
            BrCond::Bltz => (self.get(b.rs) as i32) < 0,
            BrCond::Bgez => (self.get(b.rs) as i32) >= 0,
        }
    }

    /// Evaluates a translated single-cycle ALU op — the same extension
    /// and wrapping rules as the corresponding `execute` arms.
    #[inline(always)]
    fn alu_eval(&self, op: AluOp) -> u32 {
        use AluKind::*;
        let rs = self.get(op.rs);
        let rt = self.get(op.rt);
        match op.kind {
            Addu => rs.wrapping_add(rt),
            Subu => rs.wrapping_sub(rt),
            And => rs & rt,
            Or => rs | rt,
            Xor => rs ^ rt,
            Nor => !(rs | rt),
            Slt => ((rs as i32) < rt as i32) as u32,
            Sltu => (rs < rt) as u32,
            Sllv => rt << (rs & 31),
            Srlv => rt >> (rs & 31),
            Srav => ((rt as i32) >> (rs & 31)) as u32,
            SllI => rt << op.imm,
            SrlI => rt >> op.imm,
            SraI => ((rt as i32) >> op.imm) as u32,
            Addiu => rs.wrapping_add(op.imm),
            Slti => ((rs as i32) < op.imm as i32) as u32,
            Sltiu => (rs < op.imm) as u32,
            Andi => rs & op.imm,
            Ori => rs | op.imm,
            Xori => rs ^ op.imm,
            Lui => op.imm,
        }
    }

    /// Word-load semantics of a translated `lw`.
    #[inline(always)]
    fn lw_exec(&mut self, m: MemOp) {
        let addr = self.get(m.base).wrapping_add(m.offset as i32 as u32);
        let v = self.load_word(addr);
        self.set(m.rt, v);
    }

    /// Word-store semantics of a translated `sw`.
    #[inline(always)]
    fn sw_exec(&mut self, m: MemOp) {
        let addr = self.get(m.base).wrapping_add(m.offset as i32 as u32);
        assert!(addr.is_multiple_of(4), "unaligned sw at {addr:#x}");
        self.ram.write(addr, self.get(m.rt));
    }

    /// The counted memory-system and coprocessor statistics, folded
    /// into the profiler's [`ActivitySlice`] shape. Purely observational
    /// (never advances time), so a profiled run stays bit-identical to
    /// an unprofiled one.
    fn activity_snapshot(&self) -> ActivitySlice {
        let rom = self.rom.stats();
        let ram = self.ram.stats();
        let (ic_accesses, ic_misses, ic_lines) = match &self.icache {
            Some(c) => {
                let s = c.stats();
                (s.accesses, s.misses, s.rom_line_reads)
            }
            None => (0, 0, 0),
        };
        let cop = self.cop.stats();
        ActivitySlice {
            rom_reads: rom.reads,
            rom_line_reads: rom.line_reads + ic_lines,
            ram_reads: ram.reads,
            ram_writes: ram.writes,
            icache_accesses: ic_accesses,
            icache_misses: ic_misses,
            cop_mul_ops: cop.mul_ops,
            cop_ls_ops: cop.ls_ops,
        }
    }

    fn stall(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.counters.stall_cycles += cycles;
    }

    fn stall_until(&mut self, cycle: u64) -> u64 {
        if cycle > self.cycle {
            let d = cycle - self.cycle;
            self.stall(d);
            d
        } else {
            0
        }
    }

    /// Fetch-side accounting for one instruction at `pc`: fetch count
    /// plus the I-cache access (with its stall) or the ROM word read.
    #[inline(always)]
    fn fetch_access(&mut self, pc: u32) {
        self.counters.fetches += 1;
        match &mut self.icache {
            Some(cache) => {
                let outcome = cache.access(pc);
                if outcome.stall > 0 {
                    self.stall(outcome.stall as u64);
                }
                // Line traffic is accounted in the cache stats and merged
                // in rom_stats().
            }
            None => {
                // Dual-port ROM: one 32-bit read per fetch (§5.1).
                let _ = self.rom.fetch(pc);
            }
        }
    }

    /// Worst-case cycle cost of dispatching a whole block: `len` issue
    /// cycles, the static internal stalls, at most one dynamic entry
    /// interlock, and (with an I-cache) a miss on every 16-byte line
    /// the block can touch. Conservative on purpose — a guard miss only
    /// means falling back to single-op dispatch, which is always exact.
    #[inline(always)]
    fn block_worst(&self, len: u16, stalls: u16) -> u64 {
        let fetch_worst = match self.config.icache {
            Some(c) => c.miss_penalty as u64 * (len as u64 / 4 + 2),
            None => 0,
        };
        len as u64 + stalls as u64 + 1 + fetch_worst
    }

    /// Worst-case cost of a branch-terminated block dispatch: the
    /// block itself, the branch and delay-slot issue cycles, a
    /// possible mispredict stall, and (with an I-cache) misses on the
    /// two extra words' lines.
    #[inline(always)]
    fn blockbr_worst(&self, bb: &BrBlock) -> u64 {
        self.block_worst(bb.len, bb.stalls)
            + 3
            + self.config.icache.map_or(0, |c| 2 * c.miss_penalty as u64)
    }

    /// Worst-case cost of a fused branch-or-jump + delay-slot pair:
    /// the dynamic entry interlock, two issue cycles, a possible
    /// mispredict stall, and (with an I-cache) misses on both words'
    /// lines.
    #[inline(always)]
    fn pair_worst(&self) -> u64 {
        4 + self.config.icache.map_or(0, |c| 2 * c.miss_penalty as u64)
    }

    /// Fetches and executes a fused dispatch's delay-slot member at
    /// `seq`. The member never interlocks (its predecessor is the
    /// branch or jump, never a load); sets `last_load_dest` for the
    /// successor.
    #[inline(always)]
    fn exec_delay_member(&mut self, d: BOp, seq: u32) {
        self.fetch_access(seq);
        self.counters.instructions += 1;
        self.cycle += 1;
        match d {
            BOp::Alu(a) => {
                let v = self.alu_eval(a);
                self.set(a.rd, v);
                self.last_load_dest = None;
            }
            BOp::Lw(m) => {
                self.lw_exec(m);
                self.last_load_dest = Some(m.rt);
            }
            BOp::Sw(m) => {
                self.sw_exec(m);
                self.last_load_dest = None;
            }
        }
    }

    /// The batched core of a whole-block dispatch: fetch accounting
    /// for the members' sequential words, the dynamic entry interlock,
    /// the statically-summed issue cycles and stalls, and every
    /// member's data semantics. `last_load_dest` is left to the caller.
    #[inline(always)]
    fn block_body(&mut self, pc: u32, members: &[BOp], stalls: u16, first_mask: u32) {
        let len = members.len() as u64;
        self.counters.fetches += len;
        let fetch_stalls = match &mut self.icache {
            Some(cache) => {
                // Only the first access of each 16-byte line is
                // dynamic (hit/miss/prefetch); the line's other words
                // are guaranteed hits — nothing can evict a line under
                // a straight-line block, and a hit touches no cache
                // state beyond the access counter.
                let mut stall_total = 0u64;
                let mut p = pc;
                let end = pc.wrapping_add(4 * len as u32);
                while p < end {
                    let chunk = ((p | 15) + 1).min(end);
                    stall_total += cache.access(p).stall as u64;
                    cache.sequential_hits((chunk - p) as u64 / 4 - 1);
                    p = chunk;
                }
                stall_total
            }
            None => {
                // Dual-port ROM: one 32-bit read per fetch.
                self.rom.note_fetches(len);
                0
            }
        };
        if fetch_stalls > 0 {
            self.stall(fetch_stalls);
        }
        self.counters.instructions += len;
        self.interlock(first_mask);
        self.cycle += len + stalls as u64;
        self.counters.stall_cycles += stalls as u64;
        self.counters.load_use_stalls += stalls as u64;
        for m in members {
            match *m {
                BOp::Alu(a) => {
                    let v = self.alu_eval(a);
                    self.set(a.rd, v);
                }
                BOp::Lw(m) => self.lw_exec(m),
                BOp::Sw(m) => self.sw_exec(m),
            }
        }
    }

    /// Single-step fallback for a block entry reached in a delay slot
    /// or too close to the cycle limit: executes just the first
    /// member; the next word's own (shorter) entry takes over.
    #[inline(always)]
    fn single_member(&mut self, m: BOp, pc: u32, branch_target: Option<u32>) {
        self.fetch_access(pc);
        self.counters.instructions += 1;
        self.interlock(m.src_mask());
        self.cycle += 1;
        match m {
            BOp::Alu(a) => {
                let v = self.alu_eval(a);
                self.set(a.rd, v);
                self.last_load_dest = None;
            }
            BOp::Lw(m) => {
                self.lw_exec(m);
                self.last_load_dest = Some(m.rt);
            }
            BOp::Sw(m) => {
                self.sw_exec(m);
                self.last_load_dest = None;
            }
        }
        self.pc = branch_target.unwrap_or(pc.wrapping_add(4));
    }

    fn fetch(&mut self, pc: u32) -> Instr {
        self.fetch_access(pc);
        match self.decoded.get((pc / 4) as usize) {
            Some(&Some(i)) => i,
            _ => panic!("fetch of a non-instruction word at {pc:#010x}"),
        }
    }

    /// Account a wasted wrong-path fetch after a misprediction.
    fn wasted_fetch(&mut self, pc: u32) {
        self.counters.fetches += 1;
        match &mut self.icache {
            Some(cache) => {
                let _ = cache.access(pc);
            }
            None => {
                let _ = self.rom.fetch(pc);
            }
        }
    }

    /// The load-use interlock check against the previous instruction's
    /// load destination; `mask` is the current instruction's
    /// execute-stage source-register bitmask ([`xlate::src_mask`]).
    #[inline(always)]
    fn interlock(&mut self, mask: u32) {
        if let Some(dest) = self.last_load_dest.take() {
            if dest != Reg::ZERO && mask >> dest.num() & 1 != 0 {
                self.stall(1);
                self.counters.load_use_stalls += 1;
            }
        }
    }

    fn get(&self, r: Reg) -> u32 {
        self.regs[r.num() as usize]
    }

    fn set(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.num() as usize] = v;
        }
    }

    fn acc(&self) -> u128 {
        ((self.ovflo as u128) << 64) | ((self.hi as u128) << 32) | self.lo as u128
    }

    fn set_acc(&mut self, v: u128) {
        let v = v & ((1u128 << 96) - 1);
        self.lo = v as u32;
        self.hi = (v >> 32) as u32;
        self.ovflo = (v >> 64) as u32;
    }

    /// Issues into the Hi/Lo unit: stall if busy, then occupy it.
    fn hilo_issue(&mut self, latency: u32) {
        let stalled = self.stall_until(self.mult_free_at);
        self.counters.mult_stalls += stalled;
        self.mult_free_at = self.cycle + latency as u64;
        self.counters.mult_active_cycles += latency as u64;
    }

    /// Reads from the Hi/Lo unit: stall until the result is ready.
    fn hilo_wait(&mut self) {
        let stalled = self.stall_until(self.mult_free_at);
        self.counters.mult_stalls += stalled;
    }

    fn require_ext(&self, i: Instr) {
        assert!(
            self.extensions,
            "ISA-extension instruction {i} on a non-extended machine"
        );
    }

    fn load_word(&mut self, addr: u32) -> u32 {
        assert!(addr.is_multiple_of(4), "unaligned word access at {addr:#x}");
        if Ram::contains(addr) {
            self.ram.read(addr)
        } else {
            self.rom.read(addr)
        }
    }

    fn load_sub(&mut self, addr: u32, bytes: u32) -> u32 {
        let word_addr = addr & !3;
        let word = if Ram::contains(word_addr) {
            self.ram.read(word_addr)
        } else {
            self.rom.read(word_addr)
        };
        let shift = 8 * (addr & 3);
        let mask = if bytes == 1 { 0xff } else { 0xffff };
        (word >> shift) & mask
    }

    fn store_sub(&mut self, addr: u32, bytes: u32, value: u32) {
        let word_addr = addr & !3;
        let old = self.ram.peek(word_addr);
        let shift = 8 * (addr & 3);
        let mask: u32 = if bytes == 1 { 0xff } else { 0xffff };
        let new = (old & !(mask << shift)) | ((value & mask) << shift);
        self.ram.write(word_addr, new);
    }

    /// Executes the instruction's semantics and timing; returns the next
    /// sequential PC (branches instead arm `pending_branch`). Shared by
    /// both engines: the fast tier routes everything it does not
    /// translate ([`XOp::Other`]) through here.
    fn execute(&mut self, instr: Instr, pc: u32) -> u32 {
        use Instr::*;
        let seq = pc.wrapping_add(4);
        let mut next = seq;
        let mut loaded: Option<Reg> = None;
        match instr {
            Addu { rd, rs, rt } => self.set(rd, self.get(rs).wrapping_add(self.get(rt))),
            Subu { rd, rs, rt } => self.set(rd, self.get(rs).wrapping_sub(self.get(rt))),
            And { rd, rs, rt } => self.set(rd, self.get(rs) & self.get(rt)),
            Or { rd, rs, rt } => self.set(rd, self.get(rs) | self.get(rt)),
            Xor { rd, rs, rt } => self.set(rd, self.get(rs) ^ self.get(rt)),
            Nor { rd, rs, rt } => self.set(rd, !(self.get(rs) | self.get(rt))),
            Slt { rd, rs, rt } => {
                self.set(rd, ((self.get(rs) as i32) < self.get(rt) as i32) as u32)
            }
            Sltu { rd, rs, rt } => self.set(rd, (self.get(rs) < self.get(rt)) as u32),
            Sllv { rd, rt, rs } => self.set(rd, self.get(rt) << (self.get(rs) & 31)),
            Srlv { rd, rt, rs } => self.set(rd, self.get(rt) >> (self.get(rs) & 31)),
            Srav { rd, rt, rs } => {
                self.set(rd, ((self.get(rt) as i32) >> (self.get(rs) & 31)) as u32)
            }
            Sll { rd, rt, shamt } => self.set(rd, self.get(rt) << shamt),
            Srl { rd, rt, shamt } => self.set(rd, self.get(rt) >> shamt),
            Sra { rd, rt, shamt } => self.set(rd, ((self.get(rt) as i32) >> shamt) as u32),
            Addiu { rt, rs, imm } => self.set(rt, self.get(rs).wrapping_add(imm as i32 as u32)),
            Slti { rt, rs, imm } => self.set(rt, ((self.get(rs) as i32) < imm as i32) as u32),
            Sltiu { rt, rs, imm } => self.set(rt, (self.get(rs) < imm as i32 as u32) as u32),
            Andi { rt, rs, imm } => self.set(rt, self.get(rs) & imm as u32),
            Ori { rt, rs, imm } => self.set(rt, self.get(rs) | imm as u32),
            Xori { rt, rs, imm } => self.set(rt, self.get(rs) ^ imm as u32),
            Lui { rt, imm } => self.set(rt, (imm as u32) << 16),
            Mult { rs, rt } => {
                self.hilo_issue(self.mult_latency);
                self.counters.mult_ops += 1;
                let p = (self.get(rs) as i32 as i64) * (self.get(rt) as i32 as i64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
                self.ovflo = 0;
            }
            Multu { rs, rt } => {
                self.hilo_issue(self.mult_latency);
                self.counters.mult_ops += 1;
                let p = (self.get(rs) as u64) * (self.get(rt) as u64);
                self.lo = p as u32;
                self.hi = (p >> 32) as u32;
                self.ovflo = 0;
            }
            Div { rs, rt } => {
                self.hilo_issue(self.div_latency);
                self.counters.div_ops += 1;
                let (a, b) = (self.get(rs) as i32, self.get(rt) as i32);
                if b == 0 {
                    self.lo = u32::MAX;
                    self.hi = a as u32;
                } else {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
                self.ovflo = 0;
            }
            Divu { rs, rt } => {
                self.hilo_issue(self.div_latency);
                self.counters.div_ops += 1;
                let (a, b) = (self.get(rs), self.get(rt));
                // MIPS divide-by-zero: lo/hi take defined junk values.
                #[allow(clippy::manual_checked_ops)]
                if b == 0 {
                    self.lo = u32::MAX;
                    self.hi = a;
                } else {
                    self.lo = a / b;
                    self.hi = a % b;
                }
                self.ovflo = 0;
            }
            Mfhi { rd } => {
                self.hilo_wait();
                self.set(rd, self.hi);
            }
            Mflo { rd } => {
                self.hilo_wait();
                self.set(rd, self.lo);
            }
            Mthi { rs } => {
                self.hilo_wait();
                self.hi = self.get(rs);
            }
            Mtlo { rs } => {
                self.hilo_wait();
                self.lo = self.get(rs);
            }
            Lw { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                let v = self.load_word(addr);
                self.set(rt, v);
                loaded = Some(rt);
            }
            Lh { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                let v = self.load_sub(addr, 2);
                self.set(rt, v as u16 as i16 as i32 as u32);
                loaded = Some(rt);
            }
            Lhu { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                let v = self.load_sub(addr, 2);
                self.set(rt, v);
                loaded = Some(rt);
            }
            Lb { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                let v = self.load_sub(addr, 1);
                self.set(rt, v as u8 as i8 as i32 as u32);
                loaded = Some(rt);
            }
            Lbu { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                let v = self.load_sub(addr, 1);
                self.set(rt, v);
                loaded = Some(rt);
            }
            Sw { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                assert!(addr.is_multiple_of(4), "unaligned sw at {addr:#x}");
                self.ram.write(addr, self.get(rt));
            }
            Sh { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                self.store_sub(addr, 2, self.get(rt));
            }
            Sb { rt, base, offset } => {
                let addr = self.get(base).wrapping_add(offset as i32 as u32);
                self.store_sub(addr, 1, self.get(rt));
            }
            Beq { rs, rt, offset } => {
                let taken = self.get(rs) == self.get(rt);
                self.branch(pc, seq, offset, taken, &mut next);
            }
            Bne { rs, rt, offset } => {
                let taken = self.get(rs) != self.get(rt);
                self.branch(pc, seq, offset, taken, &mut next);
            }
            Blez { rs, offset } => {
                let taken = (self.get(rs) as i32) <= 0;
                self.branch(pc, seq, offset, taken, &mut next);
            }
            Bgtz { rs, offset } => {
                let taken = (self.get(rs) as i32) > 0;
                self.branch(pc, seq, offset, taken, &mut next);
            }
            Bltz { rs, offset } => {
                let taken = (self.get(rs) as i32) < 0;
                self.branch(pc, seq, offset, taken, &mut next);
            }
            Bgez { rs, offset } => {
                let taken = (self.get(rs) as i32) >= 0;
                self.branch(pc, seq, offset, taken, &mut next);
            }
            J { target } => {
                self.pending_branch = Some((seq & 0xf000_0000) | (target << 2));
            }
            Jal { target } => {
                self.set(Reg::RA, pc.wrapping_add(8));
                self.pending_branch = Some((seq & 0xf000_0000) | (target << 2));
            }
            Jr { rs } => {
                self.pending_branch = Some(self.get(rs));
            }
            Jalr { rd, rs } => {
                let t = self.get(rs);
                self.set(rd, pc.wrapping_add(8));
                self.pending_branch = Some(t);
            }
            Break { code } => {
                self.halted = Some(code);
            }
            Maddu { rs, rt } => {
                self.require_ext(instr);
                self.hilo_issue(self.mult_latency);
                self.counters.mult_ops += 1;
                let p = (self.get(rs) as u128) * (self.get(rt) as u128);
                self.set_acc(self.acc().wrapping_add(p));
            }
            M2addu { rs, rt } => {
                self.require_ext(instr);
                self.hilo_issue(self.mult_latency);
                self.counters.mult_ops += 1;
                let p = (self.get(rs) as u128) * (self.get(rt) as u128) * 2;
                self.set_acc(self.acc().wrapping_add(p));
            }
            Addau { rs, rt } => {
                self.require_ext(instr);
                self.hilo_issue(1);
                let v = ((self.get(rs) as u128) << 32) + self.get(rt) as u128;
                self.set_acc(self.acc().wrapping_add(v));
            }
            Sha => {
                self.require_ext(instr);
                self.hilo_issue(1);
                self.set_acc(self.acc() >> 32);
            }
            Mulgf2 { rs, rt } => {
                self.require_ext(instr);
                self.hilo_issue(self.mult_latency);
                self.counters.mult_ops += 1;
                self.set_acc(clmul32(self.get(rs), self.get(rt)) as u128);
            }
            Maddgf2 { rs, rt } => {
                self.require_ext(instr);
                self.hilo_issue(self.mult_latency);
                self.counters.mult_ops += 1;
                self.set_acc(self.acc() ^ clmul32(self.get(rs), self.get(rt)) as u128);
            }
            Ctc2 { .. }
            | Cop2Sync
            | Cop2LdA { .. }
            | Cop2LdB { .. }
            | Cop2LdN { .. }
            | Cop2Mul
            | Cop2Add
            | Cop2Sub
            | Cop2St { .. }
            | BilLd { .. }
            | BilSt { .. }
            | BilMul { .. }
            | BilSqr { .. }
            | BilAdd { .. } => {
                self.counters.cop2_ops += 1;
                if instr == Cop2Sync {
                    let idle = self.cop.idle_at();
                    let stalled = self.stall_until(idle);
                    self.counters.cop2_stalls += stalled;
                } else {
                    let rt_val = match instr {
                        Ctc2 { rt, .. }
                        | Cop2LdA { rt }
                        | Cop2LdB { rt }
                        | Cop2LdN { rt }
                        | Cop2St { rt }
                        | BilLd { rt, .. }
                        | BilSt { rt, .. } => self.get(rt),
                        _ => 0,
                    };
                    let resume = self.cop.issue(instr, rt_val, self.cycle, &mut self.ram);
                    let stalled = self.stall_until(resume);
                    self.counters.cop2_stalls += stalled;
                }
            }
        }
        self.last_load_dest = loaded;
        next
    }

    fn branch(&mut self, pc: u32, seq: u32, offset: i16, taken: bool, next: &mut u32) {
        let target = seq.wrapping_add((offset as i32 as u32) << 2);
        self.branch_resolved(pc, target, taken);
        *next = seq;
    }

    /// Predictor consultation/update and misprediction accounting for a
    /// branch whose target address is already resolved. Shared by both
    /// engines.
    fn branch_resolved(&mut self, pc: u32, target: u32, taken: bool) {
        self.counters.branches += 1;
        let idx = ((pc >> 2) & 63) as usize;
        let predicted_taken = self.bht[idx] >= 2;
        if predicted_taken != taken {
            self.counters.mispredicts += 1;
            self.stall(1);
            // One wrong-path instruction was fetched and flushed.
            let wrong = if taken { pc.wrapping_add(8) } else { target };
            self.wasted_fetch(wrong);
        }
        // 2-bit saturating update.
        self.bht[idx] = match (self.bht[idx], taken) {
            (c, true) if c < 3 => c + 1,
            (c, false) if c > 0 => c - 1,
            (c, _) => c,
        };
        if taken {
            self.pending_branch = Some(target);
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &format_args!("{:#010x}", self.pc))
            .field("cycle", &self.cycle)
            .field("halted", &self.halted)
            .field("cop", &self.cop.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_isa::asm::{Asm, Program};

    fn run(asm: Asm) -> Machine {
        run_cfg(asm, MachineConfig::isa_ext())
    }

    /// Runs the program on BOTH engine tiers with the given config and
    /// asserts bit-identical architectural state, counters, and memory
    /// statistics — every unit test below doubles as an A/B test of
    /// the fast engine. Returns the fast-tier machine.
    fn run_cfg(asm: Asm, cfg: MachineConfig) -> Machine {
        let p = asm.link("main").expect("link");
        run_both(&p, cfg, 1_000_000)
    }

    fn run_both(p: &ule_isa::asm::Program, cfg: MachineConfig, max_cycles: u64) -> Machine {
        let mut fast = Machine::new(p, cfg);
        let exit_fast = fast.run_with(ExecOptions::new(max_cycles).with_tier(EngineTier::Fast));
        let mut reference = Machine::new(p, cfg);
        let exit_ref =
            reference.run_with(ExecOptions::new(max_cycles).with_tier(EngineTier::Reference));
        assert_eq!(exit_fast, exit_ref, "tiers disagree on exit");
        assert_eq!(
            exit_ref,
            RunExit::Halted { code: 0 },
            "program did not halt"
        );
        assert_tiers_equal(&fast, &reference);
        fast
    }

    fn assert_tiers_equal(fast: &Machine, reference: &Machine) {
        assert_eq!(fast.counters(), reference.counters(), "counters diverge");
        assert_eq!(fast.regs, reference.regs, "registers diverge");
        assert_eq!(
            (fast.hi, fast.lo, fast.ovflo, fast.pc),
            (reference.hi, reference.lo, reference.ovflo, reference.pc),
            "core state diverges"
        );
        assert_eq!(fast.rom_stats(), reference.rom_stats(), "ROM stats diverge");
        assert_eq!(fast.ram_stats(), reference.ram_stats(), "RAM stats diverge");
        assert_eq!(
            fast.icache_stats(),
            reference.icache_stats(),
            "I$ stats diverge"
        );
    }

    #[test]
    fn arithmetic_basics() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 40);
        a.addiu(Reg::T1, Reg::T0, 2);
        a.subu(Reg::T2, Reg::T1, Reg::T0);
        a.sll(Reg::T3, Reg::T1, 4);
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T1), 42);
        assert_eq!(m.reg(Reg::T2), 2);
        assert_eq!(m.reg(Reg::T3), 42 << 4);
    }

    #[test]
    fn memory_round_trip_and_subword() {
        let mut a = Asm::new();
        let buf = a.ram_alloc("buf", 2);
        a.label("main");
        a.li(Reg::T0, buf as i64);
        a.li(Reg::T1, 0x1234_5678);
        a.sw(Reg::T1, 0, Reg::T0);
        a.lw(Reg::T2, 0, Reg::T0);
        a.lbu(Reg::T3, 1, Reg::T0); // byte 1 = 0x56
        a.lhu(Reg::T4, 2, Reg::T0); // upper half = 0x1234
        a.li(Reg::T5, 0xab);
        a.sb(Reg::T5, 0, Reg::T0);
        a.lw(Reg::T6, 0, Reg::T0);
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T2), 0x1234_5678);
        assert_eq!(m.reg(Reg::T3), 0x56);
        assert_eq!(m.reg(Reg::T4), 0x1234);
        assert_eq!(m.reg(Reg::T6), 0x1234_56ab);
    }

    #[test]
    fn loop_and_branch() {
        // sum 1..=10
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 10);
        a.li(Reg::T1, 0);
        a.label("loop");
        a.addu(Reg::T1, Reg::T1, Reg::T0);
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, "loop");
        a.nop();
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T1), 55);
        assert_eq!(m.counters().branches, 10);
    }

    #[test]
    fn delay_slot_always_executes() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 0);
        a.b("skip");
        a.addiu(Reg::T0, Reg::T0, 1); // delay slot: executes
        a.addiu(Reg::T0, Reg::T0, 100); // skipped
        a.label("skip");
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T0), 1);
    }

    #[test]
    fn jal_links_past_delay_slot() {
        let mut a = Asm::new();
        a.label("main");
        a.jal("fn");
        a.li(Reg::T5, 7); // delay slot
        a.brk(0);
        a.label("fn");
        a.jr(Reg::RA);
        a.li(Reg::T6, 9); // delay slot
        let m = run(a);
        assert_eq!(m.reg(Reg::T5), 7);
        assert_eq!(m.reg(Reg::T6), 9);
    }

    #[test]
    fn multiplier_latency_and_stalls() {
        // mflo immediately after mult must stall ~4 cycles.
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 1000);
        a.li(Reg::T1, 999);
        a.multu(Reg::T0, Reg::T1);
        a.mflo(Reg::T2);
        a.mfhi(Reg::T3);
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T2), 999_000);
        assert_eq!(m.reg(Reg::T3), 0);
        assert!(m.counters().mult_stalls >= 3, "{:?}", m.counters());

        // Independent instructions between mult and mflo hide the latency.
        let mut b = Asm::new();
        b.label("main");
        b.li(Reg::T0, 1000);
        b.li(Reg::T1, 999);
        b.multu(Reg::T0, Reg::T1);
        b.addiu(Reg::T4, Reg::ZERO, 1);
        b.addiu(Reg::T5, Reg::ZERO, 2);
        b.addiu(Reg::T6, Reg::ZERO, 3);
        b.addiu(Reg::T7, Reg::ZERO, 4);
        b.mflo(Reg::T2);
        b.brk(0);
        let m2 = run(b);
        assert_eq!(m2.reg(Reg::T2), 999_000);
        assert_eq!(m2.counters().mult_stalls, 0, "{:?}", m2.counters());
    }

    #[test]
    fn signed_multiply_and_divide() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, -6i64);
        a.li(Reg::T1, 7);
        a.mult(Reg::T0, Reg::T1);
        a.mflo(Reg::T2); // -42
        a.li(Reg::T3, 43);
        a.li(Reg::T4, 5);
        a.divu(Reg::T3, Reg::T4);
        a.mflo(Reg::T5); // 8
        a.mfhi(Reg::T6); // 3
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T2) as i32, -42);
        assert_eq!(m.reg(Reg::T5), 8);
        assert_eq!(m.reg(Reg::T6), 3);
        assert!(m.counters().div_ops == 1);
    }

    #[test]
    fn load_use_stall_detected() {
        let mut a = Asm::new();
        let buf = a.ram_alloc("buf", 1);
        a.label("main");
        a.li(Reg::T0, buf as i64);
        a.li(Reg::T1, 5);
        a.sw(Reg::T1, 0, Reg::T0);
        a.lw(Reg::T2, 0, Reg::T0);
        a.addiu(Reg::T3, Reg::T2, 1); // load-use!
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T3), 6);
        assert_eq!(m.counters().load_use_stalls, 1);
    }

    #[test]
    fn maddu_accumulator_chain() {
        // (OvFlo,Hi,Lo) accumulates 3 products then SHA shifts out words.
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 0xffff_ffffu32 as i64);
        a.mtlo(Reg::ZERO);
        a.mthi(Reg::ZERO);
        a.maddu(Reg::T0, Reg::T0); // (2^32-1)^2
        a.maddu(Reg::T0, Reg::T0);
        a.maddu(Reg::T0, Reg::T0);
        a.mflo(Reg::T1);
        a.sha();
        a.mflo(Reg::T2);
        a.sha();
        a.mflo(Reg::T3);
        a.brk(0);
        let m = run(a);
        let total = 3u128 * 0xffff_ffffu128 * 0xffff_ffff;
        assert_eq!(m.reg(Reg::T1), total as u32);
        assert_eq!(m.reg(Reg::T2), (total >> 32) as u32);
        assert_eq!(m.reg(Reg::T3), (total >> 64) as u32);
    }

    #[test]
    fn m2addu_and_addau() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 3);
        a.li(Reg::T1, 5);
        a.mtlo(Reg::ZERO);
        a.mthi(Reg::ZERO);
        a.m2addu(Reg::T0, Reg::T1); // acc = 30
        a.li(Reg::T2, 2);
        a.li(Reg::T3, 7);
        a.addau(Reg::T2, Reg::T3); // acc += (2<<32) + 7
        a.mflo(Reg::T4);
        a.sha();
        a.mflo(Reg::T5);
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T4), 37);
        assert_eq!(m.reg(Reg::T5), 2);
    }

    /// `MULGF2`/`MADDGF2` on both tiers against a bit-serial carry-less
    /// product, on small and edge operands (`0`, `1`, `0xffff_ffff`).
    #[test]
    fn carry_less_extensions() {
        let serial = |a: u32, b: u32| {
            (0..32)
                .filter(|i| (b >> i) & 1 == 1)
                .fold(0u64, |acc, i| acc ^ ((a as u64) << i))
        };
        let ops = [0u32, 1, 0b11, 0xffff_ffff];
        let addends = [
            (0b10u32, 0b111u32),
            (0xffff_ffff, 0xffff_ffff),
            (1, 0xffff_ffff),
            (0, 1),
        ];
        for &a0 in &ops {
            for &b0 in &ops {
                for &(a1, b1) in &addends {
                    let mut asm = Asm::new();
                    asm.label("main");
                    asm.li(Reg::T0, a0 as i64);
                    asm.li(Reg::T1, b0 as i64);
                    asm.mulgf2(Reg::T0, Reg::T1);
                    asm.mfhi(Reg::T2);
                    asm.mflo(Reg::T3);
                    asm.li(Reg::T4, a1 as i64);
                    asm.li(Reg::T5, b1 as i64);
                    asm.maddgf2(Reg::T4, Reg::T5);
                    asm.mfhi(Reg::T6);
                    asm.mflo(Reg::T7);
                    asm.brk(0);
                    let m = run(asm);
                    let mul = serial(a0, b0);
                    let madd = mul ^ serial(a1, b1);
                    let hi_lo = |hi: Reg, lo: Reg| ((m.reg(hi) as u64) << 32) | m.reg(lo) as u64;
                    assert_eq!(hi_lo(Reg::T2, Reg::T3), mul, "mulgf2 {a0:#x} {b0:#x}");
                    assert_eq!(hi_lo(Reg::T6, Reg::T7), madd, "maddgf2 {a1:#x} {b1:#x}");
                }
            }
        }
    }

    #[test]
    fn extension_requires_config() {
        let mut a = Asm::new();
        a.label("main");
        a.maddu(Reg::T0, Reg::T1);
        a.brk(0);
        let p = a.link("main").unwrap();
        for tier in [EngineTier::Fast, EngineTier::Reference] {
            let mut m = Machine::new(&p, MachineConfig::baseline());
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.run_with(ExecOptions::new(1000).with_tier(tier));
            }));
            assert!(result.is_err(), "baseline must reject extension instrs");
        }
    }

    #[test]
    fn branch_predictor_learns_loops() {
        // A hot loop: first iteration(s) mispredict, then the predictor
        // saturates and the loop back-edge is free.
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 100);
        a.label("loop");
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, "loop");
        a.nop();
        a.brk(0);
        let m = run(a);
        let c = m.counters();
        assert_eq!(c.branches, 100);
        assert!(c.mispredicts <= 3, "{c:?}");
    }

    #[test]
    fn icache_reduces_rom_reads() {
        let mk = || {
            let mut a = Asm::new();
            a.label("main");
            a.li(Reg::T0, 200);
            a.label("loop");
            a.addiu(Reg::T0, Reg::T0, -1);
            a.bne(Reg::T0, Reg::ZERO, "loop");
            a.nop();
            a.brk(0);
            a
        };
        let base = run_cfg(mk(), MachineConfig::baseline());
        let cached = run_cfg(
            mk(),
            MachineConfig {
                icache: Some(CacheConfig::real(1024, false)),
                ..MachineConfig::isa_ext()
            },
        );
        let base_rom = base.rom_stats();
        let cache_rom = cached.rom_stats();
        assert!(base_rom.reads > 600);
        // With the cache, word fetches go away; only a couple of line fills.
        assert_eq!(cache_rom.reads, 0);
        assert!(cache_rom.line_reads <= 4, "{cache_rom:?}");
        let cs = cached.icache_stats().unwrap();
        assert!(cs.misses * 100 < cs.accesses, "{cs:?}");
    }

    #[test]
    fn ram_access_counting() {
        let mut a = Asm::new();
        let buf = a.ram_alloc("buf", 4);
        a.label("main");
        a.li(Reg::T0, buf as i64);
        for i in 0..4 {
            a.sw(Reg::ZERO, (i * 4) as i16, Reg::T0);
        }
        for i in 0..4 {
            a.lw(Reg::T1, (i * 4) as i16, Reg::T0);
        }
        a.brk(0);
        let m = run(a);
        assert_eq!(m.ram_stats().writes, 4);
        assert_eq!(m.ram_stats().reads, 4);
    }

    #[test]
    fn cycle_limit_exit() {
        let mut a = Asm::new();
        a.label("main");
        a.label("spin");
        a.b("spin");
        a.nop();
        let p = a.link("main").unwrap();
        for tier in [EngineTier::Fast, EngineTier::Reference] {
            let mut m = Machine::new(&p, MachineConfig::baseline());
            assert_eq!(
                m.run_with(ExecOptions::new(1000).with_tier(tier)),
                RunExit::CycleLimit
            );
        }
    }

    /// A fuseable pair whose second member is also a branch target:
    /// fusion must never change reachability of the pair's members.
    #[test]
    fn jump_into_fused_pair_second_member() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 1);
        a.b("mid");
        a.nop();
        // This lw/addiu pair fuses; "mid" lands on the addiu.
        a.lw(Reg::T1, 0, Reg::ZERO); // skipped by the branch
        a.label("mid");
        a.addiu(Reg::T0, Reg::T0, 41);
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T0), 42);
    }

    /// A fuseable pair whose first member sits in a branch delay slot:
    /// only that member may execute before control transfers.
    #[test]
    fn fused_pair_first_member_in_delay_slot() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 0);
        a.b("out");
        a.addiu(Reg::T0, Reg::T0, 1); // delay slot; fuses with the next addiu
        a.addiu(Reg::T0, Reg::T0, 100); // must NOT execute
        a.label("out");
        a.brk(0);
        let m = run(a);
        assert_eq!(m.reg(Reg::T0), 1);
    }

    /// Sweeps the cycle limit across a fused-heavy program: the fast
    /// engine must stop at exactly the same instruction boundary as the
    /// reference for every budget (the fuse-guard contract).
    #[test]
    fn cycle_limit_boundary_matches_reference() {
        let mut a = Asm::new();
        let buf = a.ram_alloc("buf", 4);
        a.label("main");
        a.li(Reg::T0, buf as i64);
        a.li(Reg::T1, 8);
        a.label("loop");
        a.sw(Reg::T1, 0, Reg::T0);
        a.sw(Reg::T1, 4, Reg::T0);
        a.lw(Reg::T2, 0, Reg::T0);
        a.lw(Reg::T3, 4, Reg::T0);
        a.addu(Reg::T4, Reg::T2, Reg::T3);
        a.addiu(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::ZERO, "loop");
        a.nop();
        a.brk(0);
        let p = a.link("main").unwrap();
        for max_cycles in 1..=80 {
            let mut fast = Machine::new(&p, MachineConfig::baseline());
            let ef = fast.run_with(ExecOptions::new(max_cycles).with_tier(EngineTier::Fast));
            let mut reference = Machine::new(&p, MachineConfig::baseline());
            let er =
                reference.run_with(ExecOptions::new(max_cycles).with_tier(EngineTier::Reference));
            assert_eq!(ef, er, "exit diverges at budget {max_cycles}");
            assert_tiers_equal(&fast, &reference);
        }
    }

    /// Every run translates unless the reference oracle is requested:
    /// a profiled machine runs the fast engine too.
    #[test]
    fn tier_selection_rules() {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 7);
        a.brk(0);
        let p = a.link("main").unwrap();

        let mut bare = Machine::new(&p, MachineConfig::baseline());
        bare.run_with(ExecOptions::new(1000));
        assert!(bare.xops.is_some(), "a bare machine runs fast");

        let mut m = profiled(&p, MachineConfig::baseline());
        m.run_with(ExecOptions::new(1000));
        assert!(m.xops.is_some(), "a profiled machine runs fast");
        assert!(m.take_profile().is_some());

        let mut m = profiled(&p, MachineConfig::baseline());
        m.run_with(ExecOptions::new(1000).with_tier(EngineTier::Reference));
        assert!(m.xops.is_none(), "the oracle never translates");
        assert!(m.take_profile().is_some());
    }

    /// A multi-routine program: two calls into loop routines whose
    /// inner-loop labels sit mid-routine.
    fn profile_fixture() -> Program {
        let mut a = Asm::new();
        let buf = a.ram_alloc("buf", 4);
        a.label("main");
        a.li(Reg::T0, buf as i64);
        a.jal("writer");
        a.nop();
        a.jal("reader");
        a.nop();
        a.brk(0);
        a.label("writer");
        a.li(Reg::T1, 40);
        a.label("wloop");
        a.sw(Reg::T1, 0, Reg::T0);
        a.sw(Reg::T1, 4, Reg::T0);
        a.addiu(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::ZERO, "wloop");
        a.nop();
        a.jr(Reg::RA);
        a.nop();
        a.label("reader");
        a.li(Reg::T1, 25);
        a.label("rloop");
        a.lw(Reg::T2, 0, Reg::T0);
        a.lw(Reg::T3, 4, Reg::T0);
        a.addu(Reg::T4, Reg::T2, Reg::T3);
        a.addiu(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::ZERO, "rloop");
        a.nop();
        a.jr(Reg::RA);
        a.nop();
        a.link("main").unwrap()
    }

    /// Labels on the delay slots of a branch, a `jal` and a `jr`: the
    /// delay slot bills to its own routine, not the jump's.
    fn delay_slot_label_fixture() -> Program {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, 6);
        a.label("loop");
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, "loop");
        a.label("loop_ds");
        a.addiu(Reg::T1, Reg::T1, 1);
        a.jal("leaf");
        a.label("call_ds");
        a.addiu(Reg::T2, Reg::T2, 1);
        a.brk(0);
        a.label("leaf");
        a.addiu(Reg::T3, Reg::T3, 1);
        a.jr(Reg::RA);
        a.label("ret_ds");
        a.addiu(Reg::T4, Reg::T4, 1);
        a.brk(1);
        a.link("main").unwrap()
    }

    /// A label inside a straight-line run, right between a load and
    /// its use: the cut block's interlock moves to the dispatch seam.
    fn mid_run_label_fixture() -> Program {
        let mut a = Asm::new();
        let buf = a.ram_alloc("buf", 2);
        a.label("main");
        a.li(Reg::T0, buf as i64);
        a.li(Reg::T1, 9);
        a.label("top");
        a.sw(Reg::T1, 0, Reg::T0);
        a.lw(Reg::T2, 0, Reg::T0);
        a.label("mid");
        a.addu(Reg::T3, Reg::T2, Reg::T2);
        a.sw(Reg::T3, 4, Reg::T0);
        a.addiu(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::ZERO, "top");
        a.nop();
        a.brk(0);
        a.link("main").unwrap()
    }

    /// A `j` tail call: `a` jumps to `c`, which returns through the
    /// `$ra` of `main`'s call to `a`.
    fn tail_call_fixture() -> Program {
        let mut a = Asm::new();
        a.label("main");
        a.jal("a");
        a.nop();
        a.jal("a");
        a.nop();
        a.brk(0);
        a.label("a");
        a.addiu(Reg::T0, Reg::T0, 1);
        a.j("c");
        a.addiu(Reg::T0, Reg::T0, 1);
        a.label("c");
        a.addiu(Reg::T1, Reg::T1, 2);
        a.jr(Reg::RA);
        a.nop();
        a.link("main").unwrap()
    }

    /// A multi-frame pop: `b` (called by `a` through `jalr`) returns
    /// straight to `main` with a `jr` to `main`'s return address,
    /// abandoning `a`'s frame.
    fn multi_frame_pop_fixture() -> Program {
        let mut a = Asm::new();
        a.label("main");
        a.jal("a");
        a.nop();
        a.addiu(Reg::T5, Reg::T5, 1);
        a.brk(0);
        a.label("a");
        a.mov(Reg::T9, Reg::RA);
        a.la(Reg::T8, "b");
        a.jalr(Reg::RA, Reg::T8);
        a.nop();
        a.brk(1);
        a.label("b");
        a.addiu(Reg::T6, Reg::T6, 1);
        a.jr(Reg::T9);
        a.nop();
        a.link("main").unwrap()
    }

    /// A loop that calls the same leaf from two labelled blocks in
    /// turn: after each return, control moves on to the other label.
    fn alternating_call_loop_fixture(iterations: i64) -> Program {
        let mut a = Asm::new();
        a.label("main");
        a.li(Reg::T0, iterations);
        a.label("top");
        a.jal("leaf");
        a.nop();
        a.label("mid");
        a.jal("leaf");
        a.nop();
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, "top");
        a.nop();
        a.brk(0);
        a.label("leaf");
        a.addiu(Reg::T1, Reg::T1, 1);
        a.jr(Reg::RA);
        a.nop();
        a.link("main").unwrap()
    }

    /// A label on the return address of `main`'s first call.
    fn return_label_fixture() -> Program {
        let mut a = Asm::new();
        a.label("main");
        a.jal("leaf");
        a.nop();
        a.label("after");
        a.addiu(Reg::T2, Reg::T2, 1);
        a.jal("leaf");
        a.nop();
        a.brk(0);
        a.label("leaf");
        a.addiu(Reg::T1, Reg::T1, 1);
        a.jr(Reg::RA);
        a.nop();
        a.link("main").unwrap()
    }

    /// A return that lands in the returning routine, followed directly
    /// by a call: `c` calls into the middle of `r` with the return
    /// address at `r`'s own start, where `r` calls `leaf`.
    fn call_after_same_routine_return_fixture() -> Program {
        let mut a = Asm::new();
        a.label("main");
        a.jal("c");
        a.nop();
        a.brk(0);
        a.label("c");
        a.mov(Reg::S0, Reg::RA);
        a.la(Reg::T8, "r");
        a.addiu(Reg::T8, Reg::T8, 20); // r's second `jr`
        a.jalr(Reg::RA, Reg::T8); // returns to `r`
        a.nop();
        a.label("r");
        a.jal("leaf");
        a.nop();
        a.mov(Reg::RA, Reg::S0);
        a.jr(Reg::RA); // back to main
        a.nop();
        a.jr(Reg::RA); // entry from `c`: back to `r`
        a.nop();
        a.label("leaf");
        a.jr(Reg::RA);
        a.nop();
        a.link("main").unwrap()
    }

    fn profiled(p: &Program, cfg: MachineConfig) -> Machine {
        Machine::builder(p, cfg)
            .instrumentation(Instrumentation::profile(&p.text_symbols()))
            .build()
    }

    /// The profile accumulated so far, without detaching it.
    fn profile_now(m: &Machine) -> Option<RoutineProfile> {
        m.profiler.as_ref().map(|p| p.as_ref().clone().finish())
    }

    /// Splits a profiled run at every cycle budget from 1 to its full
    /// length and resumes it to the end, on both tiers: machine state
    /// and the whole profile (flat buckets, activity, call graph) must
    /// be equal at the split and at the end.
    fn assert_profiled_tiers_equal(p: &Program) {
        for cfg in [
            MachineConfig::baseline(),
            MachineConfig {
                icache: Some(CacheConfig::real(256, true)),
                ..MachineConfig::isa_ext()
            },
        ] {
            let mut whole = profiled(p, cfg);
            assert_eq!(
                whole.run_with(ExecOptions::new(1_000_000)),
                RunExit::Halted { code: 0 }
            );
            let counters = whole.counters();
            let prof = whole.take_profile().unwrap();
            assert_eq!(prof.total_cycles(), counters.cycles);
            assert_eq!(prof.total_instructions(), counters.instructions);
            assert_eq!(prof.calls.total_cycles(), counters.cycles);

            for split in 1..=counters.cycles {
                let mut fast = profiled(p, cfg);
                let mut reference = profiled(p, cfg);
                let reference_at =
                    |budget| ExecOptions::new(budget).with_tier(EngineTier::Reference);
                let ef = fast.run_with(ExecOptions::new(split));
                let er = reference.run_with(reference_at(split));
                assert_eq!(ef, er, "exit diverges at split {split}");
                assert_tiers_equal(&fast, &reference);
                assert_eq!(
                    profile_now(&fast),
                    profile_now(&reference),
                    "profile diverges at split {split}"
                );
                fast.run_with(ExecOptions::new(1_000_000));
                reference.run_with(reference_at(1_000_000));
                assert_tiers_equal(&fast, &reference);
                let pf = fast.take_profile().unwrap();
                assert_eq!(pf, reference.take_profile().unwrap(), "split {split}");
                assert_eq!(pf, prof, "split {split} changes the profile");
            }
        }
    }

    #[test]
    fn profile_is_exact_on_the_fast_tier() {
        assert_profiled_tiers_equal(&profile_fixture());
    }

    #[test]
    fn profile_is_exact_with_a_label_on_a_delay_slot() {
        let p = delay_slot_label_fixture();
        assert_profiled_tiers_equal(&p);
        let mut m = profiled(&p, MachineConfig::baseline());
        m.run_with(ExecOptions::new(1_000_000));
        let prof = m.take_profile().unwrap();
        // Six delay slots of the loop branch, one of the call, one of
        // the return.
        for (name, instructions) in [("loop_ds", 6 + 1), ("call_ds", 1 + 1), ("ret_ds", 1)] {
            assert_eq!(
                prof.routine(name).unwrap().instructions,
                instructions,
                "{name}"
            );
        }
    }

    #[test]
    fn profile_is_exact_with_a_label_mid_run() {
        assert_profiled_tiers_equal(&mid_run_label_fixture());
    }

    #[test]
    fn profile_is_exact_across_a_jump_tail_call() {
        let p = tail_call_fixture();
        assert_profiled_tiers_equal(&p);
        let mut m = profiled(&p, MachineConfig::baseline());
        m.run_with(ExecOptions::new(1_000_000));
        let paths: Vec<String> = m
            .take_profile()
            .unwrap()
            .call_paths()
            .into_iter()
            .map(|(path, _)| path)
            .collect();
        // The tail-callee is a sibling of the tail-caller.
        assert_eq!(paths, ["main", "main;a", "main;c"]);
    }

    #[test]
    fn profile_is_exact_across_a_multi_frame_pop() {
        let p = multi_frame_pop_fixture();
        assert_profiled_tiers_equal(&p);
        let mut m = profiled(&p, MachineConfig::baseline());
        m.run_with(ExecOptions::new(1_000_000));
        let prof = m.take_profile().unwrap();
        let paths: Vec<(String, u64)> = prof
            .call_paths()
            .into_iter()
            .map(|(path, n)| (path, n.instructions))
            .collect();
        // After `b`'s `jr` pops both frames, its delay slot bills to
        // `main;b` and the tail of `main` to `main` itself.
        assert_eq!(
            paths,
            [
                ("main".to_owned(), 4),
                ("main;a".to_owned(), 5),
                ("main;a;b".to_owned(), 2),
                ("main;b".to_owned(), 1),
            ]
        );
    }

    /// Every call path with its exclusive instruction count.
    fn instruction_paths(p: &Program) -> Vec<(String, u64)> {
        let mut m = profiled(p, MachineConfig::baseline());
        m.run_with(ExecOptions::new(1_000_000));
        m.take_profile()
            .unwrap()
            .call_paths()
            .into_iter()
            .map(|(path, n)| (path, n.instructions))
            .collect()
    }

    /// After a return, the next label is the calling block's sibling,
    /// so the tree does not grow with the iteration count.
    #[test]
    fn profile_call_tree_is_bounded_across_loop_iterations() {
        assert_profiled_tiers_equal(&alternating_call_loop_fixture(3));
        for iterations in [1, 4] {
            let paths: Vec<String> = instruction_paths(&alternating_call_loop_fixture(iterations))
                .into_iter()
                .map(|(path, _)| path)
                .collect();
            assert_eq!(
                paths,
                ["main", "top", "top;leaf", "mid", "mid;leaf"],
                "{iterations} iterations"
            );
        }
    }

    #[test]
    fn profile_is_exact_with_a_label_on_a_return_address() {
        let p = return_label_fixture();
        assert_profiled_tiers_equal(&p);
        // The return's delay slot bills to `main;leaf`; `after` is a
        // top-level sibling of `main`, not its child.
        assert_eq!(
            instruction_paths(&p),
            [
                ("main".to_owned(), 2),
                ("main;leaf".to_owned(), 3),
                ("after".to_owned(), 4),
                ("after;leaf".to_owned(), 3),
            ]
        );
    }

    #[test]
    fn profile_is_exact_for_a_call_after_a_same_routine_return() {
        let p = call_after_same_routine_return_fixture();
        assert_profiled_tiers_equal(&p);
        let paths = instruction_paths(&p);
        let names: Vec<&str> = paths.iter().map(|(path, _)| path.as_str()).collect();
        // `r`'s call to `leaf` is made from the restored context, not
        // from under `c`. The `jal` itself retires before the restore,
        // so it still bills to `main;c;r` with the return's `jr` and
        // delay slot.
        assert_eq!(
            names,
            ["main", "main;c", "main;c;r", "main;r", "main;r;leaf"]
        );
        assert_eq!(paths[2].1, 3);
        assert_eq!(paths[3].1, 4);
        assert_eq!(paths[4].1, 2);
    }

    /// On a profiled table no dispatch runs into a leader word; on an
    /// unprofiled one the same program still fuses across labels.
    #[test]
    fn profiled_dispatches_never_cross_a_leader() {
        for p in [
            profile_fixture(),
            delay_slot_label_fixture(),
            mid_run_label_fixture(),
            tail_call_fixture(),
            multi_frame_pop_fixture(),
        ] {
            let decoded: Vec<Option<Instr>> =
                p.rom().iter().map(|&w| Instr::decode(w).ok()).collect();
            let starts: Vec<u32> = p.text_symbols().iter().map(|&(a, _)| a).collect();
            let leaders = xlate::profile_leaders(&decoded, &starts);
            let span = |xt: &XTable, idx: usize| match xt.ops[idx] {
                XOp::Block { len, .. } => len as usize,
                XOp::BlockBr { idx } => xt.brs[idx as usize].len as usize + 2,
                XOp::BranchDs(..) | XOp::JumpDs { .. } | XOp::JumpRegDs { .. } => 2,
                _ => 1,
            };
            let crosses = |xt: &XTable| {
                (0..xt.ops.len()).any(|i| (i + 1..i + span(xt, i)).any(|j| leaders[j]))
            };
            assert!(!crosses(&xlate::translate(&decoded, &leaders)));
            assert!(crosses(&xlate::translate(&decoded, &[])));
        }
    }
}
