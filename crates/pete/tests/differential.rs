//! Differential testing of Pete's ALU/multiplier semantics: random
//! straight-line programs, with calls into small leaf routines, are
//! executed on the cycle-level machine and on an independent,
//! dead-simple interpreter written in this test. Any divergence is a
//! simulator bug. With random labels sprinkled in (some on return
//! addresses), the profiled fast tier must also bill exactly what the
//! reference does, across stretch boundaries and returns.

use ule_isa::asm::Asm;
use ule_isa::instr::Instr;
use ule_isa::reg::Reg;
use ule_pete::cpu::{EngineTier, ExecOptions, Instrumentation, Machine, MachineConfig, RunExit};
use ule_testkit::Rng;

/// The registers the generated programs may touch (avoid $zero/$sp/$ra).
const POOL: [Reg; 10] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::V0,
    Reg::V1,
    Reg::A0,
    Reg::A1,
];

#[derive(Clone, Debug)]
enum Op {
    Addu(usize, usize, usize),
    Subu(usize, usize, usize),
    And(usize, usize, usize),
    Or(usize, usize, usize),
    Xor(usize, usize, usize),
    Nor(usize, usize, usize),
    Slt(usize, usize, usize),
    Sltu(usize, usize, usize),
    Sll(usize, usize, u8),
    Srl(usize, usize, u8),
    Sra(usize, usize, u8),
    Addiu(usize, usize, i16),
    Andi(usize, usize, u16),
    Ori(usize, usize, u16),
    Xori(usize, usize, u16),
    Lui(usize, u16),
    MultuMflo(usize, usize, usize),
    MultMfhi(usize, usize, usize),
}

fn random_op(rng: &mut Rng) -> Op {
    fn r(rng: &mut Rng) -> usize {
        rng.below(POOL.len() as u64) as usize
    }
    match rng.below(18) {
        0 => Op::Addu(r(rng), r(rng), r(rng)),
        1 => Op::Subu(r(rng), r(rng), r(rng)),
        2 => Op::And(r(rng), r(rng), r(rng)),
        3 => Op::Or(r(rng), r(rng), r(rng)),
        4 => Op::Xor(r(rng), r(rng), r(rng)),
        5 => Op::Nor(r(rng), r(rng), r(rng)),
        6 => Op::Slt(r(rng), r(rng), r(rng)),
        7 => Op::Sltu(r(rng), r(rng), r(rng)),
        8 => Op::Sll(r(rng), r(rng), rng.below(32) as u8),
        9 => Op::Srl(r(rng), r(rng), rng.below(32) as u8),
        10 => Op::Sra(r(rng), r(rng), rng.below(32) as u8),
        11 => Op::Addiu(r(rng), r(rng), rng.next_i16()),
        12 => Op::Andi(r(rng), r(rng), rng.next_u16()),
        13 => Op::Ori(r(rng), r(rng), rng.next_u16()),
        14 => Op::Xori(r(rng), r(rng), rng.next_u16()),
        15 => Op::Lui(r(rng), rng.next_u16()),
        16 => Op::MultuMflo(r(rng), r(rng), r(rng)),
        _ => Op::MultMfhi(r(rng), r(rng), r(rng)),
    }
}

/// The independent oracle.
fn interpret(init: &[u32; 10], ops: &[Op]) -> [u32; 10] {
    let mut r = *init;
    for op in ops {
        match *op {
            Op::Addu(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
            Op::Subu(d, a, b) => r[d] = r[a].wrapping_sub(r[b]),
            Op::And(d, a, b) => r[d] = r[a] & r[b],
            Op::Or(d, a, b) => r[d] = r[a] | r[b],
            Op::Xor(d, a, b) => r[d] = r[a] ^ r[b],
            Op::Nor(d, a, b) => r[d] = !(r[a] | r[b]),
            Op::Slt(d, a, b) => r[d] = ((r[a] as i32) < r[b] as i32) as u32,
            Op::Sltu(d, a, b) => r[d] = (r[a] < r[b]) as u32,
            Op::Sll(d, a, s) => r[d] = r[a] << s,
            Op::Srl(d, a, s) => r[d] = r[a] >> s,
            Op::Sra(d, a, s) => r[d] = ((r[a] as i32) >> s) as u32,
            Op::Addiu(d, a, i) => r[d] = r[a].wrapping_add(i as i32 as u32),
            Op::Andi(d, a, i) => r[d] = r[a] & i as u32,
            Op::Ori(d, a, i) => r[d] = r[a] | i as u32,
            Op::Xori(d, a, i) => r[d] = r[a] ^ i as u32,
            Op::Lui(d, i) => r[d] = (i as u32) << 16,
            Op::MultuMflo(d, a, b) => r[d] = (r[a] as u64).wrapping_mul(r[b] as u64) as u32,
            Op::MultMfhi(d, a, b) => {
                r[d] = (((r[a] as i32 as i64).wrapping_mul(r[b] as i32 as i64)) >> 32) as u32
            }
        }
    }
    r
}

/// An op that assembles to one word, so it fits a delay slot.
fn random_single_word_op(rng: &mut Rng) -> Op {
    loop {
        let op = random_op(rng);
        if !matches!(op, Op::MultuMflo(..) | Op::MultMfhi(..)) {
            return op;
        }
    }
}

/// An optional delay-slot op (`nop` when absent).
fn random_delay_slot(rng: &mut Rng) -> Option<Op> {
    (rng.below(2) == 0).then(|| random_single_word_op(rng))
}

/// A leaf routine the generated programs call: straight-line ops, then
/// `jr $ra` with an optional op in its delay slot.
struct Leaf {
    body: Vec<Op>,
    ds: Option<Op>,
}

fn emit_delay_slot(asm: &mut Asm, ds: &Option<Op>) {
    match ds {
        Some(op) => emit(asm, op),
        None => asm.nop(),
    }
}

fn emit(asm: &mut Asm, op: &Op) {
    let p = |i: usize| POOL[i];
    match *op {
        Op::Addu(d, a, b) => asm.addu(p(d), p(a), p(b)),
        Op::Subu(d, a, b) => asm.subu(p(d), p(a), p(b)),
        Op::And(d, a, b) => asm.and(p(d), p(a), p(b)),
        Op::Or(d, a, b) => asm.or(p(d), p(a), p(b)),
        Op::Xor(d, a, b) => asm.xor(p(d), p(a), p(b)),
        Op::Nor(d, a, b) => asm.nor(p(d), p(a), p(b)),
        Op::Slt(d, a, b) => asm.slt(p(d), p(a), p(b)),
        Op::Sltu(d, a, b) => asm.sltu(p(d), p(a), p(b)),
        Op::Sll(d, a, s) => asm.sll(p(d), p(a), s),
        Op::Srl(d, a, s) => asm.srl(p(d), p(a), s),
        Op::Sra(d, a, s) => asm.sra(p(d), p(a), s),
        Op::Addiu(d, a, i) => asm.addiu(p(d), p(a), i),
        Op::Andi(d, a, i) => asm.andi(p(d), p(a), i),
        Op::Ori(d, a, i) => asm.ori(p(d), p(a), i),
        Op::Xori(d, a, i) => asm.xori(p(d), p(a), i),
        Op::Lui(d, i) => asm.lui(p(d), i),
        Op::MultuMflo(d, a, b) => {
            asm.multu(p(a), p(b));
            asm.mflo(p(d));
        }
        Op::MultMfhi(d, a, b) => {
            asm.mult(p(a), p(b));
            asm.mfhi(p(d));
        }
    }
}

#[test]
fn random_programs_match_the_oracle() {
    let mut rng = Rng::new(0xd1ff);
    // Labels cut the profiled fast tier's blocks, and calls drive its
    // shadow stack; each is drawn from its own stream so the
    // straight-line ops stay those of the seed above.
    let mut labels = Rng::new(0x1abe1);
    let mut calls = Rng::new(0xca11);
    for _ in 0..128 {
        let mut init = [0u32; 10];
        for v in &mut init {
            *v = rng.next_u32();
        }
        let ops: Vec<Op> = {
            let n = rng.range(1, 60);
            (0..n).map(|_| random_op(&mut rng)).collect()
        };
        let leaves: Vec<Leaf> = (0..calls.range(1, 4))
            .map(|_| Leaf {
                body: (0..calls.below(6)).map(|_| random_op(&mut calls)).collect(),
                ds: random_delay_slot(&mut calls),
            })
            .collect();
        // The ops in execution order, for the oracle.
        let mut executed = Vec::new();
        let mut asm = Asm::new();
        asm.label("main");
        for (i, op) in ops.iter().enumerate() {
            if labels.below(6) == 0 {
                asm.label(&format!("l{i}"));
            }
            if calls.below(8) == 0 {
                let k = calls.below(leaves.len() as u64) as usize;
                let ds = random_delay_slot(&mut calls);
                asm.jal(&format!("leaf{k}"));
                emit_delay_slot(&mut asm, &ds);
                executed.extend(ds);
                executed.extend(leaves[k].body.iter().cloned());
                executed.extend(leaves[k].ds.clone());
                if calls.below(3) == 0 {
                    asm.label(&format!("r{i}")); // on the return address
                }
            }
            emit(&mut asm, op);
            executed.push(op.clone());
        }
        asm.brk(0);
        for (k, leaf) in leaves.iter().enumerate() {
            asm.label(&format!("leaf{k}"));
            for (j, op) in leaf.body.iter().enumerate() {
                if j > 0 && calls.below(4) == 0 {
                    asm.label(&format!("leaf{k}_{j}"));
                }
                emit(&mut asm, op);
            }
            asm.jr(Reg::RA);
            emit_delay_slot(&mut asm, &leaf.ds);
        }
        let program = asm.link("main").expect("link");
        let profiled = |tier| {
            let mut m = Machine::builder(&program, MachineConfig::baseline())
                .instrumentation(Instrumentation::profile(&program.text_symbols()))
                .build();
            for (i, &v) in init.iter().enumerate() {
                m.set_reg(POOL[i], v);
            }
            m.run_with(ExecOptions::new(1_000_000).with_tier(tier));
            (m.counters(), m.take_profile())
        };
        assert_eq!(
            profiled(EngineTier::Fast),
            profiled(EngineTier::Reference),
            "profiled tiers diverge"
        );
        // Both engine tiers must match the oracle — and each other.
        let mut per_tier = [EngineTier::Fast, EngineTier::Reference].map(|tier| {
            let mut m = Machine::new(&program, MachineConfig::baseline());
            for (i, &v) in init.iter().enumerate() {
                m.set_reg(POOL[i], v);
            }
            let exit = m.run_with(ExecOptions::new(1_000_000).with_tier(tier));
            assert_eq!(exit, RunExit::Halted { code: 0 });
            m
        });
        let expect = interpret(&init, &executed);
        for m in &per_tier {
            for (i, &e) in expect.iter().enumerate() {
                assert_eq!(m.reg(POOL[i]), e, "register {} diverged", POOL[i]);
            }
        }
        let [fast, reference] = &mut per_tier;
        assert_eq!(fast.counters(), reference.counters(), "tiers diverge");
        // Timing sanity: at least one cycle per instruction, bounded
        // stall overhead (no memory, so only multiplier stalls).
        let c = reference.counters();
        assert!(c.cycles >= c.instructions);
        assert!(c.cycles <= c.instructions + 5 * c.mult_ops + 8);
    }
}

#[test]
fn encoded_programs_decode_back() {
    // The ROM image words all decode to the emitted instructions.
    let mut rng = Rng::new(0xdec0);
    for _ in 0..128 {
        let n = rng.range(1, 30);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        let mut asm = Asm::new();
        asm.label("main");
        for op in &ops {
            emit(&mut asm, op);
        }
        asm.brk(0);
        let program = asm.link("main").expect("link");
        for (i, &w) in program.rom().iter().take(program.text_words()).enumerate() {
            assert!(
                Instr::decode(w).is_ok(),
                "text word {i} ({w:#010x}) failed to decode"
            );
        }
    }
}
