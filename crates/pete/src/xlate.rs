//! The fast engine's translation cache (DESIGN.md §6a).
//!
//! At first fast-tier dispatch the whole program image is translated,
//! one word at a time, into a table of pre-resolved operations
//! ([`XOp`]): decode is done, PC-relative branch targets and jump
//! destinations are absolute addresses, and the operands of the hot
//! single-cycle instruction classes are unpacked into flat fields so
//! the dispatch loop never touches [`Instr`] again. A second pass
//! groups the maximal straight-line runs of the classes that dominate
//! the field-arithmetic kernels (`fmul`/`fred`: ALU, word load, word
//! store) into basic-block superinstructions whose internal load-use
//! interlocks are decided *here*, at translation time, instead of per
//! step; branches fuse the op in their delay slot the same way.
//!
//! The table is position-indexed (`pc / 4`), and every suffix of a run
//! gets its own block entry over the shared member pool, so a jump
//! into the middle of a run still dispatches a block: fusion never
//! changes reachability. A profiled machine's table additionally
//! starts a dispatch at every **leader** word ([`profile_leaders`]):
//! no block or fused pair runs into one. Everything the
//! translator cannot (or need not) speed up — Hi/Lo multiplies,
//! subword memory ops, coprocessor commands — keeps its decoded
//! [`Instr`] in [`XOp::Other`] and is executed by the reference
//! semantics in `cpu.rs`, which guarantees the two tiers agree by
//! construction on everything outside the translated hot classes.

use ule_isa::instr::Instr;
use ule_isa::reg::Reg;

/// Single-cycle ALU operation kinds (the MIPS-II integer subset Pete
/// executes in one issue cycle, plus `lui`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AluKind {
    Addu,
    Subu,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Sllv,
    Srlv,
    Srav,
    SllI,
    SrlI,
    SraI,
    Addiu,
    Slti,
    Sltiu,
    Andi,
    Ori,
    Xori,
    Lui,
}

/// A pre-decoded single-cycle ALU instruction. `imm` holds the
/// immediate already in execute-ready form — sign- or zero-extended
/// (or `lui`-shifted) at translation time by the same rule
/// `Machine::execute` applies, so evaluation never re-extends.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AluOp {
    pub kind: AluKind,
    pub rd: Reg,
    pub rs: Reg,
    pub rt: Reg,
    pub imm: u32,
}

impl AluOp {
    /// Bitmask of the registers this op needs in its execute stage
    /// (load-use interlock sources) — mirrors `src_mask` on the full
    /// [`Instr`].
    pub fn src_mask(self) -> u32 {
        use AluKind::*;
        match self.kind {
            Addu | Subu | And | Or | Xor | Nor | Slt | Sltu | Sllv | Srlv | Srav => {
                (1 << self.rs.num()) | (1 << self.rt.num())
            }
            SllI | SrlI | SraI => 1 << self.rt.num(),
            Addiu | Slti | Sltiu | Andi | Ori | Xori => 1 << self.rs.num(),
            Lui => 0,
        }
    }
}

/// A pre-decoded full-word load or store.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemOp {
    pub rt: Reg,
    pub base: Reg,
    pub offset: i16,
}

/// Conditional-branch comparison kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BrCond {
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
}

/// A conditional branch with its target already resolved to an
/// absolute address (`pc + 4 + (offset << 2)`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BranchOp {
    pub cond: BrCond,
    pub rs: Reg,
    pub rt: Reg,
    pub target: u32,
}

impl BranchOp {
    /// Execute-stage source registers, as a bitmask.
    pub fn src_mask(self) -> u32 {
        match self.cond {
            BrCond::Beq | BrCond::Bne => (1 << self.rs.num()) | (1 << self.rt.num()),
            _ => 1 << self.rs.num(),
        }
    }
}

/// One member of a translated basic block: the three straight-line
/// classes whose timing is fully static (one issue cycle, interlocks
/// decidable at translation time).
#[derive(Clone, Copy, Debug)]
pub(crate) enum BOp {
    Alu(AluOp),
    Lw(MemOp),
    Sw(MemOp),
}

impl BOp {
    /// Execute-stage source registers, as a bitmask.
    pub fn src_mask(self) -> u32 {
        match self {
            BOp::Alu(a) => a.src_mask(),
            BOp::Lw(m) | BOp::Sw(m) => 1 << m.base.num(),
        }
    }
}

/// Longest run a single block entry may cover; longer straight-line
/// runs are chunked (the inter-chunk interlock is handled dynamically
/// through `last_load_dest`, like any block boundary).
const MAX_BLOCK: usize = 4096;

/// One translated program word, indexed by `pc / 4`.
///
/// The block and fused-branch variants can always fall back to
/// executing just their first member (delay slots, cycle-limit
/// boundary) without a second table.
#[derive(Clone, Copy, Debug)]
pub(crate) enum XOp {
    /// A straight-line basic block of `len >= 2` ALU/load/store ops
    /// starting at this word: `pool[off..off + len]` in the table's
    /// member pool. `stalls` is the statically-known count of internal
    /// load-use interlocks *between* members (the first member's
    /// interlock against the preceding instruction stays dynamic, via
    /// `first_mask`). Because every suffix of a run is itself a block,
    /// a jump into the middle of a run still dispatches a block.
    Block {
        off: u32,
        len: u16,
        stalls: u16,
        first_mask: u32,
    },
    /// A straight-line block that runs all the way into its
    /// terminating conditional branch and that branch's delay slot:
    /// one dispatch covers the whole loop body. The descriptor lives
    /// in the table's side pool ([`BrBlock`]) to keep this enum small.
    BlockBr { idx: u32 },
    /// A lone single-cycle ALU op.
    Alu(AluOp),
    /// A lone word load.
    Lw(MemOp),
    /// A lone word store.
    Sw(MemOp),
    /// A conditional branch (pre-resolved target).
    Branch(BranchOp),
    /// A conditional branch fused with the ALU/load/store op in its
    /// delay slot: one dispatch resolves the branch (prediction,
    /// mispredict penalty), executes the delay-slot member, and lands
    /// directly on the destination — no `pending_branch` round-trip.
    /// The delay-slot word keeps its own table entry for direct jumps
    /// into it.
    BranchDs(BranchOp, BOp),
    /// `j`/`jal` with the absolute destination; `link` writes `$ra`.
    Jump { target: u32, link: bool },
    /// `jr`/`jalr`; `link` is `jalr`'s destination register.
    JumpReg { rs: Reg, link: Option<Reg> },
    /// `j`/`jal` fused with the member in its delay slot: one dispatch
    /// links, executes the member, and lands on the target.
    JumpDs { target: u32, link: bool, ds: BOp },
    /// `jr`/`jalr` fused with the member in its delay slot. The target
    /// register is read before the member executes, as the reference
    /// engine does.
    JumpRegDs { rs: Reg, link: Option<Reg>, ds: BOp },
    /// `break`: halt with the code.
    Break { code: u16 },
    /// Anything else (Hi/Lo, subword memory, COP2, extensions):
    /// executed by the shared reference semantics.
    Other(Instr),
    /// Not a decodable instruction word — fetching it is a simulation
    /// error, reported exactly as the reference fetch does.
    Invalid,
}

/// Execute-stage source registers of an instruction, as a bitmask over
/// register numbers — the allocation-free replacement for the old
/// `ex_sources: Vec<Reg>` (the load-use interlock is the only
/// consumer, and only ever tests a single register against it).
pub(crate) fn src_mask(i: Instr) -> u32 {
    use Instr::*;
    let one = |r: Reg| 1u32 << r.num();
    let two = |a: Reg, b: Reg| (1u32 << a.num()) | (1u32 << b.num());
    match i {
        Addu { rs, rt, .. }
        | Subu { rs, rt, .. }
        | And { rs, rt, .. }
        | Or { rs, rt, .. }
        | Xor { rs, rt, .. }
        | Nor { rs, rt, .. }
        | Slt { rs, rt, .. }
        | Sltu { rs, rt, .. } => two(rs, rt),
        Sllv { rt, rs, .. } | Srlv { rt, rs, .. } | Srav { rt, rs, .. } => two(rt, rs),
        Sll { rt, .. } | Srl { rt, .. } | Sra { rt, .. } => one(rt),
        Addiu { rs, .. }
        | Slti { rs, .. }
        | Sltiu { rs, .. }
        | Andi { rs, .. }
        | Ori { rs, .. }
        | Xori { rs, .. } => one(rs),
        Lui { .. } => 0,
        Mult { rs, rt }
        | Multu { rs, rt }
        | Div { rs, rt }
        | Divu { rs, rt }
        | Maddu { rs, rt }
        | M2addu { rs, rt }
        | Addau { rs, rt }
        | Mulgf2 { rs, rt }
        | Maddgf2 { rs, rt } => two(rs, rt),
        Mfhi { .. } | Mflo { .. } | Sha => 0,
        Mthi { rs } | Mtlo { rs } => one(rs),
        Lw { base, .. }
        | Lh { base, .. }
        | Lhu { base, .. }
        | Lb { base, .. }
        | Lbu { base, .. } => one(base),
        // Store data is needed in MEM, one stage later: forwardable.
        Sw { base, .. } | Sh { base, .. } | Sb { base, .. } => one(base),
        Beq { rs, rt, .. } | Bne { rs, rt, .. } => two(rs, rt),
        Blez { rs, .. } | Bgtz { rs, .. } | Bltz { rs, .. } | Bgez { rs, .. } => one(rs),
        J { .. } | Jal { .. } | Break { .. } => 0,
        Jr { rs } | Jalr { rs, .. } => one(rs),
        Ctc2 { rt, .. } => one(rt),
        Cop2LdA { rt }
        | Cop2LdB { rt }
        | Cop2LdN { rt }
        | Cop2St { rt }
        | BilLd { rt, .. }
        | BilSt { rt, .. } => one(rt),
        Cop2Sync | Cop2Mul | Cop2Add | Cop2Sub | BilMul { .. } | BilSqr { .. } | BilAdd { .. } => 0,
    }
}

/// Translates one decoded instruction at address `pc` into its
/// single-op form.
fn classify(i: Instr, pc: u32) -> XOp {
    use Instr::*;
    let seq = pc.wrapping_add(4);
    let alu = |kind, rd, rs, rt, imm| {
        XOp::Alu(AluOp {
            kind,
            rd,
            rs,
            rt,
            imm,
        })
    };
    let br = |cond, rs, rt, offset: i16| {
        XOp::Branch(BranchOp {
            cond,
            rs,
            rt,
            target: seq.wrapping_add((offset as i32 as u32) << 2),
        })
    };
    let z = Reg::ZERO;
    match i {
        Addu { rd, rs, rt } => alu(AluKind::Addu, rd, rs, rt, 0),
        Subu { rd, rs, rt } => alu(AluKind::Subu, rd, rs, rt, 0),
        And { rd, rs, rt } => alu(AluKind::And, rd, rs, rt, 0),
        Or { rd, rs, rt } => alu(AluKind::Or, rd, rs, rt, 0),
        Xor { rd, rs, rt } => alu(AluKind::Xor, rd, rs, rt, 0),
        Nor { rd, rs, rt } => alu(AluKind::Nor, rd, rs, rt, 0),
        Slt { rd, rs, rt } => alu(AluKind::Slt, rd, rs, rt, 0),
        Sltu { rd, rs, rt } => alu(AluKind::Sltu, rd, rs, rt, 0),
        Sllv { rd, rt, rs } => alu(AluKind::Sllv, rd, rs, rt, 0),
        Srlv { rd, rt, rs } => alu(AluKind::Srlv, rd, rs, rt, 0),
        Srav { rd, rt, rs } => alu(AluKind::Srav, rd, rs, rt, 0),
        Sll { rd, rt, shamt } => alu(AluKind::SllI, rd, z, rt, shamt as u32),
        Srl { rd, rt, shamt } => alu(AluKind::SrlI, rd, z, rt, shamt as u32),
        Sra { rd, rt, shamt } => alu(AluKind::SraI, rd, z, rt, shamt as u32),
        Addiu { rt, rs, imm } => alu(AluKind::Addiu, rt, rs, z, imm as i32 as u32),
        Slti { rt, rs, imm } => alu(AluKind::Slti, rt, rs, z, imm as i32 as u32),
        Sltiu { rt, rs, imm } => alu(AluKind::Sltiu, rt, rs, z, imm as i32 as u32),
        Andi { rt, rs, imm } => alu(AluKind::Andi, rt, rs, z, imm as u32),
        Ori { rt, rs, imm } => alu(AluKind::Ori, rt, rs, z, imm as u32),
        Xori { rt, rs, imm } => alu(AluKind::Xori, rt, rs, z, imm as u32),
        Lui { rt, imm } => alu(AluKind::Lui, rt, z, z, (imm as u32) << 16),
        Lw { rt, base, offset } => XOp::Lw(MemOp { rt, base, offset }),
        Sw { rt, base, offset } => XOp::Sw(MemOp { rt, base, offset }),
        Beq { rs, rt, offset } => br(BrCond::Beq, rs, rt, offset),
        Bne { rs, rt, offset } => br(BrCond::Bne, rs, rt, offset),
        Blez { rs, offset } => br(BrCond::Blez, rs, z, offset),
        Bgtz { rs, offset } => br(BrCond::Bgtz, rs, z, offset),
        Bltz { rs, offset } => br(BrCond::Bltz, rs, z, offset),
        Bgez { rs, offset } => br(BrCond::Bgez, rs, z, offset),
        J { target } => XOp::Jump {
            target: (seq & 0xf000_0000) | (target << 2),
            link: false,
        },
        Jal { target } => XOp::Jump {
            target: (seq & 0xf000_0000) | (target << 2),
            link: true,
        },
        Jr { rs } => XOp::JumpReg { rs, link: None },
        Jalr { rd, rs } => XOp::JumpReg { rs, link: Some(rd) },
        Break { code } => XOp::Break { code },
        other => XOp::Other(other),
    }
}

/// The fast engine's translation of one program image: the position-
/// indexed op table, the flat member pool its block entries slice,
/// and the side pool of branch-terminated block descriptors.
pub(crate) struct XTable {
    pub ops: Box<[XOp]>,
    pub pool: Box<[BOp]>,
    pub brs: Box<[BrBlock]>,
}

/// The control-transfer op that ends a [`BrBlock`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Term {
    Branch(BranchOp),
    Jump { target: u32, link: bool },
    JumpReg { rs: Reg, link: Option<Reg> },
}

impl Term {
    /// Execute-stage source registers, as a bitmask.
    pub fn src_mask(self) -> u32 {
        match self {
            Term::Branch(b) => b.src_mask(),
            Term::Jump { .. } => 0,
            Term::JumpReg { rs, .. } => 1 << rs.num(),
        }
    }
}

/// Descriptor of a control-terminated block ([`XOp::BlockBr`]): `len`
/// straight-line members (`pool[off..off + len]`, possibly zero-stall
/// suffixes of a longer run), then the branch or jump `term`, then
/// its delay-slot member `ds`. `stalls` counts every statically-known
/// load-use interlock inside the dispatch, *including* the
/// terminator's interlock against a trailing load member; the entry
/// interlock stays dynamic via `first_mask`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BrBlock {
    pub off: u32,
    pub len: u16,
    pub stalls: u16,
    pub first_mask: u32,
    pub term: Term,
    pub ds: BOp,
}

/// The internal load-use stall between two adjacent block members: the
/// first is a load whose destination the second needs in execute.
fn pair_stall(a: BOp, b: BOp) -> u16 {
    match a {
        BOp::Lw(m) => (m.rt != Reg::ZERO && b.src_mask() >> m.rt.num() & 1 != 0) as u16,
        _ => 0,
    }
}

/// The leader words of a profiled machine's table, indexed by `pc / 4`:
/// every routine start (so each dispatch bills one routine), and the
/// delay slot of every `jal`/`jalr`/`jr` (so the shadow-stack event of
/// the jump fires before its delay slot retires, as on the reference
/// interpreter). An unprofiled machine passes no leaders: labels inside
/// straight-line runs would otherwise cut its hottest blocks.
pub(crate) fn profile_leaders(decoded: &[Option<Instr>], routine_starts: &[u32]) -> Vec<bool> {
    let mut leaders = vec![false; decoded.len()];
    for &start in routine_starts {
        if let Some(l) = leaders.get_mut((start / 4) as usize) {
            *l = true;
        }
    }
    for (idx, d) in decoded.iter().enumerate() {
        if let Some(Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Jr { .. }) = d {
            if let Some(l) = leaders.get_mut(idx + 1) {
                *l = true;
            }
        }
    }
    leaders
}

/// Builds the translation table for a program image.
///
/// Every maximal straight-line run of ALU/load/store words becomes a
/// family of suffix blocks sharing one slice of the member pool, so
/// per-instruction fetch/issue accounting can be applied once per
/// block (the dispatcher handles the I-cache fetch stream per 16-byte
/// line: only a line's first access is dynamic — the rest of the line
/// cannot be evicted under it mid-block). Branches additionally fuse
/// the op in their delay slot. No dispatch runs into a word marked in
/// `leaders` (empty: none is).
pub(crate) fn translate(decoded: &[Option<Instr>], leaders: &[bool]) -> XTable {
    let leader = |idx: usize| leaders.get(idx).copied().unwrap_or(false);
    let mut ops: Vec<XOp> = decoded
        .iter()
        .enumerate()
        .map(|(idx, d)| match d {
            Some(i) => classify(*i, (idx as u32) * 4),
            None => XOp::Invalid,
        })
        .collect();
    let mut pool: Vec<BOp> = Vec::new();
    let member = |op: XOp| match op {
        XOp::Alu(a) => Some(BOp::Alu(a)),
        XOp::Lw(m) => Some(BOp::Lw(m)),
        XOp::Sw(m) => Some(BOp::Sw(m)),
        _ => None,
    };
    // Branch/jump + delay-slot fusion (both fetch paths: the delay-
    // slot fetch goes through the same dynamic accounting as a lone
    // dispatch). The delay word keeps its own table entry for direct
    // jumps into it.
    for idx in 0..ops.len().saturating_sub(1) {
        let Some(ds) = member(ops[idx + 1]).filter(|_| !leader(idx + 1)) else {
            continue;
        };
        match ops[idx] {
            XOp::Branch(b) => ops[idx] = XOp::BranchDs(b, ds),
            XOp::Jump { target, link } => ops[idx] = XOp::JumpDs { target, link, ds },
            XOp::JumpReg { rs, link } => ops[idx] = XOp::JumpRegDs { rs, link, ds },
            _ => {}
        }
    }
    let n = ops.len();
    let mut brs: Vec<BrBlock> = Vec::new();
    let mut s = 0;
    while s < n {
        let Some(first) = member(ops[s]) else {
            s += 1;
            continue;
        };
        let mut members = vec![first];
        let mut e = s + 1;
        while e < n && !leader(e) {
            match member(ops[e]) {
                Some(m) => members.push(m),
                None => break,
            }
            e += 1;
        }
        let len = e - s;
        // A run that flows straight into a fused control-transfer/
        // delay-slot pair extends its blocks through it: the whole
        // loop body (or call site, or epilogue) becomes one dispatch.
        let tail = match ops.get(e).filter(|_| !leader(e)) {
            Some(&XOp::BranchDs(b, d)) => Some((Term::Branch(b), d)),
            Some(&XOp::JumpDs { target, link, ds }) => Some((Term::Jump { target, link }, ds)),
            Some(&XOp::JumpRegDs { rs, link, ds }) => Some((Term::JumpReg { rs, link }, ds)),
            _ => None,
        };
        if len >= 2 || tail.is_some() {
            // Suffix sums of the pairwise internal stalls: `suffix[i]`
            // counts the interlocks from member i to the end of the run.
            let mut suffix = vec![0u16; len];
            for i in (0..len - 1).rev() {
                suffix[i] = suffix[i + 1] + pair_stall(members[i], members[i + 1]);
            }
            let base = pool.len();
            pool.extend(members.iter().copied());
            for i in 0..len {
                let full = len - i;
                if let (Some((term, d)), true) = (tail, full <= MAX_BLOCK) {
                    // The terminator's own interlock against a
                    // trailing load member is statically known too.
                    let br_stall = match members[len - 1] {
                        BOp::Lw(m) => {
                            (m.rt != Reg::ZERO && term.src_mask() >> m.rt.num() & 1 != 0) as u16
                        }
                        _ => 0,
                    };
                    brs.push(BrBlock {
                        off: (base + i) as u32,
                        len: full as u16,
                        stalls: suffix[i] + br_stall,
                        first_mask: members[i].src_mask(),
                        term,
                        ds: d,
                    });
                    ops[s + i] = XOp::BlockBr {
                        idx: (brs.len() - 1) as u32,
                    };
                } else if full >= 2 {
                    let blen = full.min(MAX_BLOCK);
                    // Stalls inside the (possibly chunked) window; the
                    // interlock at a chunk seam is re-checked
                    // dynamically through `last_load_dest`.
                    let stalls = suffix[i] - suffix[i + blen - 1];
                    ops[s + i] = XOp::Block {
                        off: (base + i) as u32,
                        len: blen as u16,
                        stalls,
                        first_mask: members[i].src_mask(),
                    };
                }
            }
        }
        s = e;
    }
    XTable {
        ops: ops.into_boxed_slice(),
        pool: pool.into_boxed_slice(),
        brs: brs.into_boxed_slice(),
    }
}
