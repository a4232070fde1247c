//! Instruction definitions and binary encode/decode.
//!
//! Encodings follow MIPS-II where instructions exist there; the study's
//! extensions are placed in free encoding space:
//!
//! * prime/binary ISA extensions → opcode `SPECIAL2` (0x1C), as real MIPS32
//!   `MADDU` is (the paper added them to Binutils the same way, §4.3);
//! * accelerator command instructions → opcode `COP2` (0x12) with the `CO`
//!   bit set, plus `CTC2` in its architectural slot (Tables 5.3 and 5.6).

use crate::reg::Reg;
use std::fmt;

const OP_SPECIAL: u32 = 0x00;
const OP_REGIMM: u32 = 0x01;
const OP_J: u32 = 0x02;
const OP_JAL: u32 = 0x03;
const OP_BEQ: u32 = 0x04;
const OP_BNE: u32 = 0x05;
const OP_BLEZ: u32 = 0x06;
const OP_BGTZ: u32 = 0x07;
const OP_ADDIU: u32 = 0x09;
const OP_SLTI: u32 = 0x0a;
const OP_SLTIU: u32 = 0x0b;
const OP_ANDI: u32 = 0x0c;
const OP_ORI: u32 = 0x0d;
const OP_XORI: u32 = 0x0e;
const OP_LUI: u32 = 0x0f;
const OP_COP2: u32 = 0x12;
const OP_SPECIAL2: u32 = 0x1c;
const OP_LB: u32 = 0x20;
const OP_LH: u32 = 0x21;
const OP_LW: u32 = 0x23;
const OP_LBU: u32 = 0x24;
const OP_LHU: u32 = 0x25;
const OP_SB: u32 = 0x28;
const OP_SH: u32 = 0x29;
const OP_SW: u32 = 0x2b;

// SPECIAL functs
const F_SLL: u32 = 0x00;
const F_SRL: u32 = 0x02;
const F_SRA: u32 = 0x03;
const F_SLLV: u32 = 0x04;
const F_SRLV: u32 = 0x06;
const F_SRAV: u32 = 0x07;
const F_JR: u32 = 0x08;
const F_JALR: u32 = 0x09;
const F_BREAK: u32 = 0x0d;
const F_MFHI: u32 = 0x10;
const F_MTHI: u32 = 0x11;
const F_MFLO: u32 = 0x12;
const F_MTLO: u32 = 0x13;
const F_MULT: u32 = 0x18;
const F_MULTU: u32 = 0x19;
const F_DIV: u32 = 0x1a;
const F_DIVU: u32 = 0x1b;
const F_ADDU: u32 = 0x21;
const F_SUBU: u32 = 0x23;
const F_AND: u32 = 0x24;
const F_OR: u32 = 0x25;
const F_XOR: u32 = 0x26;
const F_NOR: u32 = 0x27;
const F_SLT: u32 = 0x2a;
const F_SLTU: u32 = 0x2b;

// SPECIAL2 functs (extensions; MADDU matches MIPS32)
const F2_MADDU: u32 = 0x01;
const F2_M2ADDU: u32 = 0x20;
const F2_ADDAU: u32 = 0x21;
const F2_SHA: u32 = 0x22;
const F2_MULGF2: u32 = 0x24;
const F2_MADDGF2: u32 = 0x25;

// COP2 functs (with the CO bit, rs field = 0x10)
const C2_SYNC: u32 = 0x00;
const C2_LDA: u32 = 0x01;
const C2_LDB: u32 = 0x02;
const C2_LDN: u32 = 0x03;
const C2_MUL: u32 = 0x04;
const C2_ADD: u32 = 0x05;
const C2_SUB: u32 = 0x06;
const C2_ST: u32 = 0x07;
const C2_BLD: u32 = 0x10;
const C2_BST: u32 = 0x11;
const C2_BMUL: u32 = 0x12;
const C2_BSQR: u32 = 0x13;
const C2_BADD: u32 = 0x14;
const RS_CTC2: u32 = 0x06;
const RS_CO: u32 = 0x10;

/// One decoded Pete instruction.
///
/// Branch offsets are in *instructions* relative to the delay slot (the
/// architectural MIPS convention); jump targets are word addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Instr {
    // --- R-type ALU ---
    Addu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Subu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    And {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Or {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Xor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Nor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Slt {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sltu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sllv {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Srlv {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Srav {
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    Sll {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    Srl {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    Sra {
        rd: Reg,
        rt: Reg,
        shamt: u8,
    },
    // --- I-type ALU ---
    Addiu {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Slti {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Sltiu {
        rt: Reg,
        rs: Reg,
        imm: i16,
    },
    Andi {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Ori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Xori {
        rt: Reg,
        rs: Reg,
        imm: u16,
    },
    Lui {
        rt: Reg,
        imm: u16,
    },
    // --- multiply / divide (Hi/Lo unit, §5.1.1) ---
    Mult {
        rs: Reg,
        rt: Reg,
    },
    Multu {
        rs: Reg,
        rt: Reg,
    },
    Div {
        rs: Reg,
        rt: Reg,
    },
    Divu {
        rs: Reg,
        rt: Reg,
    },
    Mfhi {
        rd: Reg,
    },
    Mflo {
        rd: Reg,
    },
    Mthi {
        rs: Reg,
    },
    Mtlo {
        rs: Reg,
    },
    // --- memory ---
    Lw {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lh {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lhu {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lb {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Lbu {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Sw {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Sh {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    Sb {
        rt: Reg,
        base: Reg,
        offset: i16,
    },
    // --- control flow (all with one architectural delay slot) ---
    Beq {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    Bne {
        rs: Reg,
        rt: Reg,
        offset: i16,
    },
    Blez {
        rs: Reg,
        offset: i16,
    },
    Bgtz {
        rs: Reg,
        offset: i16,
    },
    Bltz {
        rs: Reg,
        offset: i16,
    },
    Bgez {
        rs: Reg,
        offset: i16,
    },
    J {
        target: u32,
    },
    Jal {
        target: u32,
    },
    Jr {
        rs: Reg,
    },
    Jalr {
        rd: Reg,
        rs: Reg,
    },
    /// Stops the simulation (used as the program epilogue).
    Break {
        code: u16,
    },
    // --- prime-field ISA extensions (Table 5.1) ---
    /// `(OvFlo,Hi,Lo) += rs * rt`
    Maddu {
        rs: Reg,
        rt: Reg,
    },
    /// `(OvFlo,Hi,Lo) += 2 * rs * rt` (squaring optimization)
    M2addu {
        rs: Reg,
        rt: Reg,
    },
    /// `(OvFlo,Hi,Lo) += (rs << 32) + rt`
    Addau {
        rs: Reg,
        rt: Reg,
    },
    /// `(OvFlo,Hi,Lo) >>= 32`
    Sha,
    // --- binary-field ISA extensions (Table 5.2) ---
    /// `(OvFlo,Hi,Lo) = rs (x) rt` (carry-less multiply)
    Mulgf2 {
        rs: Reg,
        rt: Reg,
    },
    /// `(OvFlo,Hi,Lo) ^= rs (x) rt`
    Maddgf2 {
        rs: Reg,
        rt: Reg,
    },
    // --- Monte coprocessor commands (Table 5.3) ---
    /// Move to coprocessor-2 control register.
    Ctc2 {
        rt: Reg,
        rd: u8,
    },
    /// Synchronize: stall until the coprocessor drains.
    Cop2Sync,
    /// DMA operand A from `MEM[GPR[rt]]` into Monte.
    Cop2LdA {
        rt: Reg,
    },
    /// DMA operand B from `MEM[GPR[rt]]` into Monte.
    Cop2LdB {
        rt: Reg,
    },
    /// DMA modulus N from `MEM[GPR[rt]]` into Monte.
    Cop2LdN {
        rt: Reg,
    },
    /// Modular multiply (Montgomery CIOS microprogram).
    Cop2Mul,
    /// Modular add microprogram.
    Cop2Add,
    /// Modular subtract microprogram.
    Cop2Sub,
    /// DMA the result buffer to `MEM[GPR[rt]]`.
    Cop2St {
        rt: Reg,
    },
    // --- Billie coprocessor commands (Table 5.6) ---
    /// Load a field element from `MEM[GPR[rt]]` into Billie register `fs`.
    BilLd {
        rt: Reg,
        fs: u8,
    },
    /// Store Billie register `fs` to `MEM[GPR[rt]]`.
    BilSt {
        rt: Reg,
        fs: u8,
    },
    /// `BR[fd] = BR[fs] * BR[ft]` (digit-serial modular multiply).
    BilMul {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    /// `BR[fd] = BR[ft]^2` (hardwired squarer).
    BilSqr {
        fd: u8,
        ft: u8,
    },
    /// `BR[fd] = BR[fs] + BR[ft]` (full-width XOR).
    BilAdd {
        fd: u8,
        fs: u8,
        ft: u8,
    },
}

/// Error returned when a 32-bit word does not decode to a known
/// instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// The undecodable word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

fn r(n: u32) -> Reg {
    Reg((n & 31) as u8)
}

#[allow(clippy::too_many_arguments)]
fn enc_r(op: u32, rs: u32, rt: u32, rd: u32, shamt: u32, funct: u32) -> u32 {
    (op << 26)
        | ((rs & 31) << 21)
        | ((rt & 31) << 16)
        | ((rd & 31) << 11)
        | ((shamt & 31) << 6)
        | (funct & 63)
}

fn enc_i(op: u32, rs: u32, rt: u32, imm: u32) -> u32 {
    (op << 26) | ((rs & 31) << 21) | ((rt & 31) << 16) | (imm & 0xffff)
}

impl Instr {
    /// A canonical `nop` (`sll $zero, $zero, 0`).
    pub const NOP: Instr = Instr::Sll {
        rd: Reg::ZERO,
        rt: Reg::ZERO,
        shamt: 0,
    };

    /// Encodes to the 32-bit machine word.
    pub fn encode(self) -> u32 {
        use Instr::*;
        let rn = |x: Reg| x.num() as u32;
        match self {
            Addu { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_ADDU),
            Subu { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_SUBU),
            And { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_AND),
            Or { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_OR),
            Xor { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_XOR),
            Nor { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_NOR),
            Slt { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_SLT),
            Sltu { rd, rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_SLTU),
            Sllv { rd, rt, rs } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_SLLV),
            Srlv { rd, rt, rs } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_SRLV),
            Srav { rd, rt, rs } => enc_r(OP_SPECIAL, rn(rs), rn(rt), rn(rd), 0, F_SRAV),
            Sll { rd, rt, shamt } => enc_r(OP_SPECIAL, 0, rn(rt), rn(rd), shamt as u32, F_SLL),
            Srl { rd, rt, shamt } => enc_r(OP_SPECIAL, 0, rn(rt), rn(rd), shamt as u32, F_SRL),
            Sra { rd, rt, shamt } => enc_r(OP_SPECIAL, 0, rn(rt), rn(rd), shamt as u32, F_SRA),
            Addiu { rt, rs, imm } => enc_i(OP_ADDIU, rn(rs), rn(rt), imm as u16 as u32),
            Slti { rt, rs, imm } => enc_i(OP_SLTI, rn(rs), rn(rt), imm as u16 as u32),
            Sltiu { rt, rs, imm } => enc_i(OP_SLTIU, rn(rs), rn(rt), imm as u16 as u32),
            Andi { rt, rs, imm } => enc_i(OP_ANDI, rn(rs), rn(rt), imm as u32),
            Ori { rt, rs, imm } => enc_i(OP_ORI, rn(rs), rn(rt), imm as u32),
            Xori { rt, rs, imm } => enc_i(OP_XORI, rn(rs), rn(rt), imm as u32),
            Lui { rt, imm } => enc_i(OP_LUI, 0, rn(rt), imm as u32),
            Mult { rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), 0, 0, F_MULT),
            Multu { rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), 0, 0, F_MULTU),
            Div { rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), 0, 0, F_DIV),
            Divu { rs, rt } => enc_r(OP_SPECIAL, rn(rs), rn(rt), 0, 0, F_DIVU),
            Mfhi { rd } => enc_r(OP_SPECIAL, 0, 0, rn(rd), 0, F_MFHI),
            Mflo { rd } => enc_r(OP_SPECIAL, 0, 0, rn(rd), 0, F_MFLO),
            Mthi { rs } => enc_r(OP_SPECIAL, rn(rs), 0, 0, 0, F_MTHI),
            Mtlo { rs } => enc_r(OP_SPECIAL, rn(rs), 0, 0, 0, F_MTLO),
            Lw { rt, base, offset } => enc_i(OP_LW, rn(base), rn(rt), offset as u16 as u32),
            Lh { rt, base, offset } => enc_i(OP_LH, rn(base), rn(rt), offset as u16 as u32),
            Lhu { rt, base, offset } => enc_i(OP_LHU, rn(base), rn(rt), offset as u16 as u32),
            Lb { rt, base, offset } => enc_i(OP_LB, rn(base), rn(rt), offset as u16 as u32),
            Lbu { rt, base, offset } => enc_i(OP_LBU, rn(base), rn(rt), offset as u16 as u32),
            Sw { rt, base, offset } => enc_i(OP_SW, rn(base), rn(rt), offset as u16 as u32),
            Sh { rt, base, offset } => enc_i(OP_SH, rn(base), rn(rt), offset as u16 as u32),
            Sb { rt, base, offset } => enc_i(OP_SB, rn(base), rn(rt), offset as u16 as u32),
            Beq { rs, rt, offset } => enc_i(OP_BEQ, rn(rs), rn(rt), offset as u16 as u32),
            Bne { rs, rt, offset } => enc_i(OP_BNE, rn(rs), rn(rt), offset as u16 as u32),
            Blez { rs, offset } => enc_i(OP_BLEZ, rn(rs), 0, offset as u16 as u32),
            Bgtz { rs, offset } => enc_i(OP_BGTZ, rn(rs), 0, offset as u16 as u32),
            Bltz { rs, offset } => enc_i(OP_REGIMM, rn(rs), 0, offset as u16 as u32),
            Bgez { rs, offset } => enc_i(OP_REGIMM, rn(rs), 1, offset as u16 as u32),
            J { target } => (OP_J << 26) | (target & 0x03ff_ffff),
            Jal { target } => (OP_JAL << 26) | (target & 0x03ff_ffff),
            Jr { rs } => enc_r(OP_SPECIAL, rn(rs), 0, 0, 0, F_JR),
            Jalr { rd, rs } => enc_r(OP_SPECIAL, rn(rs), 0, rn(rd), 0, F_JALR),
            Break { code } => ((code as u32) << 6) | F_BREAK,
            Maddu { rs, rt } => enc_r(OP_SPECIAL2, rn(rs), rn(rt), 0, 0, F2_MADDU),
            M2addu { rs, rt } => enc_r(OP_SPECIAL2, rn(rs), rn(rt), 0, 0, F2_M2ADDU),
            Addau { rs, rt } => enc_r(OP_SPECIAL2, rn(rs), rn(rt), 0, 0, F2_ADDAU),
            Sha => enc_r(OP_SPECIAL2, 0, 0, 0, 0, F2_SHA),
            Mulgf2 { rs, rt } => enc_r(OP_SPECIAL2, rn(rs), rn(rt), 0, 0, F2_MULGF2),
            Maddgf2 { rs, rt } => enc_r(OP_SPECIAL2, rn(rs), rn(rt), 0, 0, F2_MADDGF2),
            Ctc2 { rt, rd } => enc_r(OP_COP2, RS_CTC2, rn(rt), rd as u32, 0, 0),
            Cop2Sync => enc_r(OP_COP2, RS_CO, 0, 0, 0, C2_SYNC),
            Cop2LdA { rt } => enc_r(OP_COP2, RS_CO, rn(rt), 0, 0, C2_LDA),
            Cop2LdB { rt } => enc_r(OP_COP2, RS_CO, rn(rt), 0, 0, C2_LDB),
            Cop2LdN { rt } => enc_r(OP_COP2, RS_CO, rn(rt), 0, 0, C2_LDN),
            Cop2Mul => enc_r(OP_COP2, RS_CO, 0, 0, 0, C2_MUL),
            Cop2Add => enc_r(OP_COP2, RS_CO, 0, 0, 0, C2_ADD),
            Cop2Sub => enc_r(OP_COP2, RS_CO, 0, 0, 0, C2_SUB),
            Cop2St { rt } => enc_r(OP_COP2, RS_CO, rn(rt), 0, 0, C2_ST),
            BilLd { rt, fs } => enc_r(OP_COP2, RS_CO, rn(rt), fs as u32, 0, C2_BLD),
            BilSt { rt, fs } => enc_r(OP_COP2, RS_CO, rn(rt), fs as u32, 0, C2_BST),
            BilMul { fd, fs, ft } => {
                enc_r(OP_COP2, RS_CO, ft as u32, fs as u32, fd as u32, C2_BMUL)
            }
            BilSqr { fd, ft } => enc_r(OP_COP2, RS_CO, ft as u32, 0, fd as u32, C2_BSQR),
            BilAdd { fd, fs, ft } => {
                enc_r(OP_COP2, RS_CO, ft as u32, fs as u32, fd as u32, C2_BADD)
            }
        }
    }

    /// Decodes a 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for words outside Pete's ISA.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        use Instr::*;
        let op = word >> 26;
        let rs = r((word >> 21) & 31);
        let rt = r((word >> 16) & 31);
        let rd = r((word >> 11) & 31);
        let shamt = ((word >> 6) & 31) as u8;
        let funct = word & 63;
        let imm = (word & 0xffff) as u16;
        let simm = imm as i16;
        let err = Err(DecodeError { word });
        Ok(match op {
            OP_SPECIAL => match funct {
                F_SLL => Sll { rd, rt, shamt },
                F_SRL => Srl { rd, rt, shamt },
                F_SRA => Sra { rd, rt, shamt },
                F_SLLV => Sllv { rd, rt, rs },
                F_SRLV => Srlv { rd, rt, rs },
                F_SRAV => Srav { rd, rt, rs },
                F_JR => Jr { rs },
                F_JALR => Jalr { rd, rs },
                F_BREAK => Break {
                    code: ((word >> 6) & 0xffff) as u16,
                },
                F_MFHI => Mfhi { rd },
                F_MTHI => Mthi { rs },
                F_MFLO => Mflo { rd },
                F_MTLO => Mtlo { rs },
                F_MULT => Mult { rs, rt },
                F_MULTU => Multu { rs, rt },
                F_DIV => Div { rs, rt },
                F_DIVU => Divu { rs, rt },
                F_ADDU => Addu { rd, rs, rt },
                F_SUBU => Subu { rd, rs, rt },
                F_AND => And { rd, rs, rt },
                F_OR => Or { rd, rs, rt },
                F_XOR => Xor { rd, rs, rt },
                F_NOR => Nor { rd, rs, rt },
                F_SLT => Slt { rd, rs, rt },
                F_SLTU => Sltu { rd, rs, rt },
                _ => return err,
            },
            OP_REGIMM => match rt.num() {
                0 => Bltz { rs, offset: simm },
                1 => Bgez { rs, offset: simm },
                _ => return err,
            },
            OP_J => J {
                target: word & 0x03ff_ffff,
            },
            OP_JAL => Jal {
                target: word & 0x03ff_ffff,
            },
            OP_BEQ => Beq {
                rs,
                rt,
                offset: simm,
            },
            OP_BNE => Bne {
                rs,
                rt,
                offset: simm,
            },
            OP_BLEZ => Blez { rs, offset: simm },
            OP_BGTZ => Bgtz { rs, offset: simm },
            OP_ADDIU => Addiu { rt, rs, imm: simm },
            OP_SLTI => Slti { rt, rs, imm: simm },
            OP_SLTIU => Sltiu { rt, rs, imm: simm },
            OP_ANDI => Andi { rt, rs, imm },
            OP_ORI => Ori { rt, rs, imm },
            OP_XORI => Xori { rt, rs, imm },
            OP_LUI => Lui { rt, imm },
            OP_LB => Lb {
                rt,
                base: rs,
                offset: simm,
            },
            OP_LH => Lh {
                rt,
                base: rs,
                offset: simm,
            },
            OP_LW => Lw {
                rt,
                base: rs,
                offset: simm,
            },
            OP_LBU => Lbu {
                rt,
                base: rs,
                offset: simm,
            },
            OP_LHU => Lhu {
                rt,
                base: rs,
                offset: simm,
            },
            OP_SB => Sb {
                rt,
                base: rs,
                offset: simm,
            },
            OP_SH => Sh {
                rt,
                base: rs,
                offset: simm,
            },
            OP_SW => Sw {
                rt,
                base: rs,
                offset: simm,
            },
            OP_SPECIAL2 => match funct {
                F2_MADDU => Maddu { rs, rt },
                F2_M2ADDU => M2addu { rs, rt },
                F2_ADDAU => Addau { rs, rt },
                F2_SHA => Sha,
                F2_MULGF2 => Mulgf2 { rs, rt },
                F2_MADDGF2 => Maddgf2 { rs, rt },
                _ => return err,
            },
            OP_COP2 => {
                if rs.num() as u32 == RS_CTC2 {
                    Ctc2 { rt, rd: rd.num() }
                } else if rs.num() as u32 == RS_CO {
                    match funct {
                        C2_SYNC => Cop2Sync,
                        C2_LDA => Cop2LdA { rt },
                        C2_LDB => Cop2LdB { rt },
                        C2_LDN => Cop2LdN { rt },
                        C2_MUL => Cop2Mul,
                        C2_ADD => Cop2Add,
                        C2_SUB => Cop2Sub,
                        C2_ST => Cop2St { rt },
                        C2_BLD => BilLd { rt, fs: rd.num() },
                        C2_BST => BilSt { rt, fs: rd.num() },
                        C2_BMUL => BilMul {
                            fd: shamt,
                            fs: rd.num(),
                            ft: rt.num(),
                        },
                        C2_BSQR => BilSqr {
                            fd: shamt,
                            ft: rt.num(),
                        },
                        C2_BADD => BilAdd {
                            fd: shamt,
                            fs: rd.num(),
                            ft: rt.num(),
                        },
                        _ => return err,
                    }
                } else {
                    return err;
                }
            }
            _ => return err,
        })
    }

    /// True for branch/jump instructions (which have a delay slot).
    pub fn is_control_flow(self) -> bool {
        use Instr::*;
        matches!(
            self,
            Beq { .. }
                | Bne { .. }
                | Blez { .. }
                | Bgtz { .. }
                | Bltz { .. }
                | Bgez { .. }
                | J { .. }
                | Jal { .. }
                | Jr { .. }
                | Jalr { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Addu { rd, rs, rt } => write!(f, "addu {rd}, {rs}, {rt}"),
            Subu { rd, rs, rt } => write!(f, "subu {rd}, {rs}, {rt}"),
            And { rd, rs, rt } => write!(f, "and {rd}, {rs}, {rt}"),
            Or { rd, rs, rt } => write!(f, "or {rd}, {rs}, {rt}"),
            Xor { rd, rs, rt } => write!(f, "xor {rd}, {rs}, {rt}"),
            Nor { rd, rs, rt } => write!(f, "nor {rd}, {rs}, {rt}"),
            Slt { rd, rs, rt } => write!(f, "slt {rd}, {rs}, {rt}"),
            Sltu { rd, rs, rt } => write!(f, "sltu {rd}, {rs}, {rt}"),
            Sllv { rd, rt, rs } => write!(f, "sllv {rd}, {rt}, {rs}"),
            Srlv { rd, rt, rs } => write!(f, "srlv {rd}, {rt}, {rs}"),
            Srav { rd, rt, rs } => write!(f, "srav {rd}, {rt}, {rs}"),
            Sll { rd, rt, shamt } => {
                if rd == Reg::ZERO && rt == Reg::ZERO && shamt == 0 {
                    write!(f, "nop")
                } else {
                    write!(f, "sll {rd}, {rt}, {shamt}")
                }
            }
            Srl { rd, rt, shamt } => write!(f, "srl {rd}, {rt}, {shamt}"),
            Sra { rd, rt, shamt } => write!(f, "sra {rd}, {rt}, {shamt}"),
            Addiu { rt, rs, imm } => write!(f, "addiu {rt}, {rs}, {imm}"),
            Slti { rt, rs, imm } => write!(f, "slti {rt}, {rs}, {imm}"),
            Sltiu { rt, rs, imm } => write!(f, "sltiu {rt}, {rs}, {imm}"),
            Andi { rt, rs, imm } => write!(f, "andi {rt}, {rs}, {imm:#x}"),
            Ori { rt, rs, imm } => write!(f, "ori {rt}, {rs}, {imm:#x}"),
            Xori { rt, rs, imm } => write!(f, "xori {rt}, {rs}, {imm:#x}"),
            Lui { rt, imm } => write!(f, "lui {rt}, {imm:#x}"),
            Mult { rs, rt } => write!(f, "mult {rs}, {rt}"),
            Multu { rs, rt } => write!(f, "multu {rs}, {rt}"),
            Div { rs, rt } => write!(f, "div {rs}, {rt}"),
            Divu { rs, rt } => write!(f, "divu {rs}, {rt}"),
            Mfhi { rd } => write!(f, "mfhi {rd}"),
            Mflo { rd } => write!(f, "mflo {rd}"),
            Mthi { rs } => write!(f, "mthi {rs}"),
            Mtlo { rs } => write!(f, "mtlo {rs}"),
            Lw { rt, base, offset } => write!(f, "lw {rt}, {offset}({base})"),
            Lh { rt, base, offset } => write!(f, "lh {rt}, {offset}({base})"),
            Lhu { rt, base, offset } => write!(f, "lhu {rt}, {offset}({base})"),
            Lb { rt, base, offset } => write!(f, "lb {rt}, {offset}({base})"),
            Lbu { rt, base, offset } => write!(f, "lbu {rt}, {offset}({base})"),
            Sw { rt, base, offset } => write!(f, "sw {rt}, {offset}({base})"),
            Sh { rt, base, offset } => write!(f, "sh {rt}, {offset}({base})"),
            Sb { rt, base, offset } => write!(f, "sb {rt}, {offset}({base})"),
            Beq { rs, rt, offset } => write!(f, "beq {rs}, {rt}, {offset}"),
            Bne { rs, rt, offset } => write!(f, "bne {rs}, {rt}, {offset}"),
            Blez { rs, offset } => write!(f, "blez {rs}, {offset}"),
            Bgtz { rs, offset } => write!(f, "bgtz {rs}, {offset}"),
            Bltz { rs, offset } => write!(f, "bltz {rs}, {offset}"),
            Bgez { rs, offset } => write!(f, "bgez {rs}, {offset}"),
            J { target } => write!(f, "j {:#x}", target << 2),
            Jal { target } => write!(f, "jal {:#x}", target << 2),
            Jr { rs } => write!(f, "jr {rs}"),
            Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Break { code } => write!(f, "break {code}"),
            Maddu { rs, rt } => write!(f, "maddu {rs}, {rt}"),
            M2addu { rs, rt } => write!(f, "m2addu {rs}, {rt}"),
            Addau { rs, rt } => write!(f, "addau {rs}, {rt}"),
            Sha => write!(f, "sha"),
            Mulgf2 { rs, rt } => write!(f, "mulgf2 {rs}, {rt}"),
            Maddgf2 { rs, rt } => write!(f, "maddgf2 {rs}, {rt}"),
            Ctc2 { rt, rd } => write!(f, "ctc2 {rt}, ${rd}"),
            Cop2Sync => write!(f, "cop2sync"),
            Cop2LdA { rt } => write!(f, "cop2lda {rt}"),
            Cop2LdB { rt } => write!(f, "cop2ldb {rt}"),
            Cop2LdN { rt } => write!(f, "cop2ldn {rt}"),
            Cop2Mul => write!(f, "cop2mul"),
            Cop2Add => write!(f, "cop2add"),
            Cop2Sub => write!(f, "cop2sub"),
            Cop2St { rt } => write!(f, "cop2st {rt}"),
            BilLd { rt, fs } => write!(f, "cop2ld {rt}, $f{fs}"),
            BilSt { rt, fs } => write!(f, "cop2st {rt}, $f{fs}"),
            BilMul { fd, fs, ft } => write!(f, "cop2mul $f{fd}, $f{fs}, $f{ft}"),
            BilSqr { fd, ft } => write!(f, "cop2sqr $f{fd}, $f{ft}"),
            BilAdd { fd, fs, ft } => write!(f, "cop2add $f{fd}, $f{fs}, $f{ft}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        // addu $t0, $t1, $t2 == 0x012a4021
        let i = Instr::Addu {
            rd: Reg::T0,
            rs: Reg::T1,
            rt: Reg::T2,
        };
        assert_eq!(i.encode(), 0x012a_4021);
        // lw $t0, 4($sp) == 0x8fa80004
        let i = Instr::Lw {
            rt: Reg::T0,
            base: Reg::SP,
            offset: 4,
        };
        assert_eq!(i.encode(), 0x8fa8_0004);
        // nop
        assert_eq!(Instr::NOP.encode(), 0);
    }

    #[test]
    fn nop_displays() {
        assert_eq!(Instr::NOP.to_string(), "nop");
    }

    #[test]
    fn round_trip_sample() {
        let cases = [
            Instr::Addiu {
                rt: Reg::SP,
                rs: Reg::SP,
                imm: -32,
            },
            Instr::Beq {
                rs: Reg::T0,
                rt: Reg::ZERO,
                offset: -7,
            },
            Instr::Jal { target: 0x12345 },
            Instr::Maddu {
                rs: Reg::A0,
                rt: Reg::A1,
            },
            Instr::Sha,
            Instr::Mulgf2 {
                rs: Reg::T3,
                rt: Reg::T4,
            },
            Instr::Ctc2 { rt: Reg::T0, rd: 3 },
            Instr::Cop2LdA { rt: Reg::A0 },
            Instr::Cop2Mul,
            Instr::BilMul {
                fd: 7,
                fs: 3,
                ft: 15,
            },
            Instr::BilSqr { fd: 1, ft: 2 },
            Instr::Break { code: 42 },
        ];
        for i in cases {
            let w = i.encode();
            assert_eq!(Instr::decode(w), Ok(i), "word {w:#x}");
        }
    }

    #[test]
    fn bad_words_rejected() {
        // COP1 (floating point) is not in Pete's ISA.
        assert!(Instr::decode(0x4600_0000).is_err());
        // SPECIAL funct 0x01 is unassigned.
        assert!(Instr::decode(0x0000_0001).is_err());
    }
}
