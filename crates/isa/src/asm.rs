//! A two-pass macro-assembler producing ROM images for the simulator.
//!
//! The software suite of `ule-swlib` is written against this builder the
//! way the paper's C++ suite was written against GCC/Binutils (§4.3): the
//! assembler resolves labels, expands the handful of pseudo-instructions
//! (`li`, `la`, `move`, `b`), lays out a read-only data section after the
//! text, and reserves named RAM buffers.
//!
//! Memory map (matching the baseline architecture of Fig 5.1):
//!
//! * `0x0000_0000` — 256 KB program ROM: text, then read-only data;
//! * `0x1000_0000` — 16 KB RAM: named buffers from the bottom, stack from
//!   the top.
//!
//! Branches have an architectural **delay slot**; the assembler does *not*
//! insert `nop`s automatically — callers either schedule a useful
//! instruction after every branch or use the `*_ds` helpers.

use crate::instr::Instr;
use crate::reg::Reg;
use std::collections::HashMap;

/// Base address of the program ROM.
pub const ROM_BASE: u32 = 0x0000_0000;
/// Size of the program ROM in bytes (256 KB, §5.1).
pub const ROM_SIZE: u32 = 256 * 1024;
/// Base address of the data RAM.
pub const RAM_BASE: u32 = 0x1000_0000;
/// Size of the data RAM in bytes (16 KB, §5.1).
pub const RAM_SIZE: u32 = 16 * 1024;

/// Errors produced at link time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinkError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// Text + data exceed the ROM.
    RomOverflow {
        /// Bytes required.
        need: u32,
    },
    /// Named buffers exceed the RAM.
    RamOverflow {
        /// Bytes required.
        need: u32,
    },
    /// A branch target is out of the 16-bit offset range.
    BranchOutOfRange(String),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::UndefinedLabel(l) => write!(f, "undefined label {l:?}"),
            LinkError::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
            LinkError::RomOverflow { need } => write!(f, "ROM overflow: need {need} bytes"),
            LinkError::RamOverflow { need } => write!(f, "RAM overflow: need {need} bytes"),
            LinkError::BranchOutOfRange(l) => write!(f, "branch to {l:?} out of range"),
        }
    }
}

impl std::error::Error for LinkError {}

#[derive(Clone, Debug)]
enum Fixup {
    /// Patch the 16-bit branch offset of the instruction at `index`.
    Branch { index: usize, label: String },
    /// Patch the 26-bit jump target.
    Jump { index: usize, label: String },
    /// Patch a `lui` with the high half of a symbol address.
    Hi16 { index: usize, label: String },
    /// Patch an `ori` with the low half of a symbol address.
    Lo16 { index: usize, label: String },
}

/// A linked program image.
#[derive(Clone, Debug)]
pub struct Program {
    rom: Vec<u32>,
    entry: u32,
    text_words: usize,
    symbols: HashMap<String, u32>,
    ram_symbols: HashMap<String, u32>,
    ram_reserved: u32,
}

impl Program {
    /// The ROM image as 32-bit words (text followed by read-only data).
    pub fn rom(&self) -> &[u32] {
        &self.rom
    }

    /// Entry-point address.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Number of text (instruction) words at the start of the ROM.
    pub fn text_words(&self) -> usize {
        self.text_words
    }

    /// Address of a text or data label.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Address of a named RAM buffer.
    pub fn ram_symbol(&self, name: &str) -> Option<u32> {
        self.ram_symbols.get(name).copied()
    }

    /// The text-section labels as a deterministic routine table:
    /// `(start_address, name)` sorted by address, with aliases that
    /// share an address (e.g. a label defined as a pure jump to the
    /// next label) merged into one `"a/b"` entry. Data labels (at or
    /// past the end of text) are excluded. This is the symbol source
    /// for the per-routine cycle profiler in `ule-pete`.
    pub fn text_symbols(&self) -> Vec<(u32, String)> {
        let text_end = (self.text_words as u32) * 4;
        let mut syms: Vec<(u32, &str)> = self
            .symbols
            .iter()
            .filter(|&(_, &addr)| addr < text_end)
            .map(|(name, &addr)| (addr, name.as_str()))
            .collect();
        // HashMap iteration order is nondeterministic; sort by
        // (addr, name) so alias merge order is stable run to run.
        syms.sort_unstable();
        let mut out: Vec<(u32, String)> = Vec::with_capacity(syms.len());
        for (addr, name) in syms {
            match out.last_mut() {
                Some((prev, merged)) if *prev == addr => {
                    merged.push('/');
                    merged.push_str(name);
                }
                _ => out.push((addr, name.to_owned())),
            }
        }
        out
    }

    /// Bytes of RAM reserved for named buffers (the stack grows down from
    /// the top of RAM toward them).
    pub fn ram_reserved(&self) -> u32 {
        self.ram_reserved
    }

    /// Disassembles the text section (for debugging).
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, &w) in self.rom.iter().take(self.text_words).enumerate() {
            let addr = ROM_BASE + (i as u32) * 4;
            match Instr::decode(w) {
                Ok(ins) => out.push_str(&format!("{addr:08x}: {ins}\n")),
                Err(_) => out.push_str(&format!("{addr:08x}: .word {w:#010x}\n")),
            }
        }
        out
    }
}

/// The assembler/builder.
///
/// # Example
///
/// ```
/// use ule_isa::asm::Asm;
/// use ule_isa::reg::Reg;
///
/// let mut a = Asm::new();
/// a.label("entry");
/// a.li(Reg::T0, 5);
/// a.label("loop");
/// a.addiu(Reg::T0, Reg::T0, -1);
/// a.bne(Reg::T0, Reg::ZERO, "loop");
/// a.nop(); // delay slot
/// a.brk(0);
/// let program = a.link("entry").unwrap();
/// assert_eq!(program.entry(), program.symbol("entry").unwrap());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Asm {
    text: Vec<Instr>,
    fixups: Vec<Fixup>,
    data: Vec<u32>,
    text_labels: HashMap<String, usize>,
    data_labels: HashMap<String, usize>,
    ram_symbols: HashMap<String, u32>,
    ram_cursor: u32,
    duplicate: Option<String>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Asm::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True if no instructions were emitted.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instr) {
        self.text.push(i);
    }

    /// Defines a text label at the current position.
    pub fn label(&mut self, name: &str) {
        if self
            .text_labels
            .insert(name.to_owned(), self.text.len())
            .is_some()
            || self.data_labels.contains_key(name)
        {
            self.duplicate.get_or_insert_with(|| name.to_owned());
        }
    }

    /// Defines a data label at the current data position.
    pub fn data_label(&mut self, name: &str) {
        if self
            .data_labels
            .insert(name.to_owned(), self.data.len())
            .is_some()
            || self.text_labels.contains_key(name)
        {
            self.duplicate.get_or_insert_with(|| name.to_owned());
        }
    }

    /// Appends one read-only data word.
    pub fn word(&mut self, w: u32) {
        self.data.push(w);
    }

    /// Appends read-only data words.
    pub fn words(&mut self, ws: &[u32]) {
        self.data.extend_from_slice(ws);
    }

    /// Reserves a named RAM buffer of `words` words; returns its address.
    pub fn ram_alloc(&mut self, name: &str, words: u32) -> u32 {
        let addr = RAM_BASE + self.ram_cursor;
        if self.ram_symbols.insert(name.to_owned(), addr).is_some() {
            self.duplicate.get_or_insert_with(|| name.to_owned());
        }
        self.ram_cursor += words * 4;
        addr
    }

    // --- pseudo-instructions ---

    /// `nop`.
    pub fn nop(&mut self) {
        self.emit(Instr::NOP);
    }

    /// Loads a 32-bit constant (1 or 2 instructions).
    pub fn li(&mut self, rd: Reg, v: i64) {
        let v = v as u32;
        if v & 0xffff_0000 == 0 {
            self.emit(Instr::Ori {
                rt: rd,
                rs: Reg::ZERO,
                imm: v as u16,
            });
        } else if v & 0xffff == 0 {
            self.emit(Instr::Lui {
                rt: rd,
                imm: (v >> 16) as u16,
            });
        } else if v & 0xffff_8000 == 0xffff_8000 {
            // small negative constants via addiu sign extension
            self.emit(Instr::Addiu {
                rt: rd,
                rs: Reg::ZERO,
                imm: v as u16 as i16,
            });
        } else {
            self.emit(Instr::Lui {
                rt: rd,
                imm: (v >> 16) as u16,
            });
            self.emit(Instr::Ori {
                rt: rd,
                rs: rd,
                imm: v as u16,
            });
        }
    }

    /// Loads the address of a label (always `lui` + `ori`, 2 instructions,
    /// so layout is fixed at emit time).
    pub fn la(&mut self, rd: Reg, label: &str) {
        self.fixups.push(Fixup::Hi16 {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Lui { rt: rd, imm: 0 });
        self.fixups.push(Fixup::Lo16 {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Ori {
            rt: rd,
            rs: rd,
            imm: 0,
        });
    }

    /// Register move (`addu rd, rs, $zero`).
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instr::Addu {
            rd,
            rs,
            rt: Reg::ZERO,
        });
    }

    /// Unconditional branch (`beq $zero, $zero, label`); caller supplies
    /// the delay slot.
    pub fn b(&mut self, label: &str) {
        self.beq(Reg::ZERO, Reg::ZERO, label);
    }

    // --- ALU ---

    /// `addu rd, rs, rt`.
    pub fn addu(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::Addu { rd, rs, rt });
    }
    /// `subu rd, rs, rt`.
    pub fn subu(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::Subu { rd, rs, rt });
    }
    /// `and rd, rs, rt`.
    pub fn and(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::And { rd, rs, rt });
    }
    /// `or rd, rs, rt`.
    pub fn or(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::Or { rd, rs, rt });
    }
    /// `xor rd, rs, rt`.
    pub fn xor(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::Xor { rd, rs, rt });
    }
    /// `nor rd, rs, rt`.
    pub fn nor(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::Nor { rd, rs, rt });
    }
    /// `slt rd, rs, rt`.
    pub fn slt(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::Slt { rd, rs, rt });
    }
    /// `sltu rd, rs, rt`.
    pub fn sltu(&mut self, rd: Reg, rs: Reg, rt: Reg) {
        self.emit(Instr::Sltu { rd, rs, rt });
    }
    /// `sllv rd, rt, rs` (shift amount in `rs`).
    pub fn sllv(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.emit(Instr::Sllv { rd, rt, rs });
    }
    /// `srlv rd, rt, rs`.
    pub fn srlv(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.emit(Instr::Srlv { rd, rt, rs });
    }
    /// `srav rd, rt, rs`.
    pub fn srav(&mut self, rd: Reg, rt: Reg, rs: Reg) {
        self.emit(Instr::Srav { rd, rt, rs });
    }
    /// `sll rd, rt, shamt`.
    pub fn sll(&mut self, rd: Reg, rt: Reg, shamt: u8) {
        self.emit(Instr::Sll { rd, rt, shamt });
    }
    /// `srl rd, rt, shamt`.
    pub fn srl(&mut self, rd: Reg, rt: Reg, shamt: u8) {
        self.emit(Instr::Srl { rd, rt, shamt });
    }
    /// `sra rd, rt, shamt`.
    pub fn sra(&mut self, rd: Reg, rt: Reg, shamt: u8) {
        self.emit(Instr::Sra { rd, rt, shamt });
    }
    /// `addiu rt, rs, imm`.
    pub fn addiu(&mut self, rt: Reg, rs: Reg, imm: i16) {
        self.emit(Instr::Addiu { rt, rs, imm });
    }
    /// `slti rt, rs, imm`.
    pub fn slti(&mut self, rt: Reg, rs: Reg, imm: i16) {
        self.emit(Instr::Slti { rt, rs, imm });
    }
    /// `sltiu rt, rs, imm`.
    pub fn sltiu(&mut self, rt: Reg, rs: Reg, imm: i16) {
        self.emit(Instr::Sltiu { rt, rs, imm });
    }
    /// `andi rt, rs, imm`.
    pub fn andi(&mut self, rt: Reg, rs: Reg, imm: u16) {
        self.emit(Instr::Andi { rt, rs, imm });
    }
    /// `ori rt, rs, imm`.
    pub fn ori(&mut self, rt: Reg, rs: Reg, imm: u16) {
        self.emit(Instr::Ori { rt, rs, imm });
    }
    /// `xori rt, rs, imm`.
    pub fn xori(&mut self, rt: Reg, rs: Reg, imm: u16) {
        self.emit(Instr::Xori { rt, rs, imm });
    }
    /// `lui rt, imm`.
    pub fn lui(&mut self, rt: Reg, imm: u16) {
        self.emit(Instr::Lui { rt, imm });
    }

    // --- multiply / divide ---

    /// `mult rs, rt`.
    pub fn mult(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Mult { rs, rt });
    }
    /// `multu rs, rt`.
    pub fn multu(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Multu { rs, rt });
    }
    /// `div rs, rt`.
    pub fn div(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Div { rs, rt });
    }
    /// `divu rs, rt`.
    pub fn divu(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Divu { rs, rt });
    }
    /// `mfhi rd`.
    pub fn mfhi(&mut self, rd: Reg) {
        self.emit(Instr::Mfhi { rd });
    }
    /// `mflo rd`.
    pub fn mflo(&mut self, rd: Reg) {
        self.emit(Instr::Mflo { rd });
    }
    /// `mthi rs`.
    pub fn mthi(&mut self, rs: Reg) {
        self.emit(Instr::Mthi { rs });
    }
    /// `mtlo rs`.
    pub fn mtlo(&mut self, rs: Reg) {
        self.emit(Instr::Mtlo { rs });
    }

    // --- memory ---

    /// `lw rt, offset(base)`.
    pub fn lw(&mut self, rt: Reg, offset: i16, base: Reg) {
        self.emit(Instr::Lw { rt, base, offset });
    }
    /// `sw rt, offset(base)`.
    pub fn sw(&mut self, rt: Reg, offset: i16, base: Reg) {
        self.emit(Instr::Sw { rt, base, offset });
    }
    /// `lbu rt, offset(base)`.
    pub fn lbu(&mut self, rt: Reg, offset: i16, base: Reg) {
        self.emit(Instr::Lbu { rt, base, offset });
    }
    /// `lhu rt, offset(base)`.
    pub fn lhu(&mut self, rt: Reg, offset: i16, base: Reg) {
        self.emit(Instr::Lhu { rt, base, offset });
    }
    /// `sb rt, offset(base)`.
    pub fn sb(&mut self, rt: Reg, offset: i16, base: Reg) {
        self.emit(Instr::Sb { rt, base, offset });
    }
    /// `sh rt, offset(base)`.
    pub fn sh(&mut self, rt: Reg, offset: i16, base: Reg) {
        self.emit(Instr::Sh { rt, base, offset });
    }

    // --- control flow ---

    /// `beq rs, rt, label` (delay slot follows).
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: &str) {
        self.fixups.push(Fixup::Branch {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Beq { rs, rt, offset: 0 });
    }
    /// `bne rs, rt, label` (delay slot follows).
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: &str) {
        self.fixups.push(Fixup::Branch {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Bne { rs, rt, offset: 0 });
    }
    /// `blez rs, label`.
    pub fn blez(&mut self, rs: Reg, label: &str) {
        self.fixups.push(Fixup::Branch {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Blez { rs, offset: 0 });
    }
    /// `bgtz rs, label`.
    pub fn bgtz(&mut self, rs: Reg, label: &str) {
        self.fixups.push(Fixup::Branch {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Bgtz { rs, offset: 0 });
    }
    /// `bltz rs, label`.
    pub fn bltz(&mut self, rs: Reg, label: &str) {
        self.fixups.push(Fixup::Branch {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Bltz { rs, offset: 0 });
    }
    /// `bgez rs, label`.
    pub fn bgez(&mut self, rs: Reg, label: &str) {
        self.fixups.push(Fixup::Branch {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Bgez { rs, offset: 0 });
    }
    /// `j label` (delay slot follows).
    pub fn j(&mut self, label: &str) {
        self.fixups.push(Fixup::Jump {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::J { target: 0 });
    }
    /// `jal label` (delay slot follows).
    pub fn jal(&mut self, label: &str) {
        self.fixups.push(Fixup::Jump {
            index: self.text.len(),
            label: label.to_owned(),
        });
        self.emit(Instr::Jal { target: 0 });
    }
    /// `jr rs` (delay slot follows).
    pub fn jr(&mut self, rs: Reg) {
        self.emit(Instr::Jr { rs });
    }
    /// `jalr rd, rs` (delay slot follows).
    pub fn jalr(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instr::Jalr { rd, rs });
    }
    /// `break code` — halts the simulation.
    pub fn brk(&mut self, code: u16) {
        self.emit(Instr::Break { code });
    }

    /// `jal label` followed by a `nop` delay slot.
    pub fn call(&mut self, label: &str) {
        self.jal(label);
        self.nop();
    }

    /// `jr $ra` followed by a `nop` delay slot.
    pub fn ret(&mut self) {
        self.jr(Reg::RA);
        self.nop();
    }

    // --- ISA extensions ---

    /// `maddu rs, rt` (Table 5.1).
    pub fn maddu(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Maddu { rs, rt });
    }
    /// `m2addu rs, rt` (Table 5.1).
    pub fn m2addu(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::M2addu { rs, rt });
    }
    /// `addau rs, rt` (Table 5.1).
    pub fn addau(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Addau { rs, rt });
    }
    /// `sha` (Table 5.1).
    pub fn sha(&mut self) {
        self.emit(Instr::Sha);
    }
    /// `mulgf2 rs, rt` (Table 5.2).
    pub fn mulgf2(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Mulgf2 { rs, rt });
    }
    /// `maddgf2 rs, rt` (Table 5.2).
    pub fn maddgf2(&mut self, rs: Reg, rt: Reg) {
        self.emit(Instr::Maddgf2 { rs, rt });
    }

    // --- coprocessor 2 ---

    /// `ctc2 rt, $rd` (Table 5.3).
    pub fn ctc2(&mut self, rt: Reg, rd: u8) {
        self.emit(Instr::Ctc2 { rt, rd });
    }
    /// `cop2sync`.
    pub fn cop2sync(&mut self) {
        self.emit(Instr::Cop2Sync);
    }
    /// `cop2lda rt` (Monte).
    pub fn cop2lda(&mut self, rt: Reg) {
        self.emit(Instr::Cop2LdA { rt });
    }
    /// `cop2ldb rt` (Monte).
    pub fn cop2ldb(&mut self, rt: Reg) {
        self.emit(Instr::Cop2LdB { rt });
    }
    /// `cop2ldn rt` (Monte).
    pub fn cop2ldn(&mut self, rt: Reg) {
        self.emit(Instr::Cop2LdN { rt });
    }
    /// `cop2mul` (Monte).
    pub fn cop2mul(&mut self) {
        self.emit(Instr::Cop2Mul);
    }
    /// `cop2add` (Monte).
    pub fn cop2add(&mut self) {
        self.emit(Instr::Cop2Add);
    }
    /// `cop2sub` (Monte).
    pub fn cop2sub(&mut self) {
        self.emit(Instr::Cop2Sub);
    }
    /// `cop2st rt` (Monte).
    pub fn cop2st(&mut self, rt: Reg) {
        self.emit(Instr::Cop2St { rt });
    }
    /// `cop2ld rt, $fs` (Billie, Table 5.6).
    pub fn bil_ld(&mut self, rt: Reg, fs: u8) {
        self.emit(Instr::BilLd { rt, fs });
    }
    /// `cop2st rt, $fs` (Billie).
    pub fn bil_st(&mut self, rt: Reg, fs: u8) {
        self.emit(Instr::BilSt { rt, fs });
    }
    /// `cop2mul $fd, $fs, $ft` (Billie).
    pub fn bil_mul(&mut self, fd: u8, fs: u8, ft: u8) {
        self.emit(Instr::BilMul { fd, fs, ft });
    }
    /// `cop2sqr $fd, $ft` (Billie).
    pub fn bil_sqr(&mut self, fd: u8, ft: u8) {
        self.emit(Instr::BilSqr { fd, ft });
    }
    /// `cop2add $fd, $fs, $ft` (Billie).
    pub fn bil_add(&mut self, fd: u8, fs: u8, ft: u8) {
        self.emit(Instr::BilAdd { fd, fs, ft });
    }

    /// Resolves labels and produces the ROM image.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] for undefined/duplicate labels, overflowing
    /// sections, or out-of-range branches.
    pub fn link(mut self, entry: &str) -> Result<Program, LinkError> {
        if let Some(d) = self.duplicate.take() {
            return Err(LinkError::DuplicateLabel(d));
        }
        let text_words = self.text.len();
        let data_base = ROM_BASE + (text_words as u32) * 4;
        // Symbol table: text labels then data labels.
        let mut symbols = HashMap::new();
        for (name, idx) in &self.text_labels {
            symbols.insert(name.clone(), ROM_BASE + (*idx as u32) * 4);
        }
        for (name, idx) in &self.data_labels {
            symbols.insert(name.clone(), data_base + (*idx as u32) * 4);
        }
        for (name, addr) in &self.ram_symbols {
            symbols.insert(name.clone(), *addr);
        }
        let lookup = |label: &String| -> Result<u32, LinkError> {
            symbols
                .get(label)
                .copied()
                .ok_or_else(|| LinkError::UndefinedLabel(label.clone()))
        };
        for fx in &self.fixups {
            match fx {
                Fixup::Branch { index, label } => {
                    let target = lookup(label)?;
                    let target_idx = ((target - ROM_BASE) / 4) as i64;
                    let delta = target_idx - (*index as i64 + 1);
                    if delta < i16::MIN as i64 || delta > i16::MAX as i64 {
                        return Err(LinkError::BranchOutOfRange(label.clone()));
                    }
                    let off = delta as i16;
                    self.text[*index] = match self.text[*index] {
                        Instr::Beq { rs, rt, .. } => Instr::Beq {
                            rs,
                            rt,
                            offset: off,
                        },
                        Instr::Bne { rs, rt, .. } => Instr::Bne {
                            rs,
                            rt,
                            offset: off,
                        },
                        Instr::Blez { rs, .. } => Instr::Blez { rs, offset: off },
                        Instr::Bgtz { rs, .. } => Instr::Bgtz { rs, offset: off },
                        Instr::Bltz { rs, .. } => Instr::Bltz { rs, offset: off },
                        Instr::Bgez { rs, .. } => Instr::Bgez { rs, offset: off },
                        other => other,
                    };
                }
                Fixup::Jump { index, label } => {
                    let target = lookup(label)?;
                    let t = (target >> 2) & 0x03ff_ffff;
                    self.text[*index] = match self.text[*index] {
                        Instr::J { .. } => Instr::J { target: t },
                        Instr::Jal { .. } => Instr::Jal { target: t },
                        other => other,
                    };
                }
                Fixup::Hi16 { index, label } => {
                    let target = lookup(label)?;
                    // account for the low half's zero-extension by ori
                    let hi = (target >> 16) as u16;
                    if let Instr::Lui { rt, .. } = self.text[*index] {
                        self.text[*index] = Instr::Lui { rt, imm: hi };
                    }
                }
                Fixup::Lo16 { index, label } => {
                    let target = lookup(label)?;
                    let lo = (target & 0xffff) as u16;
                    if let Instr::Ori { rt, rs, .. } = self.text[*index] {
                        self.text[*index] = Instr::Ori { rt, rs, imm: lo };
                    }
                }
            }
        }
        let entry_addr = symbols
            .get(entry)
            .copied()
            .ok_or_else(|| LinkError::UndefinedLabel(entry.to_owned()))?;
        let mut rom: Vec<u32> = self.text.iter().map(|i| i.encode()).collect();
        rom.extend_from_slice(&self.data);
        let need = (rom.len() as u32) * 4;
        if need > ROM_SIZE {
            return Err(LinkError::RomOverflow { need });
        }
        if self.ram_cursor > RAM_SIZE {
            return Err(LinkError::RamOverflow {
                need: self.ram_cursor,
            });
        }
        Ok(Program {
            rom,
            entry: entry_addr,
            text_words,
            symbols,
            ram_symbols: self.ram_symbols,
            ram_reserved: self.ram_cursor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches() {
        let mut a = Asm::new();
        a.label("start");
        a.li(Reg::T0, 3);
        a.label("loop");
        a.addiu(Reg::T0, Reg::T0, -1);
        a.bne(Reg::T0, Reg::ZERO, "loop");
        a.nop();
        a.beq(Reg::ZERO, Reg::ZERO, "end");
        a.nop();
        a.addiu(Reg::T1, Reg::ZERO, 99); // skipped
        a.label("end");
        a.brk(0);
        let p = a.link("start").unwrap();
        // backward branch: target "loop" at word 1, branch at word 2 ->
        // offset = 1 - 3 = -2
        let w = p.rom()[2];
        let i = Instr::decode(w).unwrap();
        assert_eq!(
            i,
            Instr::Bne {
                rs: Reg::T0,
                rt: Reg::ZERO,
                offset: -2
            }
        );
    }

    #[test]
    fn la_resolves_data_symbols() {
        let mut a = Asm::new();
        a.label("start");
        a.la(Reg::A0, "table");
        a.brk(0);
        a.data_label("table");
        a.words(&[1, 2, 3]);
        let p = a.link("start").unwrap();
        let table = p.symbol("table").unwrap();
        assert_eq!(table, 3 * 4); // after 3 text words
        let lui = Instr::decode(p.rom()[0]).unwrap();
        let ori = Instr::decode(p.rom()[1]).unwrap();
        assert_eq!(
            lui,
            Instr::Lui {
                rt: Reg::A0,
                imm: 0
            }
        );
        assert_eq!(
            ori,
            Instr::Ori {
                rt: Reg::A0,
                rs: Reg::A0,
                imm: 12
            }
        );
    }

    #[test]
    fn ram_alloc_layout() {
        let mut a = Asm::new();
        let x = a.ram_alloc("x", 6);
        let y = a.ram_alloc("y", 2);
        assert_eq!(x, RAM_BASE);
        assert_eq!(y, RAM_BASE + 24);
        a.label("e");
        a.brk(0);
        let p = a.link("e").unwrap();
        assert_eq!(p.ram_symbol("x"), Some(x));
        assert_eq!(p.ram_symbol("y"), Some(y));
        assert_eq!(p.ram_reserved(), 32);
    }

    #[test]
    fn undefined_label_reported() {
        let mut a = Asm::new();
        a.label("e");
        a.j("nowhere");
        a.nop();
        match a.link("e") {
            Err(LinkError::UndefinedLabel(l)) => assert_eq!(l, "nowhere"),
            other => panic!("expected undefined label, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_label_reported() {
        let mut a = Asm::new();
        a.label("x");
        a.nop();
        a.label("x");
        a.brk(0);
        assert!(matches!(a.link("x"), Err(LinkError::DuplicateLabel(_))));
    }

    #[test]
    fn li_width_selection() {
        let mut a = Asm::new();
        a.label("e");
        a.li(Reg::T0, 0x1234); // 1 instr
        a.li(Reg::T1, 0x5678_0000); // 1 instr (lui)
        a.li(Reg::T2, -5); // 1 instr (addiu)
        a.li(Reg::T3, 0x1234_5678); // 2 instr
        a.brk(0);
        let p = a.link("e").unwrap();
        assert_eq!(p.text_words(), 6);
    }

    #[test]
    fn disassembly_smoke() {
        let mut a = Asm::new();
        a.label("e");
        a.maddu(Reg::A0, Reg::A1);
        a.brk(0);
        let p = a.link("e").unwrap();
        let d = p.disassemble();
        assert!(d.contains("maddu $a0, $a1"), "{d}");
    }
}
