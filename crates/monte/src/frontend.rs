//! Monte's coprocessor front end (§5.4.1, Fig 5.7): instruction queue,
//! DMA unit with store reservation register, operand/result double
//! buffering, and result→operand forwarding.
//!
//! Timing rules (event-based; equivalent to the cycle-by-cycle hardware
//! because the shared RAM is true dual-port, so the only resources are
//! the FFAU and the DMA engine):
//!
//! * a **load** starts as soon as the DMA engine is free (with double
//!   buffering it fills the shadow operand buffer while the FFAU runs;
//!   without it — the §7.7 ablation — it must also wait for the FFAU);
//! * a **compute** starts once its operands have arrived and the FFAU is
//!   free;
//! * a **store** waits in the reservation register until the compute
//!   finishes, then occupies the DMA engine;
//! * a load whose address equals the most recent store's address is
//!   **forwarded** from the result buffer: no shared-RAM reads, one
//!   cycle of buffer hand-off;
//! * the four-deep instruction queue back-pressures Pete only when full.

use crate::ffau::Ffau;
use std::collections::VecDeque;
use ule_isa::instr::Instr;
use ule_pete::cop::{CopStats, Coprocessor};
use ule_pete::mem::Ram;

/// Front-end configuration knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MonteConfig {
    /// Overlap DMA with computation (§5.4.1). The §7.7 ablation sets
    /// this false, serializing every transfer behind the FFAU.
    pub double_buffer: bool,
    /// Result→operand forwarding (§5.4.1).
    pub forwarding: bool,
    /// Instruction-queue depth.
    pub queue_depth: usize,
}

impl Default for MonteConfig {
    fn default() -> Self {
        MonteConfig {
            double_buffer: true,
            forwarding: true,
            queue_depth: 4,
        }
    }
}

/// The Monte coprocessor: FFAU plus front end, implementing Pete's
/// [`Coprocessor`] interface.
#[derive(Debug)]
pub struct Monte {
    ffau: Ffau,
    config: MonteConfig,
    /// Element width in 32-bit words (control register 0).
    k: usize,
    /// Operation mode (control register 2): when set, `cop2mul` runs the
    /// special-form constant-multiply microprogram instead of CIOS.
    fold_mode: bool,
    /// Completion cycles of queued commands (for queue back-pressure).
    inflight: VecDeque<u64>,
    /// When the DMA engine frees up.
    dma_free_at: u64,
    /// When the FFAU frees up.
    ffau_free_at: u64,
    /// When the operands of the *next* compute are fully loaded.
    operands_ready_at: u64,
    /// Address of the most recent store (for forwarding).
    last_store_addr: Option<u32>,
    /// DMA staging buffer: the words of the latest load, reused across
    /// commands.
    dma_words: Vec<u64>,
    /// A store waiting in the reservation register: `(addr, ready_at)` —
    /// it may not begin its DMA before `ready_at` (the computation whose
    /// result it stores), and later loads are allowed to overtake it
    /// (§5.4.1's instruction reordering).
    pending_store: Option<(u32, u64)>,
    stats: CopStats,
}

impl Monte {
    /// Creates a Monte with the default (paper) configuration and a
    /// 32-bit FFAU datapath.
    pub fn new() -> Self {
        Self::with_config(MonteConfig::default())
    }

    /// Creates a Monte with explicit front-end knobs (the §7.7 ablation).
    pub fn with_config(config: MonteConfig) -> Self {
        Monte {
            ffau: Ffau::new(32),
            config,
            k: 0,
            fold_mode: false,
            inflight: VecDeque::new(),
            dma_free_at: 0,
            ffau_free_at: 0,
            operands_ready_at: 0,
            last_store_addr: None,
            dma_words: Vec::new(),
            pending_store: None,
            stats: CopStats::default(),
        }
    }

    /// The FFAU (for its activity counters).
    pub fn ffau(&self) -> &Ffau {
        &self.ffau
    }

    fn queue_admit(&mut self, cycle: u64) -> u64 {
        while let Some(&front) = self.inflight.front() {
            if front <= cycle {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if self.inflight.len() < self.config.queue_depth {
            cycle + 1
        } else {
            // Stall until the oldest queued command completes.
            let free = self.inflight.pop_front().expect("non-empty");
            free.max(cycle) + 1
        }
    }

    /// Executes the store waiting in the reservation register (if any):
    /// it may begin only after both the DMA engine and the computation it
    /// depends on are done.
    fn flush_pending_store(&mut self) {
        if let Some((addr, ready_at)) = self.pending_store.take() {
            let start = self.dma_free_at.max(ready_at);
            self.dma_free_at = start + self.k as u64;
            self.stats.dma_cycles += self.k as u64;
            self.last_store_addr = Some(addr);
        }
    }

    /// `idle_at` accounting for a store still in the reservation register.
    fn drain_at(&self) -> u64 {
        let base = self.dma_free_at.max(self.ffau_free_at);
        match self.pending_store {
            Some((_, ready_at)) => self.dma_free_at.max(ready_at) + self.k as u64,
            None => base,
        }
        .max(base)
    }

    /// Transfers `k` words from `addr` into `dma_words` and
    /// returns the cycle the transfer completes.
    fn dma_load(&mut self, cycle: u64, addr: u32, ram: &mut Ram) -> u64 {
        // Forwarding: a load of the address a (possibly still pending)
        // store wrote is satisfied from the result buffer.
        let forwarded = self.config.forwarding
            && (self.last_store_addr == Some(addr)
                || matches!(self.pending_store, Some((a, _)) if a == addr));
        if !self.config.double_buffer {
            // No reordering: the reservation register drains first and
            // transfers also wait for the FFAU.
            self.flush_pending_store();
        }
        let start = if self.config.double_buffer {
            self.dma_free_at.max(cycle)
        } else {
            self.dma_free_at.max(self.ffau_free_at).max(cycle)
        };
        let dur = if forwarded { 1 } else { self.k as u64 };
        if !forwarded {
            ram.count_external(self.k as u64, 0);
            self.stats.ram_reads += self.k as u64;
        }
        self.stats.ls_ops += 1;
        self.stats.dma_cycles += dur;
        let done = start + dur;
        self.dma_free_at = done;
        self.dma_words.clear();
        self.dma_words
            .extend((0..self.k as u32).map(|i| ram.peek(addr + 4 * i) as u64));
        done
    }
}

impl Default for Monte {
    fn default() -> Self {
        Self::new()
    }
}

impl Coprocessor for Monte {
    fn issue(&mut self, instr: Instr, rt_value: u32, cycle: u64, ram: &mut Ram) -> u64 {
        self.stats.instructions += 1;
        let resume = self.queue_admit(cycle);
        match instr {
            Instr::Ctc2 { rd, .. } => {
                match rd {
                    0 => self.k = rt_value as usize,
                    1 => self.ffau.set_n0_prime(rt_value as u64),
                    2 => self.fold_mode = rt_value != 0,
                    3 => self.ffau.set_fold_c(rt_value as u64),
                    4 => self.ffau.set_fold_delta(rt_value as u64),
                    5 => self.ffau.set_fold_offset(rt_value as u64),
                    _ => {} // unused control registers
                }
            }
            Instr::Cop2LdA { .. } => {
                let done = self.dma_load(cycle, rt_value, ram);
                self.ffau.load_a(&self.dma_words);
                self.operands_ready_at = self.operands_ready_at.max(done);
                self.inflight.push_back(done);
            }
            Instr::Cop2LdB { .. } => {
                let done = self.dma_load(cycle, rt_value, ram);
                self.ffau.load_b(&self.dma_words);
                self.operands_ready_at = self.operands_ready_at.max(done);
                self.inflight.push_back(done);
            }
            Instr::Cop2LdN { .. } => {
                let done = self.dma_load(cycle, rt_value, ram);
                self.ffau.load_n(&self.dma_words);
                self.operands_ready_at = self.operands_ready_at.max(done);
                self.inflight.push_back(done);
            }
            Instr::Cop2Mul | Instr::Cop2Add | Instr::Cop2Sub => {
                let dur = match instr {
                    Instr::Cop2Mul if self.fold_mode => self.ffau.cmul(),
                    Instr::Cop2Mul => self.ffau.montmul(),
                    Instr::Cop2Add => self.ffau.modadd(),
                    _ => self.ffau.modsub(),
                };
                if matches!(instr, Instr::Cop2Mul) {
                    self.stats.mul_ops += 1;
                }
                let start = self.ffau_free_at.max(self.operands_ready_at).max(cycle);
                self.ffau_free_at = start + dur;
                self.stats.busy_cycles += dur;
                self.inflight.push_back(self.ffau_free_at);
                // A new computation invalidates forwarding of older
                // results only when it overwrites the result buffer;
                // with double buffering the previous result is still
                // being stored from the shadow buffer, so forwarding
                // state is managed at the store.
            }
            Instr::Cop2St { .. } => {
                // Only one reservation register: an older pending store
                // must drain first.
                self.flush_pending_store();
                ram.count_external(0, self.k as u64);
                self.stats.ram_writes += self.k as u64;
                self.stats.ls_ops += 1;
                // Functional effect now; timing deferred until the
                // computation completes (the reservation register).
                for (i, &w) in self.ffau.result().iter().enumerate() {
                    ram.poke(rt_value + 4 * i as u32, w as u32);
                }
                let ready_at = self.ffau_free_at.max(cycle);
                if self.config.double_buffer {
                    self.pending_store = Some((rt_value, ready_at));
                    self.inflight.push_back(ready_at + self.k as u64);
                } else {
                    let start = ready_at.max(self.dma_free_at);
                    self.dma_free_at = start + self.k as u64;
                    self.stats.dma_cycles += self.k as u64;
                    self.last_store_addr = Some(rt_value);
                    self.inflight.push_back(self.dma_free_at);
                }
            }
            Instr::Cop2Sync => unreachable!("sync handled by the CPU"),
            other => panic!("Monte cannot execute {other}"),
        }
        resume
    }

    fn idle_at(&self) -> u64 {
        self.drain_at()
    }

    fn stats(&self) -> CopStats {
        let mut s = self.stats;
        s.ucode_reads = self.ffau.stats().ucode_reads;
        s
    }

    fn name(&self) -> &'static str {
        "Monte"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_isa::asm::RAM_BASE;
    use ule_isa::reg::Reg;
    use ule_mpmath::mont::Montgomery;
    use ule_mpmath::mp::Mp;
    use ule_mpmath::nist::NistPrime;

    fn setup(p: &Mp) -> (Monte, Ram, usize) {
        let k = p.bit_len().div_ceil(32);
        let mont = Montgomery::new(p);
        let mut m = Monte::new();
        let mut ram = Ram::new();
        ram.poke_words(RAM_BASE, &p.to_limbs(k));
        let rt = Reg::T0;
        m.issue(Instr::Ctc2 { rt, rd: 0 }, k as u32, 0, &mut ram);
        m.issue(Instr::Ctc2 { rt, rd: 1 }, mont.n0_prime(), 1, &mut ram);
        m.issue(Instr::Cop2LdN { rt }, RAM_BASE, 2, &mut ram);
        (m, ram, k)
    }

    #[test]
    fn montmul_sequence_matches_host() {
        let p = NistPrime::P192.modulus();
        let mont = Montgomery::new(&p);
        let (mut m, mut ram, k) = setup(&p);
        let a = p.sub(&Mp::from_u64(77777));
        let b = p.sub(&Mp::from_u64(3));
        let a_addr = RAM_BASE + 0x100;
        let b_addr = RAM_BASE + 0x200;
        let o_addr = RAM_BASE + 0x300;
        ram.poke_words(a_addr, &a.to_limbs(k));
        ram.poke_words(b_addr, &b.to_limbs(k));
        let rt = Reg::T0;
        let mut c = 10;
        c = m.issue(Instr::Cop2LdA { rt }, a_addr, c, &mut ram);
        c = m.issue(Instr::Cop2LdB { rt }, b_addr, c, &mut ram);
        c = m.issue(Instr::Cop2Mul, 0, c, &mut ram);
        let _ = m.issue(Instr::Cop2St { rt }, o_addr, c, &mut ram);
        let got = ram.peek_words(o_addr, k);
        let expect = mont.mul(&a.to_limbs(k), &b.to_limbs(k));
        assert_eq!(got, expect);
        // idle_at reflects DMA + compute time (well past issue cycles).
        assert!(m.idle_at() > 13 + Ffau::montmul_cycles(6, 3));
    }

    #[test]
    fn forwarding_elides_ram_reads() {
        let p = NistPrime::P192.modulus();
        let (mut m, mut ram, k) = setup(&p);
        let rt = Reg::T0;
        let x = RAM_BASE + 0x100;
        ram.poke_words(x, &Mp::from_u64(5).to_limbs(k));
        let mut c = 10;
        c = m.issue(Instr::Cop2LdA { rt }, x, c, &mut ram);
        c = m.issue(Instr::Cop2LdB { rt }, x, c, &mut ram);
        c = m.issue(Instr::Cop2Add, 0, c, &mut ram);
        c = m.issue(Instr::Cop2St { rt }, x, c, &mut ram);
        let reads_before = m.stats().ram_reads;
        // Re-load the freshly stored value: should forward (no reads).
        let _ = m.issue(Instr::Cop2LdA { rt }, x, c, &mut ram);
        assert_eq!(m.stats().ram_reads, reads_before);
    }

    #[test]
    fn double_buffering_shortens_schedules() {
        let p = NistPrime::P384.modulus();
        let run = |db: bool| -> u64 {
            let cfg = MonteConfig {
                double_buffer: db,
                ..Default::default()
            };
            let k = 12;
            let mont = Montgomery::new(&p);
            let mut m = Monte::with_config(cfg);
            let mut ram = Ram::new();
            ram.poke_words(RAM_BASE, &p.to_limbs(k));
            let rt = Reg::T0;
            let mut c = 0;
            c = m.issue(Instr::Ctc2 { rt, rd: 0 }, k as u32, c, &mut ram);
            c = m.issue(Instr::Ctc2 { rt, rd: 1 }, mont.n0_prime(), c, &mut ram);
            c = m.issue(Instr::Cop2LdN { rt }, RAM_BASE, c, &mut ram);
            let a = RAM_BASE + 0x100;
            ram.poke_words(a, &Mp::from_u64(9).to_limbs(k));
            // Chain of multiplies with interleaved loads/stores.
            for i in 0..8u32 {
                let o = RAM_BASE + 0x400 + i * 64;
                c = m.issue(Instr::Cop2LdA { rt }, a, c, &mut ram);
                c = m.issue(Instr::Cop2LdB { rt }, a, c, &mut ram);
                c = m.issue(Instr::Cop2Mul, 0, c, &mut ram);
                c = m.issue(Instr::Cop2St { rt }, o, c, &mut ram);
            }
            m.idle_at()
        };
        let with_db = run(true);
        let without_db = run(false);
        assert!(
            with_db < without_db,
            "double buffering should shorten the schedule: {with_db} vs {without_db}"
        );
    }

    #[test]
    fn queue_backpressure_stalls_pete() {
        let p = NistPrime::P192.modulus();
        let (mut m, mut ram, k) = setup(&p);
        let rt = Reg::T0;
        let a = RAM_BASE + 0x100;
        ram.poke_words(a, &Mp::from_u64(1).to_limbs(k));
        // Flood the queue with long operations at back-to-back cycles.
        let mut c = 100;
        let mut stalled = false;
        for _ in 0..12 {
            let next = m.issue(Instr::Cop2LdA { rt }, a, c, &mut ram);
            let next = m.issue(Instr::Cop2LdB { rt }, a, next, &mut ram);
            let next = m.issue(Instr::Cop2Mul, 0, next, &mut ram);
            if next > c + 3 {
                stalled = true;
            }
            c = next;
        }
        assert!(stalled, "a flooded queue must back-pressure");
    }
}
