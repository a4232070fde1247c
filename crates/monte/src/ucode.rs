//! The FFAU's microcoded control unit (Fig 5.10), as an executable
//! micro-ISA.
//!
//! The control unit holds a 64-entry microcode store, two hardware loop
//! index registers with the control codes of Table 5.5 (hold / load from
//! the constant bus / clear / increment), an 8-entry constant RAM
//! (element width `k`, the quotient constant `n0'`, loop bounds), and
//! branch hardware. One micro-instruction issues per cycle; the
//! *row* operations keep the arithmetic core at its one-operation-per-
//! cycle throughput by re-issuing themselves through the hardware loop
//! (`Seq::LoopTo`) — the "near 100 % utilization of the arithmetic core"
//! the paper designs for (§5.4.2.1).
//!
//! The canonical microprogram is CIOS Montgomery multiplication
//! (Algorithm 5) plus modular add/subtract; [`assemble_cios`] emits it
//! and the tests pin its cycle count to the published closed form,
//! eq. 5.2 — the `(k+1)·p` term appears as the explicit
//! [`Action::Stall`] on the `m = t[0]·n0'` data dependency the paper
//! calls out, plus the final pipeline drain.

// Kernel loops index limb arrays the way the RTL datapath does;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

/// Control codes for the loop index registers (Table 5.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IdxCtl {
    /// `00` — no change.
    #[default]
    Hold,
    /// `01` — load from the constant bus (a constant-RAM slot).
    LoadConst(u8),
    /// `10` — clear.
    Clear,
    /// `11` — increment.
    Inc,
}

/// The two hardware loop counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopIdx {
    /// Outer-loop counter.
    I,
    /// Inner-loop counter.
    J,
}

/// Sequencer field of a micro-instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Seq {
    /// Fall through to the next entry.
    #[default]
    Next,
    /// Re-issue at `target` while the index is below the bound held in
    /// the constant-RAM slot (the hardware loop).
    LoopTo {
        /// Branch target (microcode entry).
        target: u8,
        /// Which counter is compared.
        idx: LoopIdx,
        /// Constant-RAM slot holding the bound.
        bound: u8,
    },
    /// Operation complete; raise done.
    End,
}

/// What the datapath does this cycle — row operations are the
/// Table 5.4 core capabilities bound to the CIOS/add/sub dataflows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Action {
    /// Idle cycle (index/setup only).
    #[default]
    Nop,
    /// Pipeline-dependency stall of `p` cycles (the arithmetic core must
    /// drain before a dependent value is available, §5.4.2.2).
    Stall,
    /// CIOS first inner loop row: `(C,S) = t[j] + a[j]*b[i] + C`.
    Row1,
    /// Fold the running carry into `t[k]`, `t[k+1]` (two words).
    CarryFold,
    /// `temp = t[0] * n0'` into the temporary result register (the
    /// register that breaks the T-memory structural hazard, §5.4.2.1).
    CalcM,
    /// CIOS second inner loop row: `(C,S) = t[j] + m*n[j] + C`,
    /// shifting the result down one word.
    Row2,
    /// Second-loop tail: `t[k-1]`, `t[k]` updates.
    Tail,
    /// Final correction (conditional subtraction of N), modeled at the
    /// fixed cost the closed form assigns it.
    Correct,
    /// Modular add/sub row: `out[j] = a[j] ± b[j]` with carry/borrow.
    AddRow {
        /// Subtract instead of add.
        sub: bool,
    },
    /// Conditional correction for add/sub.
    CondCorrect {
        /// The preceding operation was a subtraction.
        sub: bool,
    },
    /// Constant-multiply row: `(C,S) = a[j] * c + C`, where `c` is the
    /// small constant in constant-RAM slot 2 (the X25519/X448 ladder
    /// coefficient `a24` — the special-form extension).
    CMulRow,
    /// Latch the overflow word: `m = t[k]; t[k] = 0` (the quantity the
    /// special-form congruence folds back into the low words).
    LatchTop,
    /// `C = m * δ`, with the fold multiplier `δ` in constant-RAM slot 3
    /// (`2^(w·k) mod p` for 2^255−19 is 38; for 2^448−2^224−1 the fold
    /// is two unit injections, so `δ = 1`).
    InjectC,
    /// Carry-propagation row: `(C,S) = t[j] + C`.
    CarryAddRow,
}

/// One microcode word.
#[derive(Clone, Copy, Debug, Default)]
pub struct Micro {
    /// Datapath action.
    pub action: Action,
    /// Sequencer field.
    pub seq: Seq,
    /// Control for the outer counter.
    pub idx_i: IdxCtl,
    /// Control for the inner counter.
    pub idx_j: IdxCtl,
}

/// Capacity of the microcode store (§5.4.2.1: "the microcode ROM is 64
/// entries deep, which was more than enough").
pub const UCODE_ENTRIES: usize = 64;

/// Assembles the CIOS Montgomery-multiplication microprogram for element
/// width `k` (the bound lives in constant-RAM slot 0 — reloading that
/// slot is all it takes to change key size at run time, the point of
/// Monte's reconfigurability).
pub fn assemble_cios() -> Vec<Micro> {
    // Entry layout (cycle accounting engineered to eq. 5.2 exactly):
    // 0..=3  prologue: clear i, load bound, operand-buffer swap, clear
    //        pipe                                     (4 cycles)
    // 4      outer body: clear j                      (1 / iteration)
    // 5      Row1 hardware loop                       (k / iteration)
    // 6,7    CarryFold into t[k], t[k+1]              (2 / iteration)
    // 8      CalcM                                    (1 / iteration)
    // 9      Stall on the m data dependency,
    //        clearing j for the reduction row         (p / iteration)
    // 10     Row2 hardware loop                       (k / iteration)
    // 11,12  Tail words; 12 closes the outer loop     (2 / iteration)
    // 13     Stall: final pipeline drain              (p)
    // 14     Correct + End (fixed-cost correction)    (18)
    // Total: k*(2k + 6 + p) + 22 + p = eq. 5.2.
    vec![
        Micro {
            action: Action::Nop,
            idx_i: IdxCtl::Clear,
            ..Default::default()
        },
        Micro {
            action: Action::Nop,
            idx_j: IdxCtl::LoadConst(0),
            ..Default::default()
        },
        Micro {
            action: Action::Nop,
            ..Default::default()
        },
        Micro {
            action: Action::Nop,
            ..Default::default()
        },
        Micro {
            action: Action::Nop,
            idx_j: IdxCtl::Clear,
            ..Default::default()
        },
        Micro {
            action: Action::Row1,
            idx_j: IdxCtl::Inc,
            seq: Seq::LoopTo {
                target: 5,
                idx: LoopIdx::J,
                bound: 0,
            },
            ..Default::default()
        },
        Micro {
            action: Action::CarryFold,
            ..Default::default()
        },
        Micro {
            action: Action::CarryFold,
            ..Default::default()
        },
        Micro {
            action: Action::CalcM,
            ..Default::default()
        },
        Micro {
            action: Action::Stall,
            idx_j: IdxCtl::Clear,
            ..Default::default()
        },
        Micro {
            action: Action::Row2,
            idx_j: IdxCtl::Inc,
            seq: Seq::LoopTo {
                target: 10,
                idx: LoopIdx::J,
                bound: 0,
            },
            ..Default::default()
        },
        Micro {
            action: Action::Tail,
            ..Default::default()
        },
        Micro {
            action: Action::Tail,
            idx_i: IdxCtl::Inc,
            seq: Seq::LoopTo {
                target: 4,
                idx: LoopIdx::I,
                bound: 0,
            },
            ..Default::default()
        },
        Micro {
            action: Action::Stall,
            ..Default::default()
        },
        Micro {
            action: Action::Correct,
            seq: Seq::End,
            ..Default::default()
        },
    ]
}

/// Assembles the modular add/sub microprogram.
pub fn assemble_addsub(sub: bool) -> Vec<Micro> {
    vec![
        Micro {
            action: Action::Nop,
            idx_j: IdxCtl::Clear,
            ..Default::default()
        },
        Micro {
            action: Action::AddRow { sub },
            idx_j: IdxCtl::Inc,
            seq: Seq::LoopTo {
                target: 1,
                idx: LoopIdx::J,
                bound: 0,
            },
            ..Default::default()
        },
        Micro {
            action: Action::Stall,
            ..Default::default()
        },
        Micro {
            action: Action::CondCorrect { sub },
            seq: Seq::End,
            ..Default::default()
        },
    ]
}

/// Assembles the special-form constant-multiply microprogram for the
/// X25519/X448 primes: `result = A * c mod p`, reducing with the fold
/// congruence of the prime instead of a full CIOS pass.
///
/// The constant RAM supplies everything prime-specific — slot 2 holds
/// the multiplier `c` (the ladder coefficient `a24`), slot 3 the fold
/// multiplier `δ` (38 for 2^255−19, 1 for 2^448−2^224−1), and, when
/// `dual_offset` is set, slot 4 the limb offset of the second injection
/// point (2^448 ≡ 2^224 + 1, so the overflow word is added at limb
/// `224/w` as well as limb 0). As with CIOS, reloading constant RAM is
/// all it takes to retarget the microcode.
///
/// Structure: one constant-multiply pass (`a·c` is at most `c·2^(w·k)`,
/// so the overflow is a single word), then **two** fold rounds — the
/// first reduces the overflow of the multiply, the second the possible
/// carry-out of the first — then the standard two-step conditional
/// correction (the folded value is below `2^(w·k) + 2^224 ≤ 2p + δ`,
/// never more than two subtractions of `p`).
pub fn assemble_cmul_fold(dual_offset: bool) -> Vec<Micro> {
    let mut prog = vec![
        Micro {
            action: Action::Nop,
            idx_j: IdxCtl::Clear,
            ..Default::default()
        },
        Micro {
            action: Action::CMulRow,
            idx_j: IdxCtl::Inc,
            seq: Seq::LoopTo {
                target: 1,
                idx: LoopIdx::J,
                bound: 0,
            },
            ..Default::default()
        },
        Micro {
            action: Action::CarryFold,
            ..Default::default()
        },
    ];
    for _round in 0..2 {
        prog.push(Micro {
            action: Action::LatchTop,
            ..Default::default()
        });
        // Injection at limb 0 (always), then optionally at the high
        // offset: clear / load the index, stall on the `m·δ` product,
        // propagate.
        let offsets: &[IdxCtl] = if dual_offset {
            &[IdxCtl::Clear, IdxCtl::LoadConst(4)]
        } else {
            &[IdxCtl::Clear]
        };
        for &idx_j in offsets {
            prog.push(Micro {
                action: Action::InjectC,
                idx_j,
                ..Default::default()
            });
            prog.push(Micro {
                action: Action::Stall,
                ..Default::default()
            });
            let target = prog.len() as u8;
            prog.push(Micro {
                action: Action::CarryAddRow,
                idx_j: IdxCtl::Inc,
                seq: Seq::LoopTo {
                    target,
                    idx: LoopIdx::J,
                    bound: 0,
                },
                ..Default::default()
            });
            prog.push(Micro {
                action: Action::CarryFold,
                ..Default::default()
            });
        }
    }
    prog.push(Micro {
        action: Action::Stall,
        ..Default::default()
    });
    prog.push(Micro {
        action: Action::Correct,
        ..Default::default()
    });
    prog.push(Micro {
        action: Action::Correct,
        seq: Seq::End,
        ..Default::default()
    });
    prog
}

/// The microcoded control unit driving the FFAU datapath.
#[derive(Clone, Debug)]
pub struct MicroEngine {
    /// Datapath width in bits.
    width: usize,
    /// Arithmetic-core latency.
    p: u64,
    program: Vec<Micro>,
    /// Constant RAM (8 entries, §5.4.2.1): slot 0 = k.
    consts: [u64; 8],
    /// The T memory of [`MicroEngine::run_into`], reused across runs.
    t: Vec<u128>,
}

/// State while executing one operation.
struct Exec {
    t: Vec<u128>,
    carry: u128,
    m: u128,
    /// add/sub output register file (reuses T memory).
    out_carry: i128,
}

impl MicroEngine {
    /// Builds an engine with a program.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds the 64-entry store.
    pub fn new(width: usize, program: Vec<Micro>) -> Self {
        assert!(program.len() <= UCODE_ENTRIES, "microcode store overflow");
        assert!(matches!(width, 8 | 16 | 32 | 64));
        MicroEngine {
            width,
            p: 3,
            program,
            consts: [0; 8],
            t: Vec::new(),
        }
    }

    /// Writes a constant-RAM slot (`ctc2` path).
    pub fn set_const(&mut self, slot: usize, value: u64) {
        self.consts[slot] = value;
    }

    /// Executes the program over the operand buffers, returning
    /// `(result, cycles)`.
    ///
    /// # Panics
    ///
    /// Panics if the program runs away (no `End` within a conservative
    /// bound) — a microprogramming bug.
    pub fn run(&mut self, a: &[u64], b: &[u64], n: &[u64], n0_prime: u64) -> (Vec<u64>, u64) {
        let mut result = Vec::new();
        let cycles = self.run_into(a, b, n, n0_prime, &mut result);
        (result, cycles)
    }

    /// [`MicroEngine::run`] into a caller's result buffer, with the
    /// engine's own T memory: allocates nothing once both have held `k`
    /// limbs. Returns the cycle count.
    ///
    /// # Panics
    ///
    /// As [`MicroEngine::run`].
    pub fn run_into(
        &mut self,
        a: &[u64],
        b: &[u64],
        n: &[u64],
        n0_prime: u64,
        result: &mut Vec<u64>,
    ) -> u64 {
        let k = self.consts[0] as usize;
        assert!(k > 0, "element width constant not loaded");
        assert_eq!(a.len(), k);
        assert_eq!(b.len(), k);
        assert_eq!(n.len(), k);
        let w = self.width;
        let mask: u128 = if w == 64 {
            u128::MAX >> 64
        } else {
            (1u128 << w) - 1
        };
        let mut t = std::mem::take(&mut self.t);
        t.clear();
        t.resize(k + 2, 0);
        let mut st = Exec {
            t,
            carry: 0,
            m: 0,
            out_carry: 0,
        };
        let mut i = 0usize; // outer counter
        let mut j = 0usize; // inner counter
        let mut pc = 0usize;
        let mut cycles: u64 = 0;
        let budget = 64 * (k as u64 + 4) * (k as u64 + 4) + 10_000;
        loop {
            assert!(cycles < budget, "runaway microprogram");
            let mi = self.program[pc];
            cycles += match mi.action {
                Action::Stall => self.p,
                // Fixed-cost final correction (the closed form charges the
                // correction and handshake as a key-size-independent
                // constant).
                Action::Correct => 18,
                // The conditional correction of add/sub is a second
                // pipelined pass over the element plus drain.
                Action::CondCorrect { .. } => k as u64 + 5,
                _ => 1,
            };
            self.step(&mut st, mi.action, a, b, n, n0_prime, k, i, j, mask, w);
            // Index updates (Table 5.5).
            for (reg, ctl) in [(&mut i, mi.idx_i), (&mut j, mi.idx_j)] {
                match ctl {
                    IdxCtl::Hold => {}
                    IdxCtl::Clear => *reg = 0,
                    IdxCtl::Inc => *reg += 1,
                    IdxCtl::LoadConst(slot) => *reg = self.consts[slot as usize] as usize,
                }
            }
            // Sequencing.
            match mi.seq {
                Seq::Next => pc += 1,
                Seq::LoopTo { target, idx, bound } => {
                    let v = match idx {
                        LoopIdx::I => i,
                        LoopIdx::J => j,
                    };
                    if v < self.consts[bound as usize] as usize {
                        pc = target as usize;
                    } else {
                        pc += 1;
                    }
                }
                Seq::End => {
                    result.clear();
                    result.extend(st.t[..k].iter().map(|&x| x as u64));
                    self.t = st.t;
                    return cycles;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        st: &mut Exec,
        action: Action,
        a: &[u64],
        b: &[u64],
        n: &[u64],
        n0_prime: u64,
        k: usize,
        i: usize,
        j: usize,
        mask: u128,
        w: usize,
    ) {
        match action {
            Action::Nop | Action::Stall => {}
            Action::Row1 => {
                let cs = st.t[j] + (a[j] as u128) * (b[i] as u128) + st.carry;
                st.t[j] = cs & mask;
                st.carry = cs >> w;
            }
            Action::CarryFold => {
                // first call folds into t[k], second into t[k+1]
                let cs = st.t[k] + st.carry;
                st.t[k] = cs & mask;
                let hi = cs >> w;
                st.t[k + 1] += hi;
                st.carry = 0;
            }
            Action::CalcM => {
                st.m = ((st.t[0] as u64).wrapping_mul(n0_prime)) as u128 & mask;
            }
            Action::Row2 => {
                if j == 0 {
                    let cs = st.t[0] + st.m * (n[0] as u128);
                    st.carry = cs >> w;
                } else {
                    let cs = st.t[j] + st.m * (n[j] as u128) + st.carry;
                    st.t[j - 1] = cs & mask;
                    st.carry = cs >> w;
                }
            }
            Action::Tail => {
                // first call: t[k-1] = t[k] + C (low), keep carry;
                // second call: t[k] = t[k+1] + C', clear t[k+1].
                if st.m != u128::MAX {
                    let cs = st.t[k] + st.carry;
                    st.t[k - 1] = cs & mask;
                    st.carry = cs >> w;
                    st.m = u128::MAX; // phase marker within the iteration
                } else {
                    st.t[k] = (st.t[k + 1] + st.carry) & mask;
                    st.t[k + 1] = 0;
                    st.carry = 0;
                    st.m = 0;
                }
            }
            Action::Correct => {
                let ge = st.t[k] != 0 || {
                    let mut ge = true;
                    for idx in (0..k).rev() {
                        if st.t[idx] > n[idx] as u128 {
                            break;
                        }
                        if st.t[idx] < n[idx] as u128 {
                            ge = false;
                            break;
                        }
                    }
                    ge
                };
                if ge {
                    let mut borrow: i128 = 0;
                    for idx in 0..k {
                        let d = st.t[idx] as i128 - n[idx] as i128 - borrow;
                        st.t[idx] = (d & mask as i128) as u128;
                        borrow = (d < 0) as i128;
                    }
                    st.t[k] = 0;
                }
            }
            Action::AddRow { sub } => {
                if sub {
                    let d = a[j] as i128 - b[j] as i128 - st.out_carry;
                    st.t[j] = (d & mask as i128) as u128;
                    st.out_carry = (d < 0) as i128;
                } else {
                    let s = a[j] as u128 + b[j] as u128 + st.out_carry as u128;
                    st.t[j] = s & mask;
                    st.out_carry = (s >> w) as i128;
                }
            }
            Action::CondCorrect { sub } => {
                if sub {
                    if st.out_carry != 0 {
                        let mut carry: u128 = 0;
                        for idx in 0..k {
                            let s = st.t[idx] + n[idx] as u128 + carry;
                            st.t[idx] = s & mask;
                            carry = s >> w;
                        }
                    }
                } else {
                    let mut ge = st.out_carry != 0;
                    if !ge {
                        ge = true;
                        for idx in (0..k).rev() {
                            if st.t[idx] > n[idx] as u128 {
                                break;
                            }
                            if st.t[idx] < n[idx] as u128 {
                                ge = false;
                                break;
                            }
                        }
                    }
                    if ge {
                        let mut borrow: i128 = 0;
                        for idx in 0..k {
                            let d = st.t[idx] as i128 - n[idx] as i128 - borrow;
                            st.t[idx] = (d & mask as i128) as u128;
                            borrow = (d < 0) as i128;
                        }
                    }
                }
                st.out_carry = 0;
            }
            Action::CMulRow => {
                let c = self.consts[2] as u128;
                let cs = (a[j] as u128) * c + st.carry;
                st.t[j] = cs & mask;
                st.carry = cs >> w;
            }
            Action::LatchTop => {
                st.m = st.t[k];
                st.t[k] = 0;
            }
            Action::InjectC => {
                st.carry = st.m * self.consts[3] as u128;
            }
            Action::CarryAddRow => {
                let cs = st.t[j] + st.carry;
                st.t[j] = cs & mask;
                st.carry = cs >> w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffau::Ffau;
    use ule_mpmath::mont::Montgomery;
    use ule_mpmath::mp::Mp;
    use ule_mpmath::nist::NistPrime;

    fn limbs64(v: &Mp, k: usize) -> Vec<u64> {
        v.to_limbs(k).iter().map(|&x| x as u64).collect()
    }

    #[test]
    fn cios_microprogram_fits_the_store() {
        assert!(assemble_cios().len() <= UCODE_ENTRIES);
        assert!(assemble_cios().len() + 2 * assemble_addsub(false).len() <= UCODE_ENTRIES);
    }

    #[test]
    fn cmul_fold_fits_alongside_the_full_suite() {
        // The point of the extension: the ladder's constant multiply
        // coexists with CIOS and add/sub in the one 64-entry store.
        let full = assemble_cios().len()
            + 2 * assemble_addsub(false).len()
            + assemble_cmul_fold(true).len();
        assert!(full <= UCODE_ENTRIES, "{full} entries");
    }

    #[test]
    fn cmul_fold_matches_the_special_form_reduction() {
        use ule_mpmath::xprime::XPrime;
        for (xp, cs, delta, off) in [
            (XPrime::P25519, [121_665u64, 19, 2], 38u64, 0u64),
            (XPrime::P448, [39_081, 1, 2], 1, 7),
        ] {
            let p = xp.modulus();
            let k = xp.limbs();
            let mut eng = MicroEngine::new(32, assemble_cmul_fold(off != 0));
            eng.set_const(0, k as u64);
            eng.set_const(3, delta);
            eng.set_const(4, off);
            // Deterministic operand sweep: edge values plus an LCG fill.
            let mut cases = vec![
                Mp::zero(),
                Mp::one(),
                p.sub(&Mp::one()),
                Mp::one().shl(32 * k).sub(&Mp::one()), // all-ones limbs
            ];
            let mut x: u64 = 0x2545_f491_4f6c_dd1d;
            for _ in 0..24 {
                let mut limbs = vec![0u32; k];
                for l in limbs.iter_mut() {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    *l = (x >> 32) as u32;
                }
                cases.push(Mp::from_limbs(&limbs).rem(&p));
            }
            for c in cs {
                eng.set_const(2, c);
                for a in &cases {
                    let al = limbs64(a, k);
                    let (result, cycles) = eng.run(&al, &al, &limbs64(&p, k), 0);
                    let expect = xp.reduce(&a.mul(&Mp::from_u64(c)));
                    assert_eq!(
                        result,
                        limbs64(&expect, k),
                        "{} * {c} mod {}",
                        a.to_hex(),
                        xp.name()
                    );
                    assert_eq!(
                        cycles,
                        Ffau::cmul_cycles(k as u64, 3, off),
                        "{}: fold cycle count must match the closed form",
                        xp.name()
                    );
                }
            }
            // The win over a full CIOS pass is the point (O(k) vs O(k²)).
            assert!(Ffau::cmul_cycles(k as u64, 3, off) < Ffau::montmul_cycles(k as u64, 3) / 2);
        }
    }

    #[test]
    fn cios_microprogram_matches_host_and_eq_5_2() {
        for prime in [
            NistPrime::P192,
            NistPrime::P256,
            NistPrime::P384,
            NistPrime::P521,
        ] {
            let p = prime.modulus();
            let k = prime.limbs();
            let mont = Montgomery::new(&p);
            let mut eng = MicroEngine::new(32, assemble_cios());
            eng.set_const(0, k as u64);
            let a = p.sub(&Mp::from_u64(987_654_321));
            let b = p.sub(&Mp::from_u64(13));
            let (result, cycles) = eng.run(
                &limbs64(&a, k),
                &limbs64(&b, k),
                &limbs64(&p, k),
                mont.n0_prime() as u64,
            );
            let expect = mont.mul(&a.to_limbs(k), &b.to_limbs(k));
            let expect64: Vec<u64> = expect.iter().map(|&x| x as u64).collect();
            assert_eq!(result, expect64, "{}", prime.name());
            assert_eq!(
                cycles,
                Ffau::montmul_cycles(k as u64, 3),
                "{}: microcoded cycle count must equal eq. 5.2",
                prime.name()
            );
        }
    }

    #[test]
    fn addsub_microprograms_match_host() {
        let p = NistPrime::P224.modulus();
        let k = 7;
        let mut eng = MicroEngine::new(32, assemble_addsub(false));
        eng.set_const(0, k as u64);
        let a = p.sub(&Mp::from_u64(5));
        let b = p.sub(&Mp::from_u64(7));
        let (sum, c_add) = eng.run(&limbs64(&a, k), &limbs64(&b, k), &limbs64(&p, k), 0);
        let expect = a.add(&b).rem(&p);
        assert_eq!(sum, limbs64(&expect, k));
        let mut eng = MicroEngine::new(32, assemble_addsub(true));
        eng.set_const(0, k as u64);
        let (diff, _) = eng.run(&limbs64(&b, k), &limbs64(&a, k), &limbs64(&p, k), 0);
        // b - a = -2 mod p = p - 2
        assert_eq!(diff, limbs64(&p.sub(&Mp::from_u64(2)), k));
        // add/sub is a single pipelined pass: O(k) cycles.
        assert!(c_add < 3 * k as u64 + 10);
    }

    #[test]
    fn reconfiguring_k_reuses_the_same_microcode() {
        // The whole point of Monte (§5.4.2.1): switching key sizes is a
        // constant-RAM write, not new microcode.
        let mut eng = MicroEngine::new(32, assemble_cios());
        for prime in [NistPrime::P192, NistPrime::P521] {
            let p = prime.modulus();
            let k = prime.limbs();
            let mont = Montgomery::new(&p);
            eng.set_const(0, k as u64);
            let a = Mp::from_u64(123_456_789);
            let b = Mp::from_u64(42);
            let (result, _) = eng.run(
                &limbs64(&a, k),
                &limbs64(&b, k),
                &limbs64(&p, k),
                mont.n0_prime() as u64,
            );
            let expect: Vec<u64> = mont
                .mul(&a.to_limbs(k), &b.to_limbs(k))
                .iter()
                .map(|&x| x as u64)
                .collect();
            assert_eq!(result, expect, "{}", prime.name());
        }
    }

    #[test]
    #[should_panic(expected = "microcode store overflow")]
    fn oversized_programs_rejected() {
        let _ = MicroEngine::new(32, vec![Micro::default(); UCODE_ENTRIES + 1]);
    }
}
