//! The Finite-Field Arithmetic Unit (§5.4.2).
//!
//! The FFAU is built around a 2-stage pipelined multiply-add core
//! (throughput 1 op/cycle, latency `p = 3` including operand/result
//! registering — Table 5.4), dual-port AB and T scratchpad memories
//! organized so three operands are read and one result written every
//! cycle, index-register address generation (Table 5.5), and a 64-entry
//! microcode store with hardware loop support (Fig 5.10).
//!
//! The unit is **parameterizable in datapath width** (8/16/32/64 bits) —
//! the §7.9 design-space study — and in the element width `k`, which is
//! a *run-time* control value (that is what keeps Monte reconfigurable).
//!
//! Cycle cost of one CIOS Montgomery multiplication (eq. 5.2):
//!
//! ```text
//! cc = 2k^2 + 6k + (k+1)p + 22
//! ```
//!
//! decomposed as: two k-cycle inner loops per outer iteration, plus a
//! p-cycle data-dependency stall per outer iteration (the `m = t[0]*n0'`
//! computation must drain before the reduction row starts), plus 6 cycles
//! of per-iteration loop/index overhead, plus `p + 22` of setup, final
//! correction, and pipeline drain. The decomposition is asserted against
//! the closed form in the tests.

// Kernel loops index limb arrays the way the RTL datapath does;
// iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

/// Activity counters for the FFAU, consumed by the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FfauStats {
    /// Cycles the arithmetic core was computing.
    pub busy_cycles: u64,
    /// Scratchpad (AB/T) word accesses (3 reads + 1 write per active
    /// cycle of the inner loops).
    pub scratch_accesses: u64,
    /// Microcode store reads (one per sequenced cycle).
    pub ucode_reads: u64,
    /// Operations executed (multiplications + additions + subtractions).
    pub operations: u64,
}

/// The FFAU model: functional CIOS/modular-add/sub over a configurable
/// limb width, with the eq. 5.2 timing contract.
#[derive(Clone, Debug)]
pub struct Ffau {
    /// Datapath width in bits (8, 16, 32, or 64).
    width: usize,
    /// Arithmetic-core latency `p` (pipeline depth + operand registering).
    pipeline_latency: u64,
    /// Operand buffer A (w-bit limbs, little-endian).
    a: Vec<u64>,
    /// Operand buffer B.
    b: Vec<u64>,
    /// Modulus buffer N.
    n: Vec<u64>,
    /// Result buffer.
    result: Vec<u64>,
    /// Host scratch for [`Ffau::montmul`]: the operands packed into
    /// 64-bit words and the CIOS accumulator, reused across commands.
    words: Vec<u64>,
    /// The CIOS quotient constant `n0' = -n^{-1} mod 2^w` (control reg).
    n0_prime: u64,
    /// Special-form fold extension (control regs 3–5): the constant
    /// multiplier `c`, the fold multiplier `δ`, and the limb offset of
    /// the second injection point (0 = single-offset prime).
    fold_c: u64,
    fold_delta: u64,
    fold_offset: u64,
    stats: FfauStats,
}

impl Ffau {
    /// Creates an FFAU with the given datapath width.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is 8, 16, 32, or 64.
    pub fn new(width: usize) -> Self {
        assert!(
            matches!(width, 8 | 16 | 32 | 64),
            "unsupported datapath width {width}"
        );
        Ffau {
            width,
            pipeline_latency: 3,
            a: Vec::new(),
            b: Vec::new(),
            n: Vec::new(),
            result: Vec::new(),
            words: Vec::new(),
            n0_prime: 0,
            fold_c: 0,
            fold_delta: 0,
            fold_offset: 0,
            stats: FfauStats::default(),
        }
    }

    /// Datapath width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Counters.
    pub fn stats(&self) -> FfauStats {
        self.stats
    }

    /// Sets the quotient constant (preloaded via `ctc2`, §5.4.2.1).
    pub fn set_n0_prime(&mut self, n0: u64) {
        self.n0_prime = n0 & self.mask();
    }

    /// Sets the special-form constant multiplier `c` (control reg 3).
    pub fn set_fold_c(&mut self, c: u64) {
        self.fold_c = c;
    }

    /// Sets the special-form fold multiplier `δ` (control reg 4).
    pub fn set_fold_delta(&mut self, delta: u64) {
        self.fold_delta = delta;
    }

    /// Sets the limb offset of the second fold injection point
    /// (control reg 5; 0 for a single-offset prime like 2^255−19).
    pub fn set_fold_offset(&mut self, offset: u64) {
        self.fold_offset = offset;
    }

    /// Loads operand A (w-bit limbs).
    ///
    /// # Panics
    ///
    /// Panics if a limb is wider than the datapath.
    pub fn load_a(&mut self, limbs: &[u64]) {
        let mask = self.mask();
        load(&mut self.a, limbs, mask);
    }

    /// Loads operand B.
    ///
    /// # Panics
    ///
    /// Panics if a limb is wider than the datapath.
    pub fn load_b(&mut self, limbs: &[u64]) {
        let mask = self.mask();
        load(&mut self.b, limbs, mask);
    }

    /// Loads the modulus N.
    ///
    /// # Panics
    ///
    /// Panics if a limb is wider than the datapath.
    pub fn load_n(&mut self, limbs: &[u64]) {
        let mask = self.mask();
        load(&mut self.n, limbs, mask);
    }

    /// The result buffer after an operation.
    pub fn result(&self) -> &[u64] {
        &self.result
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Closed-form CIOS cycle count (eq. 5.2) for `k` limbs at pipeline
    /// latency `p`.
    pub fn montmul_cycles(k: u64, p: u64) -> u64 {
        2 * k * k + 6 * k + (k + 1) * p + 22
    }

    /// Executes one CIOS Montgomery multiplication over the loaded
    /// operands: `result = A * B * R^{-1} mod N` with `R = 2^(w·k)`,
    /// followed by one conditional subtraction of N (so operands anywhere
    /// in `[0, R)` are accepted and the result is below R). Returns the
    /// cycle count.
    ///
    /// The host computes the product on 64-bit words rather than w-bit
    /// limbs: ⌊wk/64⌋ full word rounds, then one closing round over the
    /// remaining `wk mod 64` bits. The result is the same as the
    /// hardware's limb-by-limb CIOS (Algorithm 5) for every accepted
    /// input: both compute `(A·B + M·N) / R` for the unique `M` in
    /// `[0, R)` that makes the sum divisible by R, whatever the round
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths disagree or `n0'` is inconsistent
    /// with N (a programming error in the command stream).
    pub fn montmul(&mut self) -> u64 {
        let k = self.n.len();
        assert!(k > 0, "modulus not loaded");
        assert_eq!(self.a.len(), k, "operand A width mismatch");
        assert_eq!(self.b.len(), k, "operand B width mismatch");
        let w = self.width;
        let mask = self.mask();
        assert_eq!(
            self.n[0].wrapping_mul(self.n0_prime) & mask,
            mask, // -1 mod 2^w
            "n0' inconsistent with N"
        );
        let bits = w * k;
        let len = bits.div_ceil(64);
        // Scratch layout: A | B | N (len words each) | T (len + 2 words).
        self.words.clear();
        self.words.resize(4 * len + 2, 0);
        let (a, rest) = self.words.split_at_mut(len);
        let (b, rest) = rest.split_at_mut(len);
        let (n, t) = rest.split_at_mut(len);
        pack(&self.a, w, a);
        pack(&self.b, w, b);
        pack(&self.n, w, n);
        // n0' mod 2^64 from the w-bit control value: -n0' is N^{-1}
        // mod 2^w, and each Newton step doubles its bits (8 → 16 → 32
        // → 64).
        let mut inv = self.n0_prime.wrapping_neg();
        for _ in 0..3 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let n0 = inv.wrapping_neg();
        let full = bits / 64;
        for &bi in &b[..full] {
            mul_add_row(t, a, bi);
            let m = t[0].wrapping_mul(n0);
            // t = (t + m·N) / 2^64: the low word cancels, the rest shifts
            // down one word as it is produced.
            let (_, mut c) = mac(t[0], m, n[0], 0);
            for j in 1..len {
                let (lo, hi) = mac(t[j], m, n[j], c);
                t[j - 1] = lo;
                c = hi;
            }
            let (s, o) = t[len].overflowing_add(c);
            t[len - 1] = s;
            t[len] = t[len + 1] + o as u64;
            t[len + 1] = 0;
        }
        let r = bits % 64;
        if r != 0 {
            // Closing round over the top r bits: B's last word is below
            // 2^r, m is taken mod 2^r, and T shifts down r bits.
            mul_add_row(t, a, b[full]);
            let m = t[0].wrapping_mul(n0) & ((1u64 << r) - 1);
            mul_add_row(t, n, m);
            for j in 0..=len {
                t[j] = (t[j] >> r) | (t[j + 1] << (64 - r));
            }
            t[len + 1] = 0;
        }
        // Final correction: T < A + N < 2R, and T - N < R when T ≥ N.
        let ge = t[len] != 0 || !lt(&t[..len], n);
        if ge {
            let mut borrow = false;
            for (tj, &nj) in t.iter_mut().zip(n.iter()) {
                let (d, b1) = tj.overflowing_sub(nj);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *tj = d;
                borrow = b1 || b2;
            }
        }
        self.result.clear();
        self.result
            .extend((0..k).map(|i| (t[i * w / 64] >> (i * w % 64)) & mask));
        // Timing per eq. 5.2, decomposed per the module docs.
        let kk = k as u64;
        let p = self.pipeline_latency;
        let per_outer = 2 * kk + p + 6;
        let fixed = p + 22;
        let cycles = kk * per_outer + fixed;
        debug_assert_eq!(cycles, Self::montmul_cycles(kk, p));
        self.stats.busy_cycles += cycles;
        self.stats.ucode_reads += cycles;
        // 3 operand reads + 1 result write per inner-loop cycle.
        self.stats.scratch_accesses += 4 * (2 * kk * kk);
        self.stats.operations += 1;
        cycles
    }

    /// Closed-form cycle count of the special-form constant multiply
    /// for `k` limbs at pipeline latency `p`: one multiply pass, two
    /// fold rounds (each one carry-propagation pass per injection
    /// point), and the two-step final correction.
    pub fn cmul_cycles(k: u64, p: u64, second_offset: u64) -> u64 {
        let single = 3 * k + 3 * p + 44;
        if second_offset == 0 {
            single
        } else {
            single + 2 * (k - second_offset + p + 2)
        }
    }

    /// Executes one special-form constant multiplication over operand A:
    /// `result = A * c mod N`, using the fold congruence configured via
    /// [`Ffau::set_fold_c`] / [`Ffau::set_fold_delta`] /
    /// [`Ffau::set_fold_offset`] instead of a CIOS pass — the microcode
    /// extension for the X25519/X448 primes. Runs the actual
    /// [`crate::ucode::assemble_cmul_fold`] microprogram, so the model
    /// and the microcode cannot drift. Returns the cycle count
    /// (`O(k)` versus CIOS's `O(k²)`).
    ///
    /// # Panics
    ///
    /// Panics if the modulus or fold constants are not loaded, or on a
    /// datapath narrower than 32 bits (the `a24` constants need 17
    /// bits, and the overflow word must fit one limb).
    pub fn cmul(&mut self) -> u64 {
        let k = self.n.len();
        assert!(k > 0, "modulus not loaded");
        assert_eq!(self.a.len(), k, "operand A width mismatch");
        assert!(self.width >= 32, "fold constant exceeds the datapath word");
        assert!(self.fold_c != 0, "fold constants not loaded");
        let mut eng = crate::ucode::MicroEngine::new(
            self.width,
            crate::ucode::assemble_cmul_fold(self.fold_offset != 0),
        );
        eng.set_const(0, k as u64);
        eng.set_const(2, self.fold_c);
        eng.set_const(3, self.fold_delta);
        eng.set_const(4, self.fold_offset);
        let b = self.a.clone(); // operand B is unused by the program
        let (result, cycles) = eng.run(&self.a, &b, &self.n, 0);
        self.result = result;
        debug_assert_eq!(
            cycles,
            Self::cmul_cycles(k as u64, self.pipeline_latency, self.fold_offset)
        );
        self.stats.busy_cycles += cycles;
        self.stats.ucode_reads += cycles;
        // One multiply pass + two propagation passes per injection.
        let rows = if self.fold_offset == 0 {
            3 * k as u64
        } else {
            3 * k as u64 + 2 * (k as u64 - self.fold_offset)
        };
        self.stats.scratch_accesses += 4 * rows;
        self.stats.operations += 1;
        cycles
    }

    /// Modular addition `result = (A + B) mod N`; returns the cycle
    /// count (single pipelined pass plus drain and conditional
    /// subtraction).
    pub fn modadd(&mut self) -> u64 {
        self.modaddsub(false)
    }

    /// Modular subtraction `result = (A - B) mod N`.
    pub fn modsub(&mut self) -> u64 {
        self.modaddsub(true)
    }

    fn modaddsub(&mut self, sub: bool) -> u64 {
        let k = self.n.len();
        assert!(k > 0, "modulus not loaded");
        assert_eq!(self.a.len(), k);
        assert_eq!(self.b.len(), k);
        let w = self.width;
        let mask = self.mask() as u128;
        // value = a +/- b, then conditional +/- n.
        let out = &mut self.result;
        out.clear();
        if sub {
            let mut borrow: i128 = 0;
            for j in 0..k {
                let d = self.a[j] as i128 - self.b[j] as i128 - borrow;
                out.push((d & mask as i128) as u64);
                borrow = (d < 0) as i128;
            }
            if borrow != 0 {
                let mut carry: u128 = 0;
                for j in 0..k {
                    let s = out[j] as u128 + self.n[j] as u128 + carry;
                    out[j] = (s & mask) as u64;
                    carry = s >> w;
                }
            }
        } else {
            let mut carry: u128 = 0;
            for j in 0..k {
                let s = self.a[j] as u128 + self.b[j] as u128 + carry;
                out.push((s & mask) as u64);
                carry = s >> w;
            }
            if carry != 0 || !lt(out, &self.n) {
                let mut borrow: i128 = 0;
                for j in 0..k {
                    let d = out[j] as i128 - self.n[j] as i128 - borrow;
                    out[j] = (d & mask as i128) as u64;
                    borrow = (d < 0) as i128;
                }
            }
        }
        // Two pipelined passes (op, conditional correction) plus drain.
        let cycles = 2 * k as u64 + self.pipeline_latency + 6;
        self.stats.busy_cycles += cycles;
        self.stats.ucode_reads += cycles;
        self.stats.scratch_accesses += 4 * k as u64;
        self.stats.operations += 1;
        cycles
    }
}

/// Replaces `buf` with `limbs`, reusing its allocation.
fn load(buf: &mut Vec<u64>, limbs: &[u64], mask: u64) {
    assert!(
        limbs.iter().all(|&l| l <= mask),
        "limb wider than the datapath"
    );
    buf.clear();
    buf.extend_from_slice(limbs);
}

/// Packs w-bit limbs into zeroed 64-bit words; w divides 64, so no limb
/// straddles two words.
fn pack(limbs: &[u64], w: usize, words: &mut [u64]) {
    for (i, &l) in limbs.iter().enumerate() {
        words[i * w / 64] |= l << (i * w % 64);
    }
}

/// `t + a·b + c` as (low word, high word); cannot overflow.
fn mac(t: u64, a: u64, b: u64, c: u64) -> (u64, u64) {
    let s = a as u128 * b as u128 + t as u128 + c as u128;
    (s as u64, (s >> 64) as u64)
}

/// `t += x·y`, carrying into the two words of `t` above `x.len()`.
fn mul_add_row(t: &mut [u64], x: &[u64], y: u64) {
    let len = x.len();
    let mut c = 0;
    for (tj, &xj) in t[..len].iter_mut().zip(x) {
        let (lo, hi) = mac(*tj, xj, y, c);
        *tj = lo;
        c = hi;
    }
    let (s, o) = t[len].overflowing_add(c);
    t[len] = s;
    t[len + 1] += o as u64;
}

/// `x < y` for equal-length little-endian digit strings.
fn lt(x: &[u64], y: &[u64]) -> bool {
    x.iter().rev().cmp(y.iter().rev()).is_lt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_mpmath::mont::Montgomery;
    use ule_mpmath::mp::Mp;
    use ule_mpmath::nist::NistPrime;

    /// Repack 32-bit limbs as w-bit FFAU limbs.
    fn repack(limbs32: &[u32], bits: usize, w: usize) -> Vec<u64> {
        let k = bits.div_ceil(w);
        let mut out = vec![0u64; k];
        for (i, limb) in out.iter_mut().enumerate() {
            let mut v = 0u64;
            for b in 0..w {
                let bit = i * w + b;
                let word = bit / 32;
                if word < limbs32.len() && (limbs32[word] >> (bit % 32)) & 1 == 1 {
                    v |= 1 << b;
                }
            }
            *limb = v;
        }
        out
    }

    /// The hardware's limb-by-limb CIOS (Algorithm 5) on w-bit limbs in
    /// `u128`: the oracle for [`Ffau::montmul`]'s host-word path.
    fn montmul_limbs(a: &[u64], b: &[u64], n: &[u64], n0_prime: u64, w: usize) -> Vec<u64> {
        let k = n.len();
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let mut t = vec![0u128; k + 2];
        for i in 0..k {
            let bi = b[i] as u128;
            let mut c: u128 = 0;
            for j in 0..k {
                let cs = t[j] + (a[j] as u128) * bi + c;
                t[j] = cs & mask as u128;
                c = cs >> w;
            }
            let cs = t[k] + c;
            t[k] = cs & mask as u128;
            t[k + 1] = cs >> w;
            let m = (t[0] as u64).wrapping_mul(n0_prime) & mask;
            let cs = t[0] + (m as u128) * (n[0] as u128);
            let mut c = cs >> w;
            for j in 1..k {
                let cs = t[j] + (m as u128) * (n[j] as u128) + c;
                t[j - 1] = cs & mask as u128;
                c = cs >> w;
            }
            let cs = t[k] + c;
            t[k - 1] = cs & mask as u128;
            t[k] = (t[k + 1] + (cs >> w)) & mask as u128;
            t[k + 1] = 0;
        }
        // Final correction.
        let ge = t[k] != 0 || {
            let mut ge = true; // equal counts as >=
            for j in (0..k).rev() {
                if t[j] > n[j] as u128 {
                    break;
                }
                if t[j] < n[j] as u128 {
                    ge = false;
                    break;
                }
            }
            ge
        };
        if ge {
            let mut borrow: i128 = 0;
            for j in 0..k {
                let d = t[j] as i128 - n[j] as i128 - borrow;
                t[j] = (d & mask as i128) as u128;
                borrow = (d < 0) as i128;
            }
        }
        t[..k].iter().map(|&x| x as u64).collect()
    }

    /// SplitMix64: a seeded, dependency-free operand source.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// `k` random w-bit limbs: a value anywhere in `[0, 2^(wk))`.
        fn limbs(&mut self, k: usize, mask: u64) -> Vec<u64> {
            (0..k).map(|_| self.next() & mask).collect()
        }
    }

    /// Runs `montmul` on `f` and the limb oracle over one operand set.
    fn check_against_oracle(f: &mut Ffau, a: &[u64], b: &[u64], n: &[u64], n0: u64, what: &str) {
        f.load_a(a);
        f.load_b(b);
        f.montmul();
        let expect = montmul_limbs(a, b, n, n0, f.width());
        assert_eq!(f.result(), &expect[..], "{what}: a={a:x?} b={b:x?}");
    }

    #[test]
    fn host_words_match_the_limb_loop() {
        let mut rng = Rng(0x5eed_f0a0);
        let named: Vec<(&str, Mp)> = [
            NistPrime::P192,
            NistPrime::P224,
            NistPrime::P256,
            NistPrime::P384,
            NistPrime::P521,
        ]
        .into_iter()
        .map(|p| (p.name(), p.modulus()))
        .chain([
            ("2^255-19", Mp::one().shl(255).sub(&Mp::from_u64(19))),
            (
                "2^448-2^224-1",
                Mp::one().shl(448).sub(&Mp::one().shl(224)).sub(&Mp::one()),
            ),
        ])
        .collect();
        for w in [8usize, 16, 32, 64] {
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            let mut moduli: Vec<(String, Vec<u64>)> = named
                .iter()
                .map(|(name, p)| {
                    let bits = p.bit_len();
                    let limbs = repack(&p.to_limbs(bits.div_ceil(32)), bits, w);
                    (name.to_string(), limbs)
                })
                .collect();
            for k in 1..=18 {
                for i in 0..4 {
                    let mut n = rng.limbs(k, mask);
                    n[0] |= 1;
                    if i == 0 {
                        n[k - 1] |= 1 << (w - 1); // full-width modulus
                    }
                    moduli.push((format!("random k={k}"), n));
                }
                moduli.push((format!("all-ones k={k}"), vec![mask; k]));
            }
            for (name, n) in &moduli {
                let k = n.len();
                let what = format!("w={w} {name}");
                let n0 = n0_prime_w(n[0], w);
                let mut f = Ffau::new(w);
                f.load_n(n);
                f.set_n0_prime(n0);
                let zero = vec![0; k];
                let ones = vec![mask; k];
                for (a, b) in [(&zero, &ones), (&ones, &zero), (&ones, &ones), (n, &ones)] {
                    check_against_oracle(&mut f, a, b, n, n0, &what);
                }
                for _ in 0..24 {
                    let (a, b) = (rng.limbs(k, mask), rng.limbs(k, mask));
                    check_against_oracle(&mut f, &a, &b, n, n0, &what);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "n0' inconsistent with N")]
    fn rejects_an_inconsistent_n0_prime() {
        let mut f = Ffau::new(32);
        f.load_n(&[0xffff_fffb, 7]);
        f.set_n0_prime(1);
        f.load_a(&[1, 0]);
        f.load_b(&[1, 0]);
        f.montmul();
    }

    #[test]
    #[should_panic(expected = "limb wider than the datapath")]
    fn rejects_a_limb_wider_than_the_datapath() {
        Ffau::new(16).load_a(&[0x1_0000]);
    }

    fn n0_prime_w(n0: u64, w: usize) -> u64 {
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        inv.wrapping_neg() & mask
    }

    #[test]
    fn eq_5_2_closed_form() {
        assert_eq!(Ffau::montmul_cycles(6, 3), 2 * 36 + 36 + 7 * 3 + 22);
        assert_eq!(Ffau::montmul_cycles(8, 3), 2 * 64 + 48 + 9 * 3 + 22);
    }

    #[test]
    fn montmul_matches_host_at_every_width() {
        let p = NistPrime::P192.modulus();
        let host = Montgomery::new(&p);
        let a = p.sub(&Mp::from_u64(123_456_789));
        let _b = p.sub(&Mp::from_u64(987));
        // Host reference result in the Montgomery domain w.r.t. R32 = 2^(32*6).
        // For other widths R differs, so verify algebraically instead:
        // from_mont(result) must equal a*b*R^{-1}... simplest invariant:
        // montmul(a, R^2 mod p) == a * R mod p for the width's own R.
        for w in [8usize, 16, 32, 64] {
            let k = 192usize.div_ceil(w);
            let r = Mp::one().shl(w * k);
            let r2 = r.mul(&r).rem(&p);
            let mut f = Ffau::new(w);
            f.load_n(&repack(&p.to_limbs(6), 192, w));
            f.set_n0_prime(n0_prime_w(repack(&p.to_limbs(6), 192, w)[0], w));
            f.load_a(&repack(&a.to_limbs(6), 192, w));
            f.load_b(&repack(&r2.to_limbs(6), 192, w));
            let cycles = f.montmul();
            assert_eq!(cycles, Ffau::montmul_cycles(k as u64, 3), "width {w}");
            // result should be a * R mod p
            let expect = a.mul(&r).rem(&p);
            let expect_limbs = repack(&expect.to_limbs(12), w * k, w);
            assert_eq!(f.result(), &expect_limbs[..], "width {w}");
        }
        let _ = host;
    }

    #[test]
    fn modadd_modsub_match_host() {
        let p = NistPrime::P256.modulus();
        let a = p.sub(&Mp::from_u64(5));
        let b = p.sub(&Mp::from_u64(12345));
        let mut f = Ffau::new(32);
        f.load_n(&repack(&p.to_limbs(8), 256, 32));
        f.set_n0_prime(n0_prime_w(p.to_limbs(8)[0] as u64, 32));
        f.load_a(&repack(&a.to_limbs(8), 256, 32));
        f.load_b(&repack(&b.to_limbs(8), 256, 32));
        f.modadd();
        let expect = a.add(&b).rem(&p);
        assert_eq!(f.result(), &repack(&expect.to_limbs(8), 256, 32)[..]);
        f.modsub();
        let expect = {
            // a - b mod p (a < b here is possible; handle sign)
            if a >= b {
                a.sub(&b)
            } else {
                a.add(&p).sub(&b)
            }
        };
        assert_eq!(f.result(), &repack(&expect.to_limbs(8), 256, 32)[..]);
    }

    #[test]
    fn stats_accumulate() {
        let p = NistPrime::P192.modulus();
        let mut f = Ffau::new(32);
        f.load_n(&repack(&p.to_limbs(6), 192, 32));
        f.set_n0_prime(n0_prime_w(p.to_limbs(6)[0] as u64, 32));
        f.load_a(&repack(&Mp::from_u64(7).to_limbs(6), 192, 32));
        f.load_b(&repack(&Mp::from_u64(9).to_limbs(6), 192, 32));
        let c1 = f.montmul();
        let c2 = f.modadd();
        let s = f.stats();
        assert_eq!(s.busy_cycles, c1 + c2);
        assert_eq!(s.operations, 2);
        assert!(s.scratch_accesses > 0);
    }

    #[test]
    #[should_panic(expected = "unsupported datapath width")]
    fn rejects_odd_width() {
        let _ = Ffau::new(24);
    }
}
