//! Monte's coprocessor commands allocate nothing once warm.
//!
//! A counting global allocator tallies heap allocations made by the
//! calling thread while a command stream runs through
//! `Coprocessor::issue`: control-register writes, modulus and operand
//! loads, Montgomery multiplies, modular additions and subtractions,
//! and stores, including loads the front end forwards from the result
//! buffer. The first pass warms the reused buffers; the tally of the
//! second pass must be zero, with and without double buffering and
//! forwarding. The fold-mode constant multiply of the X25519/X448
//! ladders (2^255−19 and 2^448−2^224−1) is held to the same rule.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ule_isa::asm::RAM_BASE;
use ule_isa::instr::Instr;
use ule_isa::reg::Reg;
use ule_monte::{Monte, MonteConfig};
use ule_mpmath::mont::Montgomery;
use ule_mpmath::mp::Mp;
use ule_mpmath::nist::NistPrime;
use ule_mpmath::xprime::XPrime;
use ule_pete::cop::Coprocessor;
use ule_pete::mem::Ram;

thread_local! {
    /// `Some(n)`: counting on this thread, `n` allocations so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

struct Counting;

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the calling thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// Issues one pass of every non-fold Monte command for `p`, starting at
/// `cycle`; returns the cycle Pete resumes at.
fn command_stream(m: &mut Monte, ram: &mut Ram, p: NistPrime, n0: u32, mut c: u64) -> u64 {
    let rt = Reg::T0;
    let k = p.bits().div_ceil(32);
    let (n, x, y, out) = (
        RAM_BASE,
        RAM_BASE + 0x100,
        RAM_BASE + 0x200,
        RAM_BASE + 0x300,
    );
    c = m.issue(Instr::Ctc2 { rt, rd: 0 }, k as u32, c, ram);
    c = m.issue(Instr::Ctc2 { rt, rd: 1 }, n0, c, ram);
    c = m.issue(Instr::Cop2LdN { rt }, n, c, ram);
    for _ in 0..4 {
        c = m.issue(Instr::Cop2LdA { rt }, x, c, ram);
        c = m.issue(Instr::Cop2LdB { rt }, y, c, ram);
        c = m.issue(Instr::Cop2Mul, 0, c, ram);
        c = m.issue(Instr::Cop2St { rt }, out, c, ram);
        // Reload the stored result: forwarded when forwarding is on.
        c = m.issue(Instr::Cop2LdA { rt }, out, c, ram);
        c = m.issue(Instr::Cop2Add, 0, c, ram);
        c = m.issue(Instr::Cop2St { rt }, x, c, ram);
        c = m.issue(Instr::Cop2LdB { rt }, x, c, ram);
        c = m.issue(Instr::Cop2Sub, 0, c, ram);
        c = m.issue(Instr::Cop2St { rt }, y, c, ram);
    }
    c
}

/// Issues one pass of fold-mode commands for `p`: constant multiplies by
/// `a24`, stores and forwarded reloads, then a Montgomery multiply with
/// fold mode off and back on; returns the cycle Pete resumes at.
fn fold_stream(m: &mut Monte, ram: &mut Ram, p: XPrime, n0: u32, mut c: u64) -> u64 {
    let rt = Reg::T0;
    let (n, x, out) = (RAM_BASE, RAM_BASE + 0x100, RAM_BASE + 0x300);
    let fold = |m: &mut Monte, ram: &mut Ram, c: u64, on: u32| {
        m.issue(Instr::Ctc2 { rt, rd: 2 }, on, c, ram)
    };
    c = m.issue(Instr::Ctc2 { rt, rd: 0 }, p.limbs() as u32, c, ram);
    c = m.issue(Instr::Ctc2 { rt, rd: 1 }, n0, c, ram);
    c = m.issue(Instr::Ctc2 { rt, rd: 3 }, p.a24() as u32, c, ram);
    c = m.issue(Instr::Ctc2 { rt, rd: 4 }, p.fold_delta() as u32, c, ram);
    c = m.issue(
        Instr::Ctc2 { rt, rd: 5 },
        p.fold_second_offset() as u32,
        c,
        ram,
    );
    c = fold(m, ram, c, 1);
    c = m.issue(Instr::Cop2LdN { rt }, n, c, ram);
    for _ in 0..4 {
        c = m.issue(Instr::Cop2LdA { rt }, x, c, ram);
        c = m.issue(Instr::Cop2Mul, 0, c, ram);
        c = m.issue(Instr::Cop2St { rt }, out, c, ram);
        c = m.issue(Instr::Cop2LdA { rt }, out, c, ram);
        c = m.issue(Instr::Cop2Mul, 0, c, ram);
        c = m.issue(Instr::Cop2St { rt }, x, c, ram);
    }
    c = fold(m, ram, c, 0);
    c = m.issue(Instr::Cop2LdB { rt }, x, c, ram);
    c = m.issue(Instr::Cop2Mul, 0, c, ram);
    c = m.issue(Instr::Cop2St { rt }, out, c, ram);
    fold(m, ram, c, 1)
}

#[test]
fn fold_mode_commands_do_not_allocate() {
    for p in XPrime::ALL {
        let modulus = p.modulus();
        let k = p.limbs();
        let n0 = Montgomery::new(&modulus).n0_prime();
        let mut ram = Ram::new();
        ram.poke_words(RAM_BASE, &modulus.to_limbs(k));
        let x = modulus.sub(&Mp::from_u64(0x1234_5678));
        ram.poke_words(RAM_BASE + 0x100, &x.to_limbs(k));
        let mut m = Monte::new();
        let warm = fold_stream(&mut m, &mut ram, p, n0, 0);
        let before = ram.peek_words(RAM_BASE + 0x100, k);
        let n = allocations(|| {
            fold_stream(&mut m, &mut ram, p, n0, warm);
        });
        assert_eq!(n, 0, "{}: fold-mode commands allocated {n} times", p.name());
        // The stream did real work: the stored product moved.
        assert_ne!(ram.peek_words(RAM_BASE + 0x100, k), before);
    }
}

#[test]
fn monte_commands_do_not_allocate() {
    for double_buffer in [true, false] {
        for forwarding in [true, false] {
            let config = MonteConfig {
                double_buffer,
                forwarding,
                ..MonteConfig::default()
            };
            for p in [NistPrime::P256, NistPrime::P521] {
                let modulus = p.modulus();
                let k = p.bits().div_ceil(32);
                let n0 = Montgomery::new(&modulus).n0_prime();
                let mut ram = Ram::new();
                ram.poke_words(RAM_BASE, &modulus.to_limbs(k));
                let x = modulus.sub(&Mp::from_u64(0xdead_beef));
                ram.poke_words(RAM_BASE + 0x100, &x.to_limbs(k));
                ram.poke_words(RAM_BASE + 0x200, &modulus.shr(3).to_limbs(k));
                let mut m = Monte::with_config(config);
                let warm = command_stream(&mut m, &mut ram, p, n0, 0);
                let before = ram.peek_words(RAM_BASE + 0x300, k);
                let n = allocations(|| {
                    command_stream(&mut m, &mut ram, p, n0, warm);
                });
                assert_eq!(
                    n,
                    0,
                    "{} ({config:?}): Monte commands allocated {n} times",
                    p.name()
                );
                // The stream did real work: the stored product moved.
                assert_ne!(ram.peek_words(RAM_BASE + 0x300, k), before);
            }
        }
    }
    // The counter is live: a fresh Monte's first load does allocate.
    let mut ram = Ram::new();
    let mut m = Monte::new();
    let rt = Reg::T0;
    m.issue(Instr::Ctc2 { rt, rd: 0 }, 8, 0, &mut ram);
    let v = allocations(|| {
        m.issue(Instr::Cop2LdN { rt }, RAM_BASE, 1, &mut ram);
    });
    assert!(v > 0, "the counting allocator saw nothing");
}
