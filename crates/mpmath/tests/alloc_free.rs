//! The field hot paths allocate nothing.
//!
//! A counting global allocator tallies heap allocations made by the
//! calling thread while a loop of P-256 and P-521, or B-163 and B-571,
//! field operations runs, and the tally must stay at zero. Elements are
//! fixed-width limb arrays and every intermediate (the double-width
//! product, the reduction accumulator, the inversion state) lives on the
//! stack.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ule_mpmath::f2m::BinaryField;
use ule_mpmath::fp::PrimeField;
use ule_mpmath::mp::Mp;
use ule_mpmath::nist::{NistBinary, NistPrime};

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

#[test]
fn field_ops_do_not_allocate() {
    for p in [NistPrime::P256, NistPrime::P521] {
        let f = PrimeField::nist(p);
        let mut a = f.from_mp(&f.modulus().sub(&Mp::from_u64(12345)));
        let mut b = f.from_mp(&f.modulus().shr(3));
        let wide = vec![u32::MAX; 2 * f.k()];
        let n = allocations(|| {
            for i in 0..200u64 {
                let m = f.mul(&a, &b);
                let s = f.add(&m, &a);
                let d = f.sub(&s, &b);
                let t = f.sqr(&f.neg(&d));
                let w = f.reduce_wide(&wide);
                b = f.add(&f.dbl(&t), &f.mul_u64(&w, i + 1));
                a = f.inv(&f.add(&b, &f.one())).unwrap_or_else(|| f.from_u64(i));
            }
        });
        assert_eq!(n, 0, "{}: field ops allocated {n} times", f.name());
        // The counter is live: converting to `Mp` does allocate.
        let v = allocations(|| drop(std::hint::black_box(a.to_mp())));
        assert!(v > 0, "the counting allocator saw nothing");
    }
    for nb in [NistBinary::B163, NistBinary::B571] {
        let f = BinaryField::nist(nb);
        let mut a = f.from_mp(&f.poly_mp().shr(2));
        let mut b = f.from_mp(&Mp::from_u64(0x1234_5678_9abc_def1));
        let wide = vec![u32::MAX; 2 * f.k()];
        let n = allocations(|| {
            for _ in 0..200 {
                let m = f.mul(&a, &b);
                let t = f.sqr(&f.add(&m, &a));
                b = f.add(&t, &f.reduce(&wide));
                a = f.inv(&f.add(&b, &f.one())).unwrap_or_else(|| f.one());
            }
        });
        assert_eq!(n, 0, "{}: field ops allocated {n} times", f.name());
    }
}
