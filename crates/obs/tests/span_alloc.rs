//! A span's drop emits its fields plus `dur_us` without allocating.
//!
//! A counting global allocator tallies heap allocations made by the
//! calling thread while spans close under a recorder whose only
//! consumer is a sink that counts events.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ule_obs::{span, EventSink, Recorder, Value};

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

/// Counts events and checks each one ends with `dur_us`.
struct CountingSink(Arc<AtomicU64>);

impl EventSink for CountingSink {
    fn event(&mut self, _kind: &str, fields: &[(&str, Value)]) {
        assert_eq!(fields.last().map(|f| f.0), Some("dur_us"));
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn closing_a_span_does_not_allocate() {
    let seen = Arc::new(AtomicU64::new(0));
    let rec = Recorder::builder()
        .sink(Box::new(CountingSink(seen.clone())))
        .build();
    let _in = rec.enter();
    let bare = allocations(|| {
        for _ in 0..100 {
            drop(span("bare"));
        }
    });
    assert_eq!(bare, 0, "100 field-less spans allocated {bare} times");
    // Fields live in one vector, allocated by the first `field` call;
    // the drop appends `dur_us` to it without growing it.
    let with_fields = allocations(|| {
        let mut sp = span("fields");
        sp.field("a", 1u64).field("b", 2u64).field("c", true);
        drop(sp);
    });
    assert_eq!(
        with_fields, 1,
        "a span with three fields allocated {with_fields} times"
    );
    assert_eq!(seen.load(Ordering::Relaxed), 101);
}
