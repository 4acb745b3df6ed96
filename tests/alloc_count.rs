//! The one counting allocator of the system tests.
//!
//! It wraps `System` for every test binary of this package and counts only
//! on a thread that armed it, in a thread-local: libtest's own threads,
//! sibling tests and runtime helper threads allocate freely while a window
//! is open without leaking into it, so allocation pins can share a binary
//! and cannot fail under load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: reading these from inside the
    // allocator never allocates and works at any point of a thread's life.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note() {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` touches two plain thread-local cells and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` and return how many heap allocations (`alloc`, `alloc_zeroed`,
/// `realloc`) it made on the calling thread, with its result.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.set(0);
    ARMED.set(true);
    // One allocation of our own proves the counter is live, so a pin of
    // zero cannot pass because nothing was counting.
    drop(std::hint::black_box(Box::new(0u8)));
    let out = f();
    ARMED.set(false);
    let seen = ALLOCS.get();
    assert!(seen >= 1, "counting allocator is not installed");
    (seen - 1, out)
}
