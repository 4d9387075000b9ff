//! A global allocator that counts heap allocations per thread, for the
//! tests that pin how much a hot path allocates. Declaring this module
//! installs it as the test binary's allocator.
//!
//! Counted per thread because a binary's tests run in parallel, and the
//! test harness allocates on its own thread whenever one of them finishes.
//! `alloc` and `realloc` count; `dealloc` does not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// memory it returns is `System`'s. Counting touches only a const-initialised
// thread-local `Cell` with no destructor, which neither allocates nor fails
// on any thread, at any point of its life.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller meets `alloc`'s contract, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: as for `dealloc`; the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
