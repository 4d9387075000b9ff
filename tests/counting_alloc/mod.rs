//! A global allocator that counts heap allocations and live heap bytes per
//! thread, for the tests that pin how much a hot path allocates and how
//! much a resident session holds. Declaring this module installs it as the
//! test binary's allocator.
//!
//! Counted per thread because a binary's tests run in parallel, and the
//! test harness allocates on its own thread whenever one of them finishes.
//! `alloc` and `realloc` count as allocations; `dealloc` does not. Live
//! bytes grow by an `alloc`'s size, shrink by a `dealloc`'s, and move by
//! the difference a `realloc` makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread less the bytes freed on it; memory
    /// one thread allocates and another frees moves both threads' counts.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn count_bytes(delta: isize) {
    LIVE_BYTES.with(|n| n.set(n.get() + delta));
}

/// Allocations the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap bytes the calling thread has allocated and not yet freed.
#[allow(dead_code)] // every test binary of this allocator counts allocations; one reads bytes
pub fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// memory it returns is `System`'s. Counting touches only const-initialised
// thread-local `Cell`s with no destructor, which neither allocate nor fail
// on any thread, at any point of its life.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_bytes(layout.size() as isize);
        // SAFETY: the caller meets `alloc`'s contract, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        count_bytes(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
