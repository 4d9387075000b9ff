//! Proves a warm, unchanged keyboard frame costs (almost) no heap traffic
//! on the producer side either.
//!
//! A victim redraws its keyboard on every damaged vsync: popup shown,
//! duplicated, hidden, page switched. The keyboard's backdrop and key grids
//! are shared, immutable layers that carry their own fingerprints, so a
//! frame is a few `Arc` clones and the GPU recognises a repeat in O(layers).
//! Across `KeyboardWindow::draw`, `Gpu::submit` and one counter read, only
//! two allocations are inherent: the draw list's layer vector and the GPU
//! job's checkpoint vector. A frame built whole, with a primitive vector
//! per layer, and a cloned checkpoint vector, costs 17.
//!
//! Methodology (as in adreno-sim's `alloc_free.rs`): warm everything up
//! first — the shared layer table, the render caches, the renderer's
//! scratch, the GPU's job queue, telemetry thread-locals — then
//! `spansight::flush()` so the measured window stays under the telemetry
//! buffer's flush threshold, then measure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adreno_sim::gpu::Gpu;
use adreno_sim::time::SimInstant;
use android_ui::compositor::KeyboardWindow;
use android_ui::keyboard::KeyboardKind;
use android_ui::screen::DeviceConfig;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_unchanged_keyboard_frame_allocates_at_most_twice() {
    let device = DeviceConfig::oneplus8pro();
    let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &device, true);
    let mut gpu = Gpu::new(device.gpu());
    let vsync = device.refresh.frame_interval();

    // Warm-up: the base frame, a popup frame and back, repeated for over
    // two seconds of sim time (the GPU's busy-interval horizon), so every
    // cache, scratch vector and queue has reached its steady size.
    let mut t = SimInstant::ZERO;
    for i in 0..200 {
        if i % 4 == 1 {
            assert!(kw.show_popup('g'));
        } else if i % 4 == 2 {
            assert!(kw.hide_popup());
        }
        let frame = gpu.submit(&kw.draw(), t);
        t = frame.end + vsync;
        let _ = gpu.counters_at(t);
    }
    spansight::flush();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let dl = kw.draw();
    let frame = gpu.submit(&dl, t);
    let counters = gpu.counters_at(frame.end + vsync);
    drop(dl);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(counters.total() > 0);
    let allocations = after - before;
    assert!(
        allocations <= 2,
        "a warm unchanged keyboard frame allocated {allocations} times across draw, submit \
         and one read (budget 2: the layer vector and the job's checkpoints)"
    );
}
