//! Proves the steady-state sampling loop is allocation-free.
//!
//! The hot loop of the attack — jitter, advance, block-read ioctl, sample
//! assembly — runs ~113k times per session, so a single heap allocation per
//! slot costs real throughput. The sampler's scratch read buffer and the
//! trace's pre-reserved sample buffer are supposed to eliminate them all;
//! this test pins that with a counting global allocator.
//!
//! Methodology: the measured window must avoid *incidental* allocation
//! sources that are not part of the per-slot loop — telemetry flushes (the
//! thread-local buffer aggregates 4096 events before flushing) and lazy
//! simulation state. So the test warms the sampler up first, flushes
//! telemetry, and then measures a short burst of slots well under the flush
//! threshold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::SimConfig;
use android_ui::UiSimulation;
use gpu_sc_attack::sampler::{Sampler, SamplerConfig};

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
fn steady_state_sampling_does_not_allocate() {
    // A quiet victim: no system noise, session starts in another app so the
    // only scheduled activity is the cursor blink. The measured slots then
    // exercise exactly the per-slot loop: jitter, advance, ioctl, push.
    let mut sim = UiSimulation::new(SimConfig {
        system_noise_hz: 0.0,
        start_in_other: true,
        ..SimConfig::paper_default(7)
    });
    let mut sampler = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();

    // Warm-up: drives lazy initialisation everywhere (thread-local telemetry
    // buffers, simulation caches, the first render).
    let mut stream = sampler.start_stream(&sim, SimInstant::from_millis(400));
    while sampler.next_sample(&mut stream, &mut sim).is_some() {}
    sampler.finish_stream(stream).unwrap();

    // Flush telemetry so the measured window cannot hit the 4096-event
    // buffer flush (an intentional, amortised allocation site).
    spansight::flush();

    // Measure ~200 steady-state slots, collected into a pre-reserved trace
    // exactly as `sample_until` does it.
    let until = sim.now() + SimDuration::from_millis(1_600);
    let mut stream = sampler.start_stream(&sim, until);
    let mut trace = gpu_sc_attack::trace::Trace::with_capacity(256);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    while let Some(s) = sampler.next_sample(&mut stream, &mut sim) {
        trace.push(s.at, s.values);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    sampler.finish_stream(stream).unwrap();

    assert!(trace.len() >= 150, "expected ~200 slots, got {}", trace.len());
    assert_eq!(
        after - before,
        0,
        "steady-state sampling must not heap-allocate (got {} allocations over {} slots)",
        after - before,
        trace.len()
    );
}
