//! Proves the steady-state sampling loop is allocation-free, and that an
//! accepted key costs Algorithm 1 and the correction stage no allocation.
//!
//! The hot loop of the attack — jitter, advance, block-read ioctl, sample
//! assembly — runs ~113k times per session, so a single heap allocation per
//! slot costs real throughput. The sampler's scratch read buffer and the
//! trace's pre-reserved sample buffer are supposed to eliminate them all;
//! this test pins that with a counting global allocator. An accepted key is
//! one `InferredKey` value from the inference stage to the correction
//! stage, so all that may allocate there is the growth of their key lists.
//!
//! Methodology: the measured window must avoid *incidental* allocation
//! sources that are not part of the per-slot loop — telemetry flushes (the
//! thread-local buffer aggregates 4096 events before flushing) and lazy
//! simulation state. So the test warms the sampler up first, flushes
//! telemetry, and then measures a short burst of slots well under the flush
//! threshold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::SimConfig;
use android_ui::UiSimulation;
use gpu_sc_attack::correction::CorrectionStage;
use gpu_sc_attack::offline::{Trainer, TrainerConfig};
use gpu_sc_attack::online::InferStage;
use gpu_sc_attack::sampler::{Sampler, SamplerConfig};
use gpu_sc_attack::stage::Stage;
use gpu_sc_attack::trace::Delta;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread. Counted per thread because the
    /// tests below run in parallel, and the test harness allocates on its
    /// own thread whenever one of them finishes.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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
    let before = allocations();
    while let Some(s) = sampler.next_sample(&mut stream, &mut sim) {
        trace.push(s.at, s.values);
    }
    let after = allocations();
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

#[test]
fn accepted_keys_allocate_only_for_list_growth() {
    let cfg = SimConfig::paper_default(0);
    let model = Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app);
    let centroids = model.centroids();
    for keys in [64usize, 128] {
        // One delta per centroid, 300 ms apart, cycling as Fig 25 replays
        // them: every change is a direct classification.
        let deltas: Vec<Delta> = (0..keys)
            .map(|i| Delta {
                at: SimInstant::from_millis(200 + 300 * i as u64),
                values: centroids[i % centroids.len()].values,
            })
            .collect();
        let mut infer = InferStage::greedy(&model);
        let mut correction = CorrectionStage::new(model.ambient_signatures().to_vec(), false);
        let mut infer_events = Vec::with_capacity(keys);
        let mut correction_events = Vec::with_capacity(keys);
        spansight::flush();

        let before = allocations();
        infer.push_burst(&deltas, &mut infer_events);
        for event in infer_events.drain(..) {
            correction.push(event, &mut correction_events);
        }
        let made = allocations() - before;

        assert_eq!(infer.stats().direct, keys, "every delta must be accepted");
        // Only the stages' key lists and burst buffers grow, each doubling
        // a logarithmic number of times; any per-key allocation would cost
        // at least `keys`.
        assert!(made < keys as u64 / 2, "{keys} accepted keys made {made} allocations");
    }
}
