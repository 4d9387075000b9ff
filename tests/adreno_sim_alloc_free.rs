//! Proves the warm render path is (near-)allocation-free.
//!
//! A victim simulation submits tens of thousands of frames per session,
//! most of them made of layers some earlier frame already drew, so
//! per-frame heap traffic in the renderer costs real throughput. Two paths
//! through [`Gpu::submit`] and one counter read are pinned here with a
//! counting global allocator:
//!
//! * **Warm repeated frame** — every layer is in the layer cache, so the
//!   frame is keyed in high-water-marked scratch and assembled from cached
//!   running sums. Its one allocation is the output's checkpoint vector,
//!   which the GPU job takes as it is.
//! * **Novel frame** — one animated stroke layer at a phase the warm-up
//!   never drew. The stroke walk uses the thread-local row-bitmask scratch
//!   in `stroke_tiles` (the old dedup `Vec` allocated ~3 times *per stroke
//!   per grid*), the clean layers come from the cache, and only the
//!   inherent per-frame products allocate: the occlusion grid, the dirty
//!   layer's sums and their cache entry, the checkpoint vector, and
//!   amortised cache-map growth. With 32 strokes in the dirty layer the old
//!   stroke walk alone would allocate 96+ times; the bound asserted here is
//!   a small stroke-count-independent constant. Each novel frame must count
//!   a dirty layer in [`Gpu::incremental_stats`], or it measured nothing.
//!
//! Methodology (as in `core_alloc_free.rs`): warm everything up first —
//! thread-local telemetry buffers, the stroke scratch, the glyph and layer
//! caches, the render scratch, the GPU's job queue and busy log — then
//! `spansight::flush()` so the measured window stays under the telemetry
//! buffer's flush threshold, then measure.

mod counting_alloc;

use adreno_sim::geom::{Rect, Segment};
use adreno_sim::gpu::Gpu;
use adreno_sim::model::GpuModel;
use adreno_sim::scene::DrawList;
use adreno_sim::time::{SimDuration, SimInstant};

use counting_alloc::allocations;

const STROKES: usize = 32;

/// A keyboard-like frame whose topmost layer is a stroke animation varying
/// with `phase` — the PNC-style animated login decoration. The animation
/// layer is translucent, so a phase change occludes nothing: every other
/// layer keeps its cache key, and only the animation layer is computed.
/// Distinct phases draw distinct strokes.
fn frame(phase: u32) -> DrawList {
    let mut dl = DrawList::new(1080, 800);
    dl.layer("bg").quad(Rect::from_xywh(0, 0, 1080, 800), true);
    let keys = dl.layer("keys");
    for i in 0..10 {
        keys.quad(Rect::from_xywh(i * 100, 560, 92, 90), true);
        keys.glyph((b'a' + i as u8) as char, Rect::from_xywh(i * 100 + 20, 574, 52, 62), 4);
    }
    let band = Rect::from_xywh(40, 120, 1000, 360);
    let anim = dl.layer("login-animation");
    anim.quad(band, false);
    for s in 0..STROKES as i32 {
        // Spread over the band; phases up to 114 never wrap onto each other.
        let y = phase as f32 * 0.07 + s as f32 * 0.23;
        anim.stroke(Segment { x0: 0.2, y0: y % 8.0, x1: 7.8, y1: (y + 3.1) % 8.0 }, band, 4);
    }
    dl
}

/// Submits `dl` one second after the last frame and reads the counters once
/// it has drawn, so the job queue and the busy log stay at their warm size.
fn submit_and_read(gpu: &mut Gpu, dl: &DrawList, t: &mut SimInstant) {
    let frame = gpu.submit(dl, *t);
    assert!(gpu.counters_at(frame.end).total() > 0);
    *t = frame.end + SimDuration::from_secs(1);
}

#[test]
fn warm_render_paths_are_allocation_free() {
    let mut gpu = Gpu::new(GpuModel::Adreno650);
    let mut t = SimInstant::ZERO;

    // Warm-up: several distinct phases drive lazy initialisation everywhere
    // (glyph bbox/stats tables, stroke scratch growth, cache maps, render
    // scratch capacity, the GPU's queues, telemetry thread-locals).
    for phase in 0..12 {
        submit_and_read(&mut gpu, &frame(phase), &mut t);
    }
    spansight::flush();

    // Warm repeated frame: every layer cached, one allocation.
    let held = frame(11);
    let before = allocations();
    submit_and_read(&mut gpu, &held, &mut t);
    let after = allocations();
    assert_eq!(
        after - before,
        1,
        "a warm repeated frame must allocate only the job's checkpoint vector"
    );

    // Novel frames: phases the warm-up never drew, so the animation layer
    // is computed every time. The budget is per frame and independent of
    // STROKES: the old stroke walk alone would cost 3+ allocations per
    // stroke.
    const FRAMES: u64 = 8;
    const PER_FRAME_BUDGET: u64 = 16;
    let novel: Vec<DrawList> = (100..100 + FRAMES as u32).map(frame).collect();
    let dirty_before = gpu.incremental_stats().layers_dirty;
    let before = allocations();
    for dl in &novel {
        submit_and_read(&mut gpu, dl, &mut t);
    }
    let after = allocations();
    assert_eq!(
        gpu.incremental_stats().layers_dirty - dirty_before,
        FRAMES,
        "every novel frame must compute exactly its animation layer"
    );
    let total = after - before;
    assert!(
        total <= FRAMES * PER_FRAME_BUDGET,
        "novel-frame renders allocated {total} times over {FRAMES} frames \
         (budget {PER_FRAME_BUDGET}/frame); the stroke walk must stay allocation-free"
    );
}
