//! Prices the layer-cache render path against the reference pipeline, in
//! the same binary and run (the host drifts between runs; only same-run
//! ratios are trustworthy):
//!
//! * **cold** — every layer of the frame is novel (each carries a marker
//!   that changes every iteration), so `render` computes them all: its
//!   overhead ceiling — keying, lookups and cache inserts on top of the
//!   reference's work;
//! * **dirty one layer** — a translucent animation layer (the PNC-style
//!   login decoration) changes every frame while the keyboard holds: every
//!   other layer comes from the cache and only the animated layer is
//!   computed, the per-frame shape animated login pages actually submit;
//! * **identical** — the frame repeats unchanged, the dominant vsync case:
//!   every layer comes from the cache.
//!
//! Nothing resets the caches, so "cold" is a frame no earlier frame shared
//! a layer with. Each `render` output is asserted equal to
//! `render_uncached` here before timing, cold and warm (and pinned at scale
//! by the frame-sequence proptests in the root package's
//! `tests/adreno_sim_incremental_proptests.rs`).

use adreno_sim::geom::{Rect, Segment};
use adreno_sim::model::{GpuModel, GpuParams};
use adreno_sim::pipeline::{render, render_uncached};
use adreno_sim::scene::{DrawList, Layer};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const W: i32 = 1080;
const H: i32 = 920;

/// A keyboard-like frame: opaque background, echo field, three key rows
/// with glyphs, and a held key popup — the static backdrop of a session.
/// Every layer opens with an empty quad at `x = marker`, which draws
/// nothing but makes the layer novel to the layer cache for each marker.
fn keyboard_frame(marker: i32) -> DrawList {
    let mut dl = DrawList::new(W, H);
    marked_layer(&mut dl, "bg", marker).quad(Rect::from_xywh(0, 0, W, H), true);
    let field = marked_layer(&mut dl, "field", marker);
    field.quad(Rect::from_xywh(16, 16, W - 32, 56), true);
    for i in 0..8 {
        field.glyph('*', Rect::from_xywh(24 + 30 * i, 24, 24, 40), 4);
    }
    for row in 0..3 {
        let keys = marked_layer(&mut dl, "keys", marker);
        for i in 0..10 {
            let x = i * 108 + row * 18;
            let y = H - 300 + row * 96;
            keys.quad(Rect::from_xywh(x, y, 100, 88), true);
            keys.glyph(
                (b'a' + ((row * 10 + i) % 26) as u8) as char,
                Rect::from_xywh(x + 24, y + 14, 52, 62),
                4,
            );
        }
    }
    marked_layer(&mut dl, "popup", marker).quad(Rect::from_xywh(360, H - 420, 96, 116), true);
    marked_layer(&mut dl, "popup-glyph", marker).glyph(
        'f',
        Rect::from_xywh(366, H - 414, 84, 104),
        8,
    );
    dl
}

/// A new topmost layer opening with an empty quad at `x = marker`.
fn marked_layer<'a>(dl: &'a mut DrawList, tag: &'static str, marker: i32) -> &'a mut Layer {
    dl.layer(tag).quad(Rect::from_xywh(marker, 0, 0, 0), false)
}

/// The keyboard frame plus a translucent animated stroke layer at `phase`.
/// Phases are effectively never-repeating (~82k combinations), so the
/// animation layer is novel every frame while every other layer is cached.
fn animated_frame(phase: u32) -> DrawList {
    let mut dl = keyboard_frame(0);
    let band =
        Rect::from_xywh(40, 140, 200 + (phase % 640) as i32, 240 + ((phase / 640) % 128) as i32);
    let anim = dl.layer("login-animation");
    anim.quad(band, false);
    for s in 0..6 {
        let y = (phase % 161) as f32 * 0.05 + s as f32 * 1.3;
        anim.stroke(Segment { x0: 0.1, y0: y % 8.0, x1: 7.9, y1: (y + 2.7) % 8.0 }, band, 4);
    }
    dl
}

/// Cold, then warm: both renders equal the reference.
fn assert_equivalent(dl: &DrawList, params: &GpuParams) {
    let reference = render_uncached(dl, params);
    assert_eq!(render(dl, params), reference);
    assert_eq!(render(dl, params), reference);
}

fn bench_render_incremental(c: &mut Criterion) {
    let params = GpuModel::Adreno650.params();
    assert_equivalent(&keyboard_frame(-1), &params);
    for phase in [0, 1, 999_999] {
        assert_equivalent(&animated_frame(phase), &params);
    }

    // Cold: every layer novel every iteration. The cached path's overhead
    // ceiling vs the plain pipeline; the reference renders the same frames.
    c.bench_function("render_incremental/cold_uncached_reference", |b| {
        let mut marker = 0;
        b.iter(|| {
            marker += 1;
            black_box(render_uncached(black_box(&keyboard_frame(marker)), &params))
        })
    });
    c.bench_function("render_incremental/cold_render", |b| {
        let mut marker = 1_000_000_000;
        b.iter(|| {
            marker += 1;
            black_box(render(black_box(&keyboard_frame(marker)), &params))
        })
    });

    // Dirty one layer: the animation layer changes per frame, nothing else.
    c.bench_function("render_incremental/dirty_layer_uncached_reference", |b| {
        let mut n = 0u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            black_box(render_uncached(black_box(&animated_frame(n)), &params))
        })
    });
    c.bench_function("render_incremental/dirty_layer_render", |b| {
        let mut n = 2_000_000u32;
        b.iter(|| {
            n = n.wrapping_add(1);
            black_box(render(black_box(&animated_frame(n)), &params))
        })
    });

    // Identical: the steady vsync case. The reference still renders;
    // `render` assembles the frame from cached layers.
    let held = animated_frame(7);
    c.bench_function("render_incremental/identical_uncached_reference", |b| {
        b.iter(|| black_box(render_uncached(black_box(&held), &params)))
    });
    c.bench_function("render_incremental/identical_render", |b| {
        b.iter(|| black_box(render(black_box(&held), &params)))
    });
}

criterion_group!(benches, bench_render_incremental);
criterion_main!(benches);
