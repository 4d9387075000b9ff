//! Property-based tests of the GPU substrate's invariants.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use adreno_sim::geom::Rect;
use adreno_sim::gpu::Gpu;
use adreno_sim::model::{GpuModel, ALL_MODELS};
use adreno_sim::pipeline::{render, render_uncached, OcclusionGrid};
use adreno_sim::scene::DrawList;
use adreno_sim::time::{SimDuration, SimInstant};
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = GpuModel> {
    prop::sample::select(ALL_MODELS.to_vec())
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0..500i32, 0..500i32, 1..300i32, 1..300i32)
        .prop_map(|(x, y, w, h)| Rect::from_xywh(x, y, w, h))
}

fn arb_char() -> impl Strategy<Value = char> {
    prop::sample::select(adreno_sim::font::FIG18_CHARSET.chars().collect::<Vec<_>>())
}

/// An arbitrary small scene: a background plus a few quads and glyphs.
fn arb_scene() -> impl Strategy<Value = DrawList> {
    (
        prop::collection::vec((arb_rect(), any::<bool>()), 0..8),
        prop::collection::vec((arb_char(), arb_rect()), 0..4),
    )
        .prop_map(|(quads, glyphs)| {
            let mut dl = DrawList::new(800, 800);
            dl.layer("bg").quad(Rect::from_xywh(0, 0, 800, 800), true);
            let layer = dl.layer("content");
            for (r, opaque) in quads {
                layer.quad(r, opaque);
            }
            let top = dl.layer("glyphs");
            for (c, r) in glyphs {
                top.glyph(c, r, 4);
            }
            dl
        })
}

/// A scene with arbitrary layer structure — including layers with no opaque
/// quads, which leave the layer-cache keys of the layers below unchanged and
/// exercise the occlusion-snapshot sharing in `render_uncached`'s pass 1.
fn arb_layered_scene() -> impl Strategy<Value = DrawList> {
    prop::collection::vec(
        (
            prop::collection::vec((arb_rect(), any::<bool>()), 0..4),
            prop::collection::vec((arb_char(), arb_rect()), 0..3),
        ),
        1..5,
    )
    .prop_map(|layers| {
        let mut dl = DrawList::new(800, 800);
        for (quads, glyphs) in layers {
            let layer = dl.layer("layer");
            for (r, opaque) in quads {
                layer.quad(r, opaque);
            }
            for (c, r) in glyphs {
                layer.glyph(c, r, 4);
            }
        }
        dl
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_render_matches_uncached(scene in arb_layered_scene(), model in arb_model()) {
        let params = model.params();
        let reference = render_uncached(&scene, &params);
        // Cold: the layers of a novel scene are computed and cached. Warm:
        // the same scene is assembled from the layer cache alone.
        prop_assert_eq!(&render(&scene, &params), &reference);
        prop_assert_eq!(&render(&scene, &params), &reference);
    }

    #[test]
    fn render_is_deterministic(scene in arb_scene(), model in arb_model()) {
        let a = render(&scene, &model.params());
        let b = render(&scene, &model.params());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn checkpoints_never_exceed_totals(scene in arb_scene(), model in arb_model()) {
        let out = render(&scene, &model.params());
        let mut prev_cycles = 0u64;
        for (cyc, set) in &out.checkpoints {
            prop_assert!(*cyc >= prev_cycles, "cycle checkpoints must be monotonic");
            prev_cycles = *cyc;
            for i in 0..NUM_TRACKED {
                prop_assert!(set.as_array()[i] <= out.totals.as_array()[i]);
            }
        }
        if let Some((cyc, set)) = out.checkpoints.last() {
            prop_assert_eq!(*cyc, out.total_cycles);
            prop_assert_eq!(*set, out.totals);
        }
    }

    #[test]
    fn adding_a_prim_never_decreases_submitted_prims(
        scene in arb_scene(),
        extra in arb_rect(),
        model in arb_model(),
    ) {
        use adreno_sim::counters::TrackedCounter;
        let base = render(&scene, &model.params());
        let mut bigger = scene.clone();
        bigger.layer("extra").quad(extra, false);
        let more = render(&bigger, &model.params());
        prop_assert!(
            more.totals[TrackedCounter::VpcPcPrimitives]
                >= base.totals[TrackedCounter::VpcPcPrimitives] + 2
        );
    }

    #[test]
    fn counter_reads_are_monotonic_over_time(
        scene in arb_scene(),
        gaps in prop::collection::vec(1_000_000u64..40_000_000, 1..12),
        read_offsets in prop::collection::vec(0u64..60_000_000, 1..12),
    ) {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let mut t = SimInstant::ZERO;
        for gap in &gaps {
            gpu.submit(&scene, t);
            t += SimDuration::from_nanos(*gap);
        }
        let mut reads: Vec<u64> = read_offsets;
        reads.sort_unstable();
        let mut prev = CounterSet::ZERO;
        for off in reads {
            let snap = gpu.counters_at(SimInstant::from_nanos(off));
            for i in 0..NUM_TRACKED {
                prop_assert!(snap.as_array()[i] >= prev.as_array()[i], "counters must never decrease");
            }
            prev = snap;
        }
    }

    #[test]
    fn occlusion_counts_bounded_by_touched_cells(
        occluders in prop::collection::vec(arb_rect(), 0..6),
        probe in arb_rect(),
    ) {
        let mut grid = OcclusionGrid::new(800, 800);
        for r in &occluders {
            grid.add_opaque_rect(r);
        }
        let touched_x = ((probe.x1 - 1) / 8 - probe.x0 / 8 + 1).max(0) as u64;
        let touched_y = ((probe.y1 - 1) / 8 - probe.y0 / 8 + 1).max(0) as u64;
        prop_assert!(grid.count_occluded_touched(&probe) <= touched_x * touched_y);
    }

    #[test]
    fn occlusion_is_monotone_in_occluders(
        occluders in prop::collection::vec(arb_rect(), 1..6),
        probe in arb_rect(),
    ) {
        let mut grid = OcclusionGrid::new(800, 800);
        let mut prev = 0;
        for r in &occluders {
            grid.add_opaque_rect(r);
            let now = grid.count_occluded_touched(&probe);
            prop_assert!(now >= prev, "adding occluders can only occlude more");
            prev = now;
        }
    }

    #[test]
    fn counterset_add_sub_round_trips(
        a in prop::collection::vec(0u64..1_000_000, NUM_TRACKED),
        b in prop::collection::vec(0u64..1_000_000, NUM_TRACKED),
    ) {
        let a = CounterSet::from_array(a.try_into().unwrap());
        let b = CounterSet::from_array(b.try_into().unwrap());
        prop_assert_eq!((a + b) - b, a);
        prop_assert_eq!((a + b).checked_sub(&b), Some(a));
        // checked_sub agrees with saturating_sub when it succeeds.
        if let Some(d) = a.checked_sub(&b) {
            prop_assert_eq!(d, a.saturating_sub(&b));
        }
    }

    #[test]
    fn distance_is_a_metric_sketch(
        a in prop::collection::vec(0u64..100_000, NUM_TRACKED),
        b in prop::collection::vec(0u64..100_000, NUM_TRACKED),
    ) {
        let a = CounterSet::from_array(a.try_into().unwrap());
        let b = CounterSet::from_array(b.try_into().unwrap());
        prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9, "symmetry");
        prop_assert_eq!(a.distance(&a), 0.0);
        if a != b {
            prop_assert!(a.distance(&b) > 0.0);
        }
    }

    #[test]
    fn rect_intersection_commutes_and_shrinks(r1 in arb_rect(), r2 in arb_rect()) {
        let i1 = r1.intersect(&r2);
        let i2 = r2.intersect(&r1);
        prop_assert_eq!(i1, i2);
        prop_assert!(i1.area() <= r1.area());
        prop_assert!(i1.area() <= r2.area());
        prop_assert!(r1.union(&r2).area() >= r1.area().max(r2.area()));
    }

    #[test]
    fn mid_frame_reads_bounded_by_frame_totals(scene in arb_scene(), frac in 0u64..100) {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let f = gpu.submit(&scene, SimInstant::ZERO);
        let span = f.end.as_nanos() - f.start.as_nanos();
        let mid = SimInstant::from_nanos(f.start.as_nanos() + span * frac / 100);
        let partial = gpu.counters_at(mid);
        for i in 0..NUM_TRACKED {
            prop_assert!(partial.as_array()[i] <= f.totals.as_array()[i]);
        }
    }
}
