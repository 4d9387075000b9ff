//! The render-reuse invariant, checked on a real victim: every frame a
//! session submits goes through the layer-cache render path, later frames
//! reuse layers that earlier frames computed, and the counts are not
//! vacuous — a frame on a viewport nothing else in the process draws counts
//! a dirty layer.
//!
//! The victim owns its GPU and the GPU owns its tally, so the counts read
//! here are this session's alone. Only the layer cache is process-wide, and
//! the probe frame's viewport appears in no other frame of this binary.

use adreno_sim::geom::Rect;
use adreno_sim::scene::DrawList;
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::{SimConfig, UiSimulation};
use input_bot::script::Typist;
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn a_victim_session_reuses_cached_layers_and_computes_novel_ones() {
    let mut sim = UiSimulation::new(SimConfig::paper_default(21));
    let mut rng = StdRng::seed_from_u64(21);
    let plan =
        Typist::new(VOLUNTEERS[0]).type_text("reuse42", SimInstant::from_millis(600), &mut rng);
    let end = plan.end + SimDuration::from_millis(600);
    sim.queue_all(plan.events);
    sim.advance_to(end);
    assert_eq!(sim.truth().final_text(), "reuse42");

    let typed = sim.incremental_stats();
    assert!(typed.frames > 0, "the session rendered nothing: {typed:?}");
    assert_eq!(typed.frames, sim.frames_submitted(), "every frame goes through the render path");
    assert!(typed.layers_reused > 0, "no frame reused a cached layer: {typed:?}");
    assert!(typed.identical_frames > 0, "no frame was assembled from cached layers: {typed:?}");

    let (w, h) = (977, 613);
    let mut probe = DrawList::new(w, h);
    probe.layer("probe").quad(Rect::from_xywh(0, 0, w, h), true);
    sim.gpu_mut().submit(&probe, end);
    let probed = sim.incremental_stats();
    assert_eq!(probed.frames, typed.frames + 1);
    assert_eq!(probed.layers_dirty, typed.layers_dirty + 1, "a novel layer must be computed");
    assert_eq!(probed.prims_recomputed, typed.prims_recomputed + 1);
    assert_eq!(probed.layers_reused, typed.layers_reused);
}
