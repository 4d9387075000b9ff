//! Frame-sequence equivalence for the layer-cache render path.
//!
//! [`render`] assembles each frame from layers cached by earlier frames, so
//! its correctness is a property of *sequences*, not of single draw lists:
//! a layer-cache key that misses some occlusion only shows up when a
//! specific edit follows a specific history. These tests drive a [`Gpu`]
//! through random keyboard-like edit scripts — popup add/remove/move
//! (including positions hanging off the viewport edge), typing and deleting
//! echo glyphs, layer insert/delete, occluder resize/toggle and
//! identical-frame holds — and require every frame of [`render`] to be
//! bit-identical to [`render_uncached`], and every frame [`Gpu::submit`]
//! queues to carry its totals and cycles.

use adreno_sim::geom::Rect;
use adreno_sim::gpu::Gpu;
use adreno_sim::model::{GpuModel, ALL_MODELS};
use adreno_sim::pipeline::{render, render_uncached};
use adreno_sim::scene::DrawList;
use adreno_sim::time::SimInstant;
use proptest::prelude::*;

const W: i32 = 720;
const H: i32 = 760;

/// One step of a keyboard-like edit script.
#[derive(Debug, Clone)]
enum Edit {
    /// Show (or replace) the key popup at a position, possibly hanging off
    /// the viewport edge.
    ShowPopup {
        ch: char,
        x: i32,
        y: i32,
    },
    /// Translate the popup if one is showing.
    MovePopup {
        dx: i32,
        dy: i32,
    },
    HidePopup,
    /// Append one echo glyph to the text field.
    TypeChar(char),
    /// Remove the last echo glyph.
    Backspace,
    /// Push an extra decoration layer on top.
    PushLayer {
        rect: Rect,
        opaque: bool,
    },
    /// Remove the topmost extra layer.
    PopLayer,
    /// Show the mid-screen occluder at a new size.
    ResizeOccluder {
        w: i32,
        h: i32,
    },
    /// Toggle the occluder on/off at its last size.
    ToggleOccluder,
    /// Submit the previous frame unchanged.
    Hold,
}

fn arb_char() -> impl Strategy<Value = char> {
    prop::sample::select(adreno_sim::font::FIG18_CHARSET.chars().collect::<Vec<_>>())
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-40..W, -40..H, 1..320i32, 1..320i32).prop_map(|(x, y, w, h)| Rect::from_xywh(x, y, w, h))
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (arb_char(), -60..W, -80..H).prop_map(|(ch, x, y)| Edit::ShowPopup { ch, x, y }),
        (-90..90i32, -90..90i32).prop_map(|(dx, dy)| Edit::MovePopup { dx, dy }),
        Just(Edit::HidePopup),
        arb_char().prop_map(Edit::TypeChar),
        Just(Edit::Backspace),
        (arb_rect(), any::<bool>()).prop_map(|(rect, opaque)| Edit::PushLayer { rect, opaque }),
        Just(Edit::PopLayer),
        (1..420i32, 1..420i32).prop_map(|(w, h)| Edit::ResizeOccluder { w, h }),
        Just(Edit::ToggleOccluder),
        Just(Edit::Hold),
    ]
}

/// The mutable scene a script edits; `build` lowers it to a draw list.
#[derive(Debug, Default)]
struct SceneState {
    text: Vec<char>,
    popup: Option<(char, i32, i32)>,
    extra: Vec<(Rect, bool)>,
    occluder_size: (i32, i32),
    occluder_on: bool,
}

impl SceneState {
    fn apply(&mut self, edit: &Edit) {
        match *edit {
            Edit::ShowPopup { ch, x, y } => self.popup = Some((ch, x, y)),
            Edit::MovePopup { dx, dy } => {
                if let Some((_, x, y)) = &mut self.popup {
                    *x += dx;
                    *y += dy;
                }
            }
            Edit::HidePopup => self.popup = None,
            Edit::TypeChar(ch) => {
                if self.text.len() < 24 {
                    self.text.push(ch);
                }
            }
            Edit::Backspace => {
                self.text.pop();
            }
            Edit::PushLayer { rect, opaque } => {
                if self.extra.len() < 4 {
                    self.extra.push((rect, opaque));
                }
            }
            Edit::PopLayer => {
                self.extra.pop();
            }
            Edit::ResizeOccluder { w, h } => {
                self.occluder_size = (w, h);
                self.occluder_on = true;
            }
            Edit::ToggleOccluder => self.occluder_on = !self.occluder_on,
            Edit::Hold => {}
        }
    }

    fn build(&self) -> DrawList {
        let mut dl = DrawList::new(W, H);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, W, H), true);
        let field = dl.layer("field");
        field.quad(Rect::from_xywh(16, 16, W - 32, 48), true);
        for (i, ch) in self.text.iter().enumerate() {
            field.glyph(*ch, Rect::from_xywh(20 + 26 * i as i32, 22, 22, 34), 4);
        }
        if self.occluder_on {
            let (w, h) = self.occluder_size;
            dl.layer("occluder").quad(Rect::from_xywh(60, 340, w, h), true);
        }
        let keys = dl.layer("keys");
        for i in 0..10 {
            keys.quad(Rect::from_xywh(i * 72, H - 180, 66, 80), true);
            keys.glyph((b'a' + i as u8) as char, Rect::from_xywh(i * 72 + 12, H - 168, 42, 56), 4);
        }
        for (rect, opaque) in &self.extra {
            dl.layer("extra").quad(*rect, *opaque);
        }
        if let Some((ch, x, y)) = self.popup {
            dl.layer("popup").quad(Rect::from_xywh(x, y, 90, 110), true);
            dl.layer("popup-glyph").glyph(ch, Rect::from_xywh(x + 5, y + 5, 80, 100), 8);
        }
        dl
    }
}

fn run_script(script: &[Edit], model: GpuModel) -> Result<(), TestCaseError> {
    let params = model.params();
    let mut gpu = Gpu::new(model);
    let mut state = SceneState::default();
    let mut now = SimInstant::ZERO;
    for (frame, edit) in script.iter().enumerate() {
        state.apply(edit);
        let dl = state.build();
        let reference = render_uncached(&dl, &params);
        prop_assert_eq!(
            &render(&dl, &params),
            &reference,
            "frame {} diverged after {:?}",
            frame,
            edit
        );
        let submitted = gpu.submit(&dl, now);
        prop_assert_eq!(submitted.totals, reference.totals);
        prop_assert_eq!(submitted.cycles, reference.total_cycles);
        now = submitted.end;
    }
    prop_assert_eq!(gpu.incremental_stats().frames, script.len() as u64);
    Ok(())
}

proptest! {
    // Long scripts at few cases: reuse bugs need history to manifest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn long_edit_scripts_match_uncached(
        script in prop::collection::vec(arb_edit(), 200..240),
        model in prop::sample::select(ALL_MODELS.to_vec()),
    ) {
        run_script(&script, model)?;
    }
}

proptest! {
    // Short scripts at many cases: breadth over the first few transitions,
    // where slot alignment against an empty or tiny previous frame lives.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn short_edit_scripts_match_uncached(
        script in prop::collection::vec(arb_edit(), 1..24),
        model in prop::sample::select(ALL_MODELS.to_vec()),
    ) {
        run_script(&script, model)?;
    }
}

#[test]
fn offscreen_popup_sequence_matches_uncached() {
    // Deterministic viewport-edge regression: the popup walks off every
    // edge, including fully outside the render target.
    let params = GpuModel::Adreno650.params();
    let mut state = SceneState::default();
    let walk = [
        Edit::ShowPopup { ch: 'w', x: -50, y: -70 },
        Edit::MovePopup { dx: 60, dy: 0 },
        Edit::MovePopup { dx: 0, dy: 80 },
        Edit::ShowPopup { ch: 'w', x: W - 10, y: H - 10 },
        Edit::MovePopup { dx: 89, dy: 89 },
        Edit::HidePopup,
    ];
    for edit in &walk {
        state.apply(edit);
        let dl = state.build();
        assert_eq!(render(&dl, &params), render_uncached(&dl, &params));
    }
}
