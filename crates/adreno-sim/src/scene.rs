//! Scenes: what a window submits to the GPU for one frame.
//!
//! Android composes screen content in layers rendered back-to-front (Fig 2 of
//! the paper). A [`DrawList`] is an ordered stack of [`Layer`]s, each holding
//! [`Primitive`]s. Opaque quads in higher layers occlude content below them —
//! the source of the GPU overdraw signal the attack measures.
//!
//! A draw list holds its layers as `Arc<Layer>`, so a window can build a
//! layer whose content never changes (a keyboard's key grid, an app's
//! chrome) once and share it across frames and sessions. Each layer keeps
//! its own summary — content fingerprint and opaque-quad fingerprint — up
//! to date as primitives are added, so keying a frame's layers costs
//! O(layers), not O(primitives). The primitives themselves are private to
//! this crate: nothing can change a layer without its summary following.

use std::sync::Arc;

use crate::geom::{Rect, Segment};
use crate::memo::{self, Fingerprint, Mixer};

/// A single drawable primitive.
#[derive(Debug, Clone, PartialEq)]
pub enum Primitive {
    /// A filled, axis-aligned rectangle. Opaque quads occlude lower layers;
    /// translucent ones do not.
    Quad { rect: Rect, opaque: bool },
    /// A character drawn with the stroke font into `dest`, with a stroke
    /// thickness in pixels. Each stroke becomes one GPU primitive.
    Glyph { ch: char, dest: Rect, thickness: i32 },
    /// A pre-resolved stroked segment in screen space (used for decorations
    /// and animations). `dest`/`grid` follow [`Segment::screen_bounds`].
    Stroke { seg: Segment, dest: Rect, thickness: i32 },
}

/// One rendering layer: a group of primitives at the same depth.
///
/// Besides its primitives, a layer carries a summary that the renderer
/// reads instead of re-walking the primitives: a fingerprint of the
/// primitive stream, a fingerprint of its non-empty opaque quads and
/// whether any opaque quad is present. The renderer keys the layer cache by
/// these. The builder methods fold each primitive into the summary as it is
/// added.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Human-readable tag, for debugging and tests ("keyboard", "popup", …).
    pub tag: &'static str,
    prims: Vec<Primitive>,
    content: Mixer,
    opaque: Mixer,
    has_opaque: bool,
}

impl Layer {
    /// Creates an empty layer with a debug tag.
    pub fn new(tag: &'static str) -> Self {
        Layer {
            tag,
            prims: Vec::new(),
            content: Mixer::new(),
            opaque: Mixer::new(),
            has_opaque: false,
        }
    }

    /// Adds a filled rectangle.
    pub fn quad(&mut self, rect: Rect, opaque: bool) -> &mut Self {
        if opaque && !rect.is_empty() {
            self.opaque.write_i32(rect.x0);
            self.opaque.write_i32(rect.y0);
            self.opaque.write_i32(rect.x1);
            self.opaque.write_i32(rect.y1);
            self.has_opaque = true;
        }
        self.push(Primitive::Quad { rect, opaque })
    }

    /// Adds a glyph.
    pub fn glyph(&mut self, ch: char, dest: Rect, thickness: i32) -> &mut Self {
        self.push(Primitive::Glyph { ch, dest, thickness })
    }

    /// Adds a raw stroke.
    pub fn stroke(&mut self, seg: Segment, dest: Rect, thickness: i32) -> &mut Self {
        self.push(Primitive::Stroke { seg, dest, thickness })
    }

    fn push(&mut self, prim: Primitive) -> &mut Self {
        memo::write_prim(&mut self.content, &prim);
        self.prims.push(prim);
        self
    }

    /// The primitives, in submission order.
    pub(crate) fn prims(&self) -> &[Primitive] {
        &self.prims
    }

    /// Fingerprint of the primitive stream (tags excluded).
    pub(crate) fn content_fp(&self) -> Fingerprint {
        self.content.finish()
    }

    /// Fingerprint of the layer's non-empty opaque quads, in order: all a
    /// lower layer's occlusion mask can learn from this layer.
    pub(crate) fn opaque_fp(&self) -> Fingerprint {
        self.opaque.finish()
    }

    /// Whether the layer holds a non-empty opaque quad (occludes anything).
    pub(crate) fn has_opaque(&self) -> bool {
        self.has_opaque
    }
}

impl Default for Layer {
    fn default() -> Self {
        Layer::new("")
    }
}

/// Layers compare by tag and primitives; the summary follows from those.
impl PartialEq for Layer {
    fn eq(&self, other: &Self) -> bool {
        self.tag == other.tag && self.prims == other.prims
    }
}

/// A complete frame submission: layers ordered back-to-front.
///
/// # Examples
///
/// ```
/// use adreno_sim::geom::Rect;
/// use adreno_sim::scene::DrawList;
///
/// let mut dl = DrawList::new(1080, 2376);
/// dl.layer("background").quad(Rect::from_xywh(0, 0, 1080, 2376), true);
/// dl.layer("popup").glyph('w', Rect::from_xywh(200, 1400, 90, 110), 8);
/// assert_eq!(dl.layers().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DrawList {
    width: i32,
    height: i32,
    layers: Vec<Arc<Layer>>,
}

impl DrawList {
    /// Creates an empty draw list for a `width`×`height` render target.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive.
    pub fn new(width: i32, height: i32) -> Self {
        assert!(width > 0 && height > 0, "render target must be non-empty");
        DrawList { width, height, layers: Vec::new() }
    }

    /// Render target width in pixels.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Render target height in pixels.
    pub fn height(&self) -> i32 {
        self.height
    }

    /// The full render target rectangle.
    pub fn viewport(&self) -> Rect {
        Rect::from_xywh(0, 0, self.width, self.height)
    }

    /// Appends a new topmost layer and returns it for population.
    pub fn layer(&mut self, tag: &'static str) -> &mut Layer {
        self.layers.push(Arc::new(Layer::new(tag)));
        Arc::get_mut(self.layers.last_mut().expect("just pushed"))
            .expect("a fresh layer is unshared")
    }

    /// Appends an already-built layer as the new topmost layer. Passing an
    /// `Arc<Layer>` shares it: a layer built once can top any number of
    /// frames, and its summary is never recomputed.
    pub fn push_layer(&mut self, layer: impl Into<Arc<Layer>>) {
        self.layers.push(layer.into());
    }

    /// The layers, back-to-front.
    pub fn layers(&self) -> &[Arc<Layer>] {
        &self.layers
    }

    /// Total number of primitives across all layers (glyphs count as one
    /// here; the pipeline expands them into per-stroke primitives).
    pub fn prim_count(&self) -> usize {
        self.layers.iter().map(|l| l.prims.len()).sum()
    }

    /// Whether the draw list contains nothing to draw.
    pub fn is_empty(&self) -> bool {
        self.layers.iter().all(|l| l.prims.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_stacks_layers_in_order() {
        let mut dl = DrawList::new(100, 100);
        dl.layer("a").quad(Rect::from_xywh(0, 0, 10, 10), true);
        dl.layer("b").glyph('x', Rect::from_xywh(0, 0, 16, 16), 2);
        assert_eq!(dl.layers()[0].tag, "a");
        assert_eq!(dl.layers()[1].tag, "b");
        assert_eq!(dl.prim_count(), 2);
        assert!(!dl.is_empty());
    }

    #[test]
    fn shared_layers_equal_fresh_ones() {
        let mut bg = Layer::new("bg");
        bg.quad(Rect::from_xywh(0, 0, 512, 512), true);
        let bg = Arc::new(bg);
        // Two lists topping one shared backdrop with different popups, each
        // against the same list built fresh layer by layer.
        for glyph in ['a', 'w'] {
            let mut shared = DrawList::new(512, 512);
            shared.push_layer(Arc::clone(&bg));
            shared.layer("popup").glyph(glyph, Rect::from_xywh(100, 100, 90, 110), 8);
            let mut fresh = DrawList::new(512, 512);
            fresh.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
            fresh.layer("popup").glyph(glyph, Rect::from_xywh(100, 100, 90, 110), 8);
            assert_eq!(shared, fresh);
        }
        assert_eq!(Arc::strong_count(&bg), 1, "the lists dropped their shares");
    }

    #[test]
    fn summary_follows_the_primitives() {
        let mut layer = Layer::new("l");
        layer.quad(Rect::from_xywh(0, 0, 10, 10), false);
        layer.quad(Rect::from_xywh(50, 50, 0, 10), true); // empty: occludes nothing
        assert!(!layer.has_opaque());
        assert_eq!(layer.opaque_fp(), Layer::new("other").opaque_fp());
        let before = layer.content_fp();
        layer.quad(Rect::from_xywh(20, 20, 10, 10), true);
        assert!(layer.has_opaque());
        assert_ne!(layer.content_fp(), before);

        // Pushing an `Arc` shares the layer, summary and all.
        let shared = Arc::new(layer);
        let mut dl = DrawList::new(100, 100);
        dl.push_layer(Arc::clone(&shared));
        dl.layer("top").glyph('x', Rect::from_xywh(0, 0, 16, 16), 2);
        assert!(Arc::ptr_eq(&dl.layers()[0], &shared));
        assert_eq!(dl.prim_count(), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_target_rejected() {
        let _ = DrawList::new(0, 10);
    }
}
