//! The tile-based rendering pipeline.
//!
//! Adreno GPUs divide the render target into bins ("supertiles") and process
//! each bin with a Low-Resolution-Z (LRZ) pre-pass that discards occluded
//! work early (§2.1–2.2 of the paper). This module reproduces the counter
//! semantics of that pipeline:
//!
//! 1. **LRZ pass** — layers are considered front-to-back; opaque quads in
//!    higher layers build an occlusion mask at 8×8-pixel tile granularity.
//!    Primitives fully inside occluded tiles are killed; the rest report
//!    full/partial tile footprints and visible pixels.
//! 2. **RAS** — surviving primitives report supertile and 8×4 tile
//!    footprints plus rasterisation cycles.
//! 3. **VPC** — primitive/vertex-component accounting, including the count of
//!    primitives the LRZ unit had to re-assign.
//!
//! The renderer is *deterministic*: the same draw list always produces the
//! same counter increments. All noise in the reproduction comes from timing
//! (sampling alignment) and the UI layer, never from the pipeline itself.

use std::sync::Arc;

use crate::counters::{CounterSet, TrackedCounter};
use crate::font::{self, FALLBACK};
use crate::geom::{Rect, Segment};
use crate::incremental::IncrementalStats;
use crate::memo;
use crate::model::GpuParams;
use crate::scene::{DrawList, Layer, Primitive};

/// Side of an LRZ tile in pixels (8×8).
pub const LRZ_TILE: i32 = 8;
/// RAS fine tile width in pixels (8×4 tiles).
pub const RAS_TILE_W: i32 = 8;
/// RAS fine tile height in pixels.
pub const RAS_TILE_H: i32 = 4;

/// Number of timeline checkpoints recorded per frame. A mid-frame counter
/// read lands between checkpoints and observes a partial ("split") delta.
pub const CHECKPOINTS_PER_FRAME: usize = 8;

/// Occlusion mask at LRZ-tile granularity. A set bit means the tile is fully
/// covered by opaque content in a *higher* layer.
#[derive(Debug, Clone)]
pub struct OcclusionGrid {
    cells_x: i32,
    cells_y: i32,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl OcclusionGrid {
    /// Creates an all-clear grid for a `width`×`height` pixel viewport.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive.
    pub fn new(width: i32, height: i32) -> Self {
        assert!(width > 0 && height > 0, "viewport must be non-empty");
        let cells_x = (width + LRZ_TILE - 1) / LRZ_TILE;
        let cells_y = (height + LRZ_TILE - 1) / LRZ_TILE;
        let words_per_row = (cells_x as usize).div_ceil(64);
        OcclusionGrid {
            cells_x,
            cells_y,
            words_per_row,
            bits: vec![0; words_per_row * cells_y as usize],
        }
    }

    /// Grid width in cells.
    pub fn cells_x(&self) -> i32 {
        self.cells_x
    }

    /// Grid height in cells.
    pub fn cells_y(&self) -> i32 {
        self.cells_y
    }

    /// Marks every cell *fully covered* by `rect` as occluded.
    pub fn add_opaque_rect(&mut self, rect: &Rect) {
        if rect.is_empty() {
            return;
        }
        // Cells fully inside the rect: first cell whose origin >= x0 and
        // whose end <= x1.
        let cx0 = (rect.x0 + LRZ_TILE - 1) / LRZ_TILE;
        let cx1 = rect.x1 / LRZ_TILE; // exclusive
        let cy0 = (rect.y0 + LRZ_TILE - 1) / LRZ_TILE;
        let cy1 = rect.y1 / LRZ_TILE; // exclusive
        let cx0 = cx0.max(0);
        let cx1 = cx1.min(self.cells_x);
        let cy0 = cy0.max(0);
        let cy1 = cy1.min(self.cells_y);
        if cx0 >= cx1 || cy0 >= cy1 {
            return;
        }
        for cy in cy0..cy1 {
            self.set_row_range(cy, cx0, cx1);
        }
    }

    fn set_row_range(&mut self, cy: i32, cx0: i32, cx1: i32) {
        let row = cy as usize * self.words_per_row;
        let (w0, b0) = ((cx0 as usize) / 64, (cx0 as usize) % 64);
        let (w1, b1) = ((cx1 as usize) / 64, (cx1 as usize) % 64);
        if w0 == w1 {
            // Caller guarantees cx0 < cx1, so b1 > 0 here.
            let mask = (u64::MAX << b0) & !(u64::MAX << b1);
            self.bits[row + w0] |= mask;
            return;
        }
        self.bits[row + w0] |= u64::MAX << b0;
        for w in (w0 + 1)..w1 {
            self.bits[row + w] = u64::MAX;
        }
        if b1 > 0 {
            self.bits[row + w1] |= !(u64::MAX << b1);
        }
    }

    /// Whether the cell at `(cx, cy)` is occluded. Out-of-range cells read
    /// as not occluded.
    pub fn is_occluded(&self, cx: i32, cy: i32) -> bool {
        if cx < 0 || cy < 0 || cx >= self.cells_x || cy >= self.cells_y {
            return false;
        }
        let row = cy as usize * self.words_per_row;
        let w = (cx as usize) / 64;
        let b = (cx as usize) % 64;
        self.bits[row + w] & (1u64 << b) != 0
    }

    /// Counts occluded cells among the cells *touched* by `rect`.
    pub fn count_occluded_touched(&self, rect: &Rect) -> u64 {
        if rect.is_empty() {
            return 0;
        }
        let cx0 = (rect.x0 / LRZ_TILE).max(0);
        let cx1 = (((rect.x1 - 1) / LRZ_TILE) + 1).min(self.cells_x); // exclusive
        let cy0 = (rect.y0 / LRZ_TILE).max(0);
        let cy1 = (((rect.y1 - 1) / LRZ_TILE) + 1).min(self.cells_y);
        if cx0 >= cx1 || cy0 >= cy1 {
            return 0;
        }
        let mut count = 0u64;
        for cy in cy0..cy1 {
            count += self.count_row_range(cy, cx0, cx1);
        }
        count
    }

    fn count_row_range(&self, cy: i32, cx0: i32, cx1: i32) -> u64 {
        let row = cy as usize * self.words_per_row;
        let (w0, b0) = ((cx0 as usize) / 64, (cx0 as usize) % 64);
        let (w1, b1) = ((cx1 as usize) / 64, (cx1 as usize) % 64);
        if w0 == w1 {
            let mask = if b1 == 0 { 0 } else { (u64::MAX << b0) & !(u64::MAX << b1) };
            return (self.bits[row + w0] & mask).count_ones() as u64;
        }
        let mut n = (self.bits[row + w0] & (u64::MAX << b0)).count_ones() as u64;
        for w in (w0 + 1)..w1 {
            n += self.bits[row + w].count_ones() as u64;
        }
        if b1 > 0 {
            n += (self.bits[row + w1] & !(u64::MAX << b1)).count_ones() as u64;
        }
        n
    }
}

/// Counts of `(touched, fully_covered)` tiles of size `tw`×`th` for a rect.
fn rect_tile_counts(rect: &Rect, tw: i32, th: i32) -> (u64, u64) {
    if rect.is_empty() {
        return (0, 0);
    }
    let tx = ((rect.x1 - 1) / tw - rect.x0 / tw + 1) as u64;
    let ty = ((rect.y1 - 1) / th - rect.y0 / th + 1) as u64;
    let full_x = (rect.x1 / tw - (rect.x0 + tw - 1) / tw).max(0) as u64;
    let full_y = (rect.y1 / th - (rect.y0 + th - 1) / th).max(0) as u64;
    (tx * ty, full_x * full_y)
}

/// Per-primitive pipeline result, before aggregation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PrimStats {
    /// Primitives submitted to the primitive controller.
    submitted: u64,
    /// Primitives surviving the LRZ kill.
    visible: u64,
    /// Whether the LRZ unit touched (re-assigned or killed) the primitive.
    lrz_assigned: bool,
    full_8x8: u64,
    partial_8x8: u64,
    visible_pixels: u64,
    supertiles: u64,
    ras_8x4: u64,
    ras_full_8x4: u64,
    components: u64,
    cycles: u64,
}

/// Reusable scratch for the stroke walk: a row-bitmask set over the cells of
/// one stroke's bounding box. Long strokes (the PNC login animation spans
/// hundreds of 8×4 RAS cells) made the old `Vec::contains` dedup O(n²) in
/// touched cells; the bitmask is O(1) per stamp and, being thread-local and
/// high-water-marked, allocates nothing in steady state.
#[derive(Default)]
struct StrokeScratch {
    words: Vec<u64>,
}

thread_local! {
    static STROKE_SCRATCH: std::cell::RefCell<StrokeScratch> =
        std::cell::RefCell::new(StrokeScratch::default());
}

/// Walks a stroked segment and reports `(touched, full)` cells for an
/// arbitrary tile grid, plus how many of the touched cells are occluded in
/// `grid` when the tile grid is the LRZ grid.
fn stroke_tiles(
    seg: &Segment,
    dest: &Rect,
    thickness: i32,
    tw: i32,
    th: i32,
    occlusion: Option<&OcclusionGrid>,
) -> (u64, u64, u64) {
    let sx = dest.width() as f32 / font::GRID;
    let sy = dest.height() as f32 / font::GRID;
    let x0 = dest.x0 as f32 + seg.x0 * sx;
    let y0 = dest.y0 as f32 + seg.y0 * sy;
    let x1 = dest.x0 as f32 + seg.x1 * sx;
    let y1 = dest.y0 as f32 + seg.y1 * sy;
    let len = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
    let half = (thickness.max(1) as f32) / 2.0;

    // Cell-space bounding box of every stamp square. The interpolated point
    // stays within the endpoint interval up to float rounding; truncation and
    // `div_euclid` are monotone, so endpoint-derived bounds padded by one
    // cell cover every step the walk can visit.
    let bx_min = ((x0.min(x1) - half) as i32).div_euclid(tw) - 1;
    let bx_max = ((x0.max(x1) + half) as i32).div_euclid(tw) + 1;
    let by_min = ((y0.min(y1) - half) as i32).div_euclid(th) - 1;
    let by_max = ((y0.max(y1) + half) as i32).div_euclid(th) + 1;
    let cols = (bx_max - bx_min + 1) as usize;
    let rows = (by_max - by_min + 1) as usize;
    let wpr = cols.div_ceil(64);
    let words_needed = wpr * rows;

    STROKE_SCRATCH.with(|scratch| {
        let words = &mut scratch.borrow_mut().words;
        if words.len() < words_needed {
            words.resize(words_needed, 0);
        }
        words[..words_needed].fill(0);

        let mut touched = 0u64;
        let mut full = 0u64;
        let mut occluded = 0u64;
        let steps = (len / (tw.min(th) as f32 / 2.0)).ceil().max(1.0) as i32;
        for i in 0..=steps {
            let t = i as f32 / steps as f32;
            let px = x0 + (x1 - x0) * t;
            let py = y0 + (y1 - y0) * t;
            let bx0 = ((px - half) as i32).div_euclid(tw);
            let bx1 = ((px + half) as i32).div_euclid(tw);
            let by0 = ((py - half) as i32).div_euclid(th);
            let by1 = ((py + half) as i32).div_euclid(th);
            debug_assert!(bx0 >= bx_min && bx1 <= bx_max && by0 >= by_min && by1 <= by_max);
            for cy in by0..=by1 {
                let row = (cy - by_min) as usize * wpr;
                for cx in bx0..=bx1 {
                    let col = (cx - bx_min) as usize;
                    let word = row + col / 64;
                    let bit = 1u64 << (col % 64);
                    if words[word] & bit == 0 {
                        words[word] |= bit;
                        touched += 1;
                        // A cell is "full" if the stamp square covers it
                        // fully — judged at first touch, like the old walk.
                        let covers = (px - half) <= (cx * tw) as f32
                            && (px + half) >= ((cx + 1) * tw) as f32
                            && (py - half) <= (cy * th) as f32
                            && (py + half) >= ((cy + 1) * th) as f32;
                        if covers {
                            full += 1;
                        }
                        if let Some(g) = occlusion {
                            if g.is_occluded(cx, cy) {
                                occluded += 1;
                            }
                        }
                    }
                }
            }
        }
        (touched, full, occluded)
    })
}

fn process_quad(rect: &Rect, opaque: bool, occ: &OcclusionGrid, params: &GpuParams) -> PrimStats {
    let _ = opaque; // opacity affects the mask built by the caller, not stats
    let mut s = PrimStats { submitted: 2, components: 32, ..PrimStats::default() };
    if rect.is_empty() {
        // Degenerate quads are still submitted and culled, costing setup.
        s.cycles = params.prim_setup_cycles as u64;
        return s;
    }
    let (touched, full) = rect_tile_counts(rect, LRZ_TILE, LRZ_TILE);
    let occluded = occ.count_occluded_touched(rect);
    if touched > 0 && occluded >= touched {
        // Fully occluded: killed by LRZ.
        s.lrz_assigned = true;
        s.cycles = params.prim_setup_cycles as u64;
        return s;
    }
    let vis_ratio = if touched == 0 { 1.0 } else { (touched - occluded) as f64 / touched as f64 };
    let scale = |v: u64| -> u64 { (v as f64 * vis_ratio).round() as u64 };
    s.visible = 2;
    s.lrz_assigned = occluded > 0;
    s.full_8x8 = scale(full);
    s.partial_8x8 = scale(touched - full);
    s.visible_pixels = scale(rect.area() as u64);
    let (st, _) = rect_tile_counts(rect, params.supertile_w, params.supertile_h);
    let (t84, f84) = rect_tile_counts(rect, RAS_TILE_W, RAS_TILE_H);
    s.supertiles = scale(st).max(1);
    s.ras_8x4 = scale(t84);
    s.ras_full_8x4 = scale(f84);
    s.cycles = params.prim_setup_cycles as u64
        + s.visible_pixels / params.pixels_per_cycle as u64
        + s.ras_8x4 * 2;
    s
}

fn process_stroke(
    seg: &Segment,
    dest: &Rect,
    thickness: i32,
    occ: &OcclusionGrid,
    params: &GpuParams,
) -> PrimStats {
    let mut s = PrimStats { submitted: 1, components: 24, ..PrimStats::default() };
    let (touched, full, occluded) =
        stroke_tiles(seg, dest, thickness, LRZ_TILE, LRZ_TILE, Some(occ));
    if touched > 0 && occluded >= touched {
        s.lrz_assigned = true;
        s.cycles = params.prim_setup_cycles as u64;
        return s;
    }
    let vis_ratio = if touched == 0 { 1.0 } else { (touched - occluded) as f64 / touched as f64 };
    let scale = |v: u64| -> u64 { (v as f64 * vis_ratio).round() as u64 };
    s.visible = 1;
    s.lrz_assigned = occluded > 0;
    s.full_8x8 = scale(full);
    s.partial_8x8 = scale(touched - full);
    s.visible_pixels = scale(seg.screen_coverage(dest, font::GRID, thickness) as u64);
    let (t84, f84, _) = stroke_tiles(seg, dest, thickness, RAS_TILE_W, RAS_TILE_H, None);
    let (st, _, _) =
        stroke_tiles(seg, dest, thickness, params.supertile_w, params.supertile_h, None);
    s.supertiles = scale(st).max(1);
    s.ras_8x4 = scale(t84);
    s.ras_full_8x4 = scale(f84);
    s.cycles = params.prim_setup_cycles as u64
        + s.visible_pixels / params.pixels_per_cycle as u64
        + s.ras_8x4 * 2;
    s
}

/// Expands a glyph into its per-stroke pipeline stats, uncached.
fn glyph_stats(
    ch: char,
    dest: &Rect,
    thickness: i32,
    occ: &OcclusionGrid,
    params: &GpuParams,
) -> Vec<PrimStats> {
    let strokes = font::glyph_strokes(ch).unwrap_or(FALLBACK);
    strokes.iter().map(|seg| process_stroke(seg, dest, thickness, occ, params)).collect()
}

/// [`glyph_stats`] through the process-global glyph cache. The key captures
/// everything the stroke walk reads: the glyph identity and placement, the
/// GPU parameters, and the occlusion bits inside the glyph's padded bounding
/// region (strokes never query cells outside their
/// [`Segment::screen_bounds`]).
///
/// The key computation itself is cache-hit-cheap: the glyph's screen bounds
/// come from the once-per-process design-grid bounding-box table
/// ([`font::glyph_screen_bounds`]) instead of a per-call fold over every
/// stroke's `screen_bounds`, and the stroke table lookup is deferred to a
/// miss.
fn glyph_stats_cached(
    ch: char,
    dest: &Rect,
    thickness: i32,
    occ: &OcclusionGrid,
    params: &GpuParams,
) -> Arc<[PrimStats]> {
    let bounds = font::glyph_screen_bounds(ch, dest, thickness);
    let mut m = memo::Mixer::new();
    m.write(ch as u64);
    m.write_i32(dest.x0);
    m.write_i32(dest.y0);
    m.write_i32(dest.x1);
    m.write_i32(dest.y1);
    m.write_i32(thickness);
    memo::write_params(&mut m, params);
    m.write_fp(memo::glyph_occlusion_fingerprint(&bounds, occ));
    let key = m.finish();
    let cache = memo::glyph_cache();
    if let Some(hit) = cache.lock().get(&key).cloned() {
        spansight::count("adreno.memo.glyph_hits", 1);
        return hit;
    }
    spansight::count("adreno.memo.glyph_misses", 1);
    let stats: Arc<[PrimStats]> = glyph_stats(ch, dest, thickness, occ, params).into();
    cache.insert_all([(key, Arc::clone(&stats))]);
    stats
}

/// Running `(cycles, counters)` sums over one layer's per-primitive results
/// in submission order: entry `k` sums the first `k + 1` results (a glyph
/// contributes one result per stroke).
type LayerSums = Arc<[(u64, CounterSet)]>;

/// The sums of `layer` against `mask`, the occlusion cast by the layers
/// above it.
fn layer_sums(layer: &Layer, mask: &OcclusionGrid, params: &GpuParams) -> LayerSums {
    let mut sums = Vec::with_capacity(layer.prims().len() * 2);
    let (mut cycles, mut counters) = (0u64, CounterSet::ZERO);
    let mut push = |s: PrimStats| {
        cycles += s.cycles;
        counters += s.to_counters();
        sums.push((cycles, counters));
    };
    for prim in layer.prims() {
        match prim {
            Primitive::Quad { rect, opaque } => push(process_quad(rect, *opaque, mask, params)),
            Primitive::Glyph { ch, dest, thickness } => {
                for s in glyph_stats_cached(*ch, dest, *thickness, mask, params).iter() {
                    push(*s);
                }
            }
            Primitive::Stroke { seg, dest, thickness } => {
                push(process_stroke(seg, dest, *thickness, mask, params))
            }
        }
    }
    sums.into()
}

/// Layer-cache keys of every layer of `draw_list`, back to front, into
/// `keys`. A layer's key folds its content fingerprint with its
/// occlusion-above fingerprint: the GPU parameters, the viewport, and the
/// opaque-quad fingerprints of the occluding layers above it. Equal
/// occlusion-above fingerprints mean equal opaque-rect streams above, hence
/// equal masks, so equal keys mean equal sums. O(layers): each layer carries
/// its fingerprints.
fn layer_keys(draw_list: &DrawList, params: &GpuParams, keys: &mut Vec<memo::Fingerprint>) {
    let layers = draw_list.layers();
    let mut above = memo::Mixer::new();
    memo::write_params(&mut above, params);
    above.write_i32(draw_list.width());
    above.write_i32(draw_list.height());
    keys.clear();
    for layer in layers.iter().rev() {
        let mut m = memo::Mixer::new();
        m.write_fp(layer.content_fp());
        m.write_fp(above.finish());
        keys.push(m.finish());
        if layer.has_opaque() {
            above.write_fp(layer.opaque_fp());
        }
    }
    keys.reverse();
}

/// Computes the layers missing from `sums` top-down, against one occlusion
/// grid that accumulates the opaque quads of each layer passed, and stores
/// them in the layer cache. Returns the number of per-primitive results
/// computed.
fn compute_missing_layers(
    draw_list: &DrawList,
    params: &GpuParams,
    keys: &[memo::Fingerprint],
    sums: &mut [Option<LayerSums>],
) -> u64 {
    let _span = spansight::span("adreno", "render.layers");
    let lowest = sums.iter().position(Option::is_none).expect("a layer is missing");
    let layers = draw_list.layers();
    let mut grid = OcclusionGrid::new(draw_list.width(), draw_list.height());
    let mut fresh = Vec::new();
    let mut prims = 0u64;
    for i in (lowest..layers.len()).rev() {
        if sums[i].is_none() {
            let computed = layer_sums(&layers[i], &grid, params);
            prims += computed.len() as u64;
            sums[i] = Some(Arc::clone(&computed));
            fresh.push((keys[i], computed));
        }
        if i > lowest && layers[i].has_opaque() {
            for prim in layers[i].prims() {
                if let Primitive::Quad { rect, opaque: true } = prim {
                    grid.add_opaque_rect(rect);
                }
            }
        }
    }
    spansight::count("adreno.render.layers", fresh.len() as u64);
    spansight::count("adreno.render.prims", prims);
    memo::layer_cache().insert_all(fresh);
    prims
}

/// Assembles a frame from its layers' running sums, back to front: the
/// totals, cycles and [`CHECKPOINTS_PER_FRAME`] checkpoints
/// [`fold_prim_stream`] derives from the frame's whole per-primitive
/// stream, in O(layers + checkpoints). A checkpoint is the sum of every
/// layer below plus one running sum.
fn assemble<'a>(layers: impl Iterator<Item = &'a [(u64, CounterSet)]> + Clone) -> RenderOutput {
    let total: usize = layers.clone().map(<[_]>::len).sum();
    let (mut cycles, mut totals) = (0u64, CounterSet::ZERO);
    if total == 0 {
        return RenderOutput { totals, total_cycles: cycles, checkpoints: Vec::new() };
    }
    let chunk = total.div_ceil(CHECKPOINTS_PER_FRAME);
    let mut checkpoints = Vec::with_capacity(total.div_ceil(chunk));
    // `next` is the frame-wide index of the next checkpointed result: every
    // `chunk`-th one, and the last.
    let (mut next, mut start) = (chunk - 1, 0);
    for sums in layers {
        while next < start + sums.len() {
            let (c, set) = sums[next - start];
            checkpoints.push((cycles + c, totals + set));
            next = if next + 1 == total { usize::MAX } else { (next + chunk).min(total - 1) };
        }
        if let Some(&(c, set)) = sums.last() {
            cycles += c;
            totals += set;
        }
        start += sums.len();
    }
    RenderOutput { totals, total_cycles: cycles, checkpoints }
}

/// Folds an ordered per-prim stats stream into a [`RenderOutput`]: totals,
/// cycles, and the [`CHECKPOINTS_PER_FRAME`] cumulative checkpoints.
fn fold_prim_stream(prims: &[PrimStats]) -> RenderOutput {
    let mut checkpoints = Vec::with_capacity(CHECKPOINTS_PER_FRAME);
    let mut cum = CounterSet::ZERO;
    let mut cyc = 0u64;
    if !prims.is_empty() {
        let chunk = prims.len().div_ceil(CHECKPOINTS_PER_FRAME);
        for (i, s) in prims.iter().enumerate() {
            cum += s.to_counters();
            cyc += s.cycles;
            if (i + 1) % chunk == 0 || i + 1 == prims.len() {
                checkpoints.push((cyc, cum));
            }
        }
    }
    RenderOutput { totals: cum, total_cycles: cyc, checkpoints }
}

impl PrimStats {
    fn to_counters(self) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::LrzVisiblePrimAfterLrz] = self.visible;
        c[TrackedCounter::LrzFull8x8Tiles] = self.full_8x8;
        c[TrackedCounter::LrzPartial8x8Tiles] = self.partial_8x8;
        c[TrackedCounter::LrzVisiblePixelAfterLrz] = self.visible_pixels / 16;
        c[TrackedCounter::RasSupertileActiveCycles] =
            self.supertiles * 16 + self.ras_8x4 * 2 + self.visible_pixels / 64;
        c[TrackedCounter::RasSuperTiles] = self.supertiles;
        c[TrackedCounter::Ras8x4Tiles] = self.ras_8x4;
        c[TrackedCounter::RasFullyCovered8x4Tiles] = self.ras_full_8x4;
        c[TrackedCounter::VpcPcPrimitives] = self.submitted;
        c[TrackedCounter::VpcSpComponents] = if self.visible > 0 { self.components } else { 0 };
        c[TrackedCounter::VpcLrzAssignPrimitives] =
            if self.lrz_assigned { self.submitted } else { 0 };
        c
    }
}

/// The result of rendering one draw list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderOutput {
    /// Total counter increments contributed by the frame.
    pub totals: CounterSet,
    /// Total GPU cycles consumed by the frame.
    pub total_cycles: u64,
    /// Cumulative `(cycles_done, counters_so_far)` checkpoints in execution
    /// (back-to-front) order, ending at `(total_cycles, totals)`. A read that
    /// lands mid-frame observes the last checkpoint at or before its time.
    pub checkpoints: Vec<(u64, CounterSet)>,
}

/// Renders `draw_list` on a GPU with parameters `params`, producing counter
/// increments and a cycle-accurate-ish checkpoint timeline.
///
/// Layers occlude strictly lower layers via their opaque quads, at LRZ-tile
/// granularity. Primitives execute in submission (back-to-front) order.
///
/// This is the one render path. Each layer's share of the frame is a pure
/// function of its content and of the occlusion the layers above cast, so
/// the frame is assembled from the process-wide layer cache
/// ([`crate::memo`]): every layer is looked up under one lock, only the
/// missing layers are computed, and a frame whose layers are all cached
/// costs O(layers + checkpoints) and one allocation, its checkpoint vector.
/// The output equals [`render_uncached`]'s.
///
/// # Examples
///
/// ```
/// use adreno_sim::geom::Rect;
/// use adreno_sim::model::GpuModel;
/// use adreno_sim::pipeline::render;
/// use adreno_sim::scene::DrawList;
///
/// let mut dl = DrawList::new(256, 256);
/// dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
/// let out = render(&dl, &GpuModel::Adreno650.params());
/// assert!(out.totals.total() > 0);
/// ```
pub fn render(draw_list: &DrawList, params: &GpuParams) -> RenderOutput {
    render_counted(draw_list, params, &mut IncrementalStats::default())
}

thread_local! {
    /// [`render_counted`]'s layer keys, high-water-marked so a frame whose
    /// layers are all cached allocates nothing here.
    static LAYER_KEYS: std::cell::RefCell<Vec<memo::Fingerprint>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// [`render`], tallying the frame and its layers into `stats`. A frame
/// whose layers are all cached is assembled under the cache's lock, from
/// the cached sums themselves.
pub(crate) fn render_counted(
    draw_list: &DrawList,
    params: &GpuParams,
    stats: &mut IncrementalStats,
) -> RenderOutput {
    LAYER_KEYS.with(|keys| {
        let keys = &mut *keys.borrow_mut();
        layer_keys(draw_list, params, keys);
        stats.frames += 1;
        let mut sums: Vec<Option<LayerSums>> = {
            let cache = memo::layer_cache().lock();
            if keys.iter().all(|k| cache.contains_key(k)) {
                stats.identical_frames += 1;
                stats.layers_reused += keys.len() as u64;
                return assemble(keys.iter().map(|k| &*cache[k]));
            }
            keys.iter().map(|k| cache.get(k).cloned()).collect()
        };
        let missing = sums.iter().filter(|s| s.is_none()).count() as u64;
        stats.layers_reused += keys.len() as u64 - missing;
        stats.layers_dirty += missing;
        stats.prims_recomputed += compute_missing_layers(draw_list, params, keys, &mut sums);
        assemble(sums.iter().map(|s| &**s.as_ref().expect("every missing layer was computed")))
    })
}

/// [`render`] without any cache: every layer's mask and every primitive,
/// glyph strokes included, is computed from scratch and the whole
/// per-primitive stream is folded in one pass. The reference that tests and
/// benchmarks compare [`render`] against.
pub fn render_uncached(draw_list: &DrawList, params: &GpuParams) -> RenderOutput {
    let layers = draw_list.layers();

    // Pass 1 (front-to-back): per-layer occlusion masks from higher layers.
    // `masks[i]` is the occlusion seen by layer i. Snapshots are shared:
    // a layer adding no opaque occlusion reuses the previous snapshot `Arc`
    // untouched, and the bottom layer takes the accumulator by move, so a
    // full grid clone happens only per *occluding* interior layer.
    let masks: Vec<Arc<OcclusionGrid>> = {
        let mut acc = Some(OcclusionGrid::new(draw_list.width(), draw_list.height()));
        // `snap`, when set, is an Arc whose contents equal `acc`.
        let mut snap: Option<Arc<OcclusionGrid>> = None;
        let mut rev: Vec<Arc<OcclusionGrid>> = Vec::with_capacity(layers.len());
        for (k, layer) in layers.iter().rev().enumerate() {
            let is_bottom = k + 1 == layers.len();
            let cur: Arc<OcclusionGrid> = match snap.take() {
                Some(s) => s,
                None if is_bottom => Arc::new(acc.take().expect("acc taken only at bottom")),
                None => Arc::new(acc.as_ref().expect("acc alive above bottom").clone()),
            };
            rev.push(Arc::clone(&cur));
            if is_bottom {
                break; // nothing below observes further occlusion
            }
            let grid = acc.as_mut().expect("acc alive above bottom");
            let mut changed = false;
            for prim in layer.prims() {
                if let Primitive::Quad { rect, opaque: true } = prim {
                    if !rect.is_empty() {
                        grid.add_opaque_rect(rect);
                        changed = true;
                    }
                }
            }
            if !changed {
                snap = Some(cur);
            }
        }
        rev.reverse();
        rev
    };

    // Pass 2 (back-to-front): process primitives against their layer's mask.
    let mut per_prim: Vec<PrimStats> = Vec::with_capacity(draw_list.prim_count() * 2);
    for (layer, mask) in layers.iter().zip(masks.iter()) {
        for prim in layer.prims() {
            match prim {
                Primitive::Quad { rect, opaque } => {
                    per_prim.push(process_quad(rect, *opaque, mask, params));
                }
                Primitive::Glyph { ch, dest, thickness } => {
                    per_prim.extend(glyph_stats(*ch, dest, *thickness, mask, params));
                }
                Primitive::Stroke { seg, dest, thickness } => {
                    per_prim.push(process_stroke(seg, dest, *thickness, mask, params));
                }
            }
        }
    }
    fold_prim_stream(&per_prim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GpuModel;

    fn params() -> GpuParams {
        GpuModel::Adreno650.params()
    }

    #[test]
    fn occlusion_grid_marks_and_counts() {
        let mut g = OcclusionGrid::new(256, 256);
        g.add_opaque_rect(&Rect::from_xywh(0, 0, 64, 64)); // 8x8 cells
        assert!(g.is_occluded(0, 0));
        assert!(g.is_occluded(7, 7));
        assert!(!g.is_occluded(8, 0));
        assert_eq!(g.count_occluded_touched(&Rect::from_xywh(0, 0, 64, 64)), 64);
        assert_eq!(g.count_occluded_touched(&Rect::from_xywh(64, 64, 64, 64)), 0);
        // Rect straddling the boundary touches 16x8 cells, half occluded.
        assert_eq!(g.count_occluded_touched(&Rect::from_xywh(0, 0, 128, 64)), 64);
    }

    #[test]
    fn occlusion_partial_cells_not_marked() {
        let mut g = OcclusionGrid::new(256, 256);
        // A rect not aligned to tiles only fully covers the interior cells.
        g.add_opaque_rect(&Rect::from_xywh(4, 4, 16, 16)); // covers cells [1,1] fully? 4..20 → cell 1 spans 8..16: yes
        assert!(g.is_occluded(1, 1));
        assert!(!g.is_occluded(0, 0));
        assert!(!g.is_occluded(2, 2));
    }

    #[test]
    fn rect_tile_counts_basic() {
        let (t, f) = rect_tile_counts(&Rect::from_xywh(0, 0, 16, 16), 8, 8);
        assert_eq!((t, f), (4, 4));
        let (t, f) = rect_tile_counts(&Rect::from_xywh(4, 4, 16, 16), 8, 8);
        assert_eq!(t, 9);
        assert_eq!(f, 1);
        let (t, f) = rect_tile_counts(&Rect::from_xywh(0, 0, 4, 4), 8, 8);
        assert_eq!((t, f), (1, 0));
    }

    #[test]
    fn fullscreen_quad_counts_everything() {
        let mut dl = DrawList::new(256, 256);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
        let out = render(&dl, &params());
        assert_eq!(out.totals[TrackedCounter::LrzVisiblePrimAfterLrz], 2);
        assert_eq!(out.totals[TrackedCounter::LrzFull8x8Tiles], 32 * 32);
        assert_eq!(out.totals[TrackedCounter::LrzPartial8x8Tiles], 0);
        assert_eq!(out.totals[TrackedCounter::VpcPcPrimitives], 2);
        assert_eq!(out.totals[TrackedCounter::VpcLrzAssignPrimitives], 0);
        assert!(out.total_cycles > 0);
    }

    #[test]
    fn occluded_quad_is_killed() {
        let mut dl = DrawList::new(256, 256);
        dl.layer("below").quad(Rect::from_xywh(64, 64, 64, 64), false);
        dl.layer("above").quad(Rect::from_xywh(0, 0, 256, 256), true);
        let out = render(&dl, &params());
        // The lower quad is fully occluded: only the top quad is visible.
        assert_eq!(out.totals[TrackedCounter::LrzVisiblePrimAfterLrz], 2);
        // Both quads were submitted.
        assert_eq!(out.totals[TrackedCounter::VpcPcPrimitives], 4);
        // The killed quad counts as LRZ-assigned.
        assert_eq!(out.totals[TrackedCounter::VpcLrzAssignPrimitives], 2);
    }

    #[test]
    fn occlusion_is_strictly_from_higher_layers() {
        // An opaque quad must not occlude content in its own or higher layers.
        let mut dl = DrawList::new(256, 256);
        let mut layer = crate::scene::Layer::new("both");
        layer.quad(Rect::from_xywh(0, 0, 256, 256), true);
        layer.quad(Rect::from_xywh(0, 0, 64, 64), false);
        dl.push_layer(layer);
        let out = render(&dl, &params());
        assert_eq!(out.totals[TrackedCounter::LrzVisiblePrimAfterLrz], 4);
    }

    #[test]
    fn overdraw_increases_counters() {
        let mut base = DrawList::new(512, 512);
        base.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
        let a = render(&base, &params());

        let mut over = DrawList::new(512, 512);
        over.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
        over.layer("popup").quad(Rect::from_xywh(100, 100, 90, 110), true);
        let b = render(&over, &params());

        assert!(b.totals[TrackedCounter::Ras8x4Tiles] > a.totals[TrackedCounter::Ras8x4Tiles]);
        assert!(
            b.totals[TrackedCounter::VpcPcPrimitives] > a.totals[TrackedCounter::VpcPcPrimitives]
        );
        // The popup occludes part of the background → LRZ assignment changes.
        assert!(b.totals[TrackedCounter::VpcLrzAssignPrimitives] > 0);
    }

    #[test]
    fn different_glyphs_produce_different_counters() {
        let render_key = |ch: char| {
            let mut dl = DrawList::new(512, 512);
            dl.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
            dl.layer("popup").glyph(ch, Rect::from_xywh(100, 100, 90, 110), 8);
            render(&dl, &params()).totals
        };
        let w = render_key('w');
        let n = render_key('n');
        let l = render_key('l');
        assert_ne!(w, n, "'w' and 'n' must be distinguishable");
        assert!(
            w[TrackedCounter::VpcPcPrimitives] > l[TrackedCounter::VpcPcPrimitives],
            "'w' has more strokes than 'l'"
        );
    }

    #[test]
    fn render_is_deterministic() {
        let mut dl = DrawList::new(512, 512);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
        dl.layer("popup").glyph('q', Rect::from_xywh(37, 410, 90, 110), 8);
        let a = render(&dl, &params());
        let b = render(&dl, &params());
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoints_are_monotonic_and_end_at_totals() {
        let mut dl = DrawList::new(512, 512);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
        for i in 0..10 {
            dl.layer("keys").quad(Rect::from_xywh(i * 40, 300, 36, 48), true);
        }
        let out = render(&dl, &params());
        assert!(!out.checkpoints.is_empty());
        assert!(out.checkpoints.len() <= CHECKPOINTS_PER_FRAME + 1);
        let mut prev = 0u64;
        for (cyc, _) in &out.checkpoints {
            assert!(*cyc >= prev);
            prev = *cyc;
        }
        let (last_cyc, last_set) = out.checkpoints.last().unwrap();
        assert_eq!(*last_cyc, out.total_cycles);
        assert_eq!(*last_set, out.totals);
    }

    #[test]
    fn different_supertile_geometry_changes_ras_counters() {
        let mut dl = DrawList::new(1024, 1024);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 1024, 1024), true);
        let a = render(&dl, &GpuModel::Adreno540.params());
        let b = render(&dl, &GpuModel::Adreno660.params());
        assert_ne!(
            a.totals[TrackedCounter::RasSuperTiles],
            b.totals[TrackedCounter::RasSuperTiles]
        );
    }

    #[test]
    fn empty_draw_list_renders_to_zero() {
        let dl = DrawList::new(64, 64);
        let out = render(&dl, &params());
        assert!(out.totals.is_zero());
        assert_eq!(out.total_cycles, 0);
        assert!(out.checkpoints.is_empty());
    }

    /// A keyboard-like frame: backdrop, key row, a translucent animation
    /// layer at `anim_x`, an opaque popup at `popup_x` and its glyph layer
    /// on top. `vw` must be unique per test: the layer cache is
    /// process-global, and another test's layers would turn the computes
    /// asserted here into hits.
    fn keyboard_frame(vw: i32, anim_x: i32, popup_x: i32) -> DrawList {
        let mut dl = DrawList::new(vw, 512);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, vw, 512), true);
        let keys = dl.layer("keys");
        for i in 0..10 {
            keys.quad(Rect::from_xywh(i * 50, 300, 46, 60), true);
            keys.glyph((b'a' + i as u8) as char, Rect::from_xywh(i * 50 + 8, 308, 30, 44), 4);
        }
        dl.layer("anim").quad(Rect::from_xywh(anim_x, 100, 200, 200), false);
        dl.layer("popup").quad(Rect::from_xywh(popup_x, 180, 90, 110), true);
        dl.layer("popup-glyph").glyph('w', Rect::from_xywh(205, 185, 80, 100), 8);
        dl
    }

    /// Renders `dl`, checks it against the reference, and returns what the
    /// frame took from the layer cache and computed.
    fn tally(dl: &DrawList) -> IncrementalStats {
        let mut stats = IncrementalStats::default();
        assert_eq!(render_counted(dl, &params(), &mut stats), render_uncached(dl, &params()));
        stats
    }

    #[test]
    fn a_repeated_frame_is_assembled_from_cached_layers() {
        let dl = keyboard_frame(520, 100, 200);
        let cold = tally(&dl);
        assert_eq!((cold.layers_dirty, cold.layers_reused, cold.identical_frames), (5, 0, 0));
        assert!(cold.prims_recomputed > 10, "{cold:?}");
        let warm = tally(&dl);
        assert_eq!((warm.layers_dirty, warm.layers_reused, warm.identical_frames), (0, 5, 1));
        assert_eq!(warm.prims_recomputed, 0);
    }

    #[test]
    fn a_translucent_change_computes_only_its_layer() {
        let _ = tally(&keyboard_frame(528, 100, 200));
        // It occludes nothing, so every other layer keeps its key.
        let moved = tally(&keyboard_frame(528, 104, 200));
        assert_eq!((moved.layers_dirty, moved.layers_reused), (1, 4));
        assert_eq!(moved.prims_recomputed, 1);
    }

    #[test]
    fn a_moved_occluder_recomputes_itself_and_the_layers_below() {
        let _ = tally(&keyboard_frame(536, 100, 200));
        // The popup glyph layer above keeps its key; the popup and the
        // three layers it occludes are computed.
        let moved = tally(&keyboard_frame(536, 100, 240));
        assert_eq!((moved.layers_dirty, moved.layers_reused), (4, 1));
    }

    fn keys_of(draw_list: &DrawList, params: &GpuParams) -> Vec<memo::Fingerprint> {
        let mut keys = Vec::new();
        layer_keys(draw_list, params, &mut keys);
        keys
    }

    fn popup_list(bg: &'static str, popup: &'static str, glyph: char) -> DrawList {
        let mut dl = DrawList::new(512, 512);
        dl.layer(bg).quad(Rect::from_xywh(0, 0, 512, 512), true);
        dl.layer(popup).glyph(glyph, Rect::from_xywh(100, 100, 90, 110), 8);
        dl
    }

    #[test]
    fn layer_keys_follow_content_and_params_but_not_tags() {
        let a = keys_of(&popup_list("bg", "popup", 'a'), &params());
        assert_eq!(a, keys_of(&popup_list("bg", "popup", 'a'), &params()));
        // A glyph occludes nothing, so only its own layer's key moves.
        let b = keys_of(&popup_list("bg", "popup", 'b'), &params());
        assert_eq!(a[0], b[0]);
        assert_ne!(a[1], b[1]);
        let other = keys_of(&popup_list("bg", "popup", 'a'), &GpuModel::Adreno540.params());
        assert!(a.iter().zip(&other).all(|(x, y)| x != y), "GPU params are in every key");
        // Layer tags are render-irrelevant and excluded.
        assert_eq!(a, keys_of(&popup_list("renamed", "other", 'a'), &params()));
    }

    #[test]
    fn layer_boundaries_are_part_of_the_keys() {
        // The same quads in one layer or in two occlude differently, so no
        // key of one list may serve the other.
        let mut merged = DrawList::new(256, 256);
        let layer = merged.layer("one");
        layer.quad(Rect::from_xywh(0, 0, 256, 256), true);
        layer.quad(Rect::from_xywh(10, 10, 50, 50), true);
        let mut split = DrawList::new(256, 256);
        split.layer("a").quad(Rect::from_xywh(0, 0, 256, 256), true);
        split.layer("b").quad(Rect::from_xywh(10, 10, 50, 50), true);
        let (merged, split) = (keys_of(&merged, &params()), keys_of(&split, &params()));
        assert!(merged.iter().all(|k| !split.contains(k)), "{merged:?} vs {split:?}");
    }
}
