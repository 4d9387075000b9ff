//! Content-addressed caches over the deterministic pipeline.
//!
//! [`crate::pipeline::render`] is a pure function of `(DrawList, GpuParams)`
//! — the property the side channel itself exploits — and so is each
//! layer's share of a frame, given the occlusion the layers above it cast.
//! Two process-wide caches hold those shares:
//!
//! 1. **Layer cache** — keyed by a layer's content fingerprint and its
//!    occlusion-above fingerprint (GPU parameters, viewport, and the
//!    opaque-quad fingerprints of the layers above), valued by the layer's
//!    running `(cycles, counters)` sums. `render` looks up every layer of a
//!    frame under one lock and computes only the missing ones, so a layer
//!    recurring in any frame of any session is computed once per process.
//! 2. **Glyph cache** — keyed by `(ch, dest, thickness, occlusion bits,
//!    params)`, valued by the glyph's per-stroke stats. It hits even when
//!    layers differ, e.g. a key label that popups at different positions
//!    leave uncovered.
//!
//! Both caches are thread-safe and deterministic: values are pure functions
//! of their keys, so concurrent fills from different threads are benign and
//! sharing a cache cannot change any result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::counters::CounterSet;
use crate::model::GpuParams;
use crate::pipeline::{OcclusionGrid, PrimStats, LRZ_TILE};
use crate::scene::Primitive;

/// Entry cap of the layer cache; on overflow the cache is dropped
/// wholesale (the working set of the experiment suite is far below this, so
/// eviction is a backstop, not a policy).
const LAYER_CACHE_CAP: usize = 16_384;
/// Entry cap of the glyph cache (entries are a few hundred bytes).
const GLYPH_CACHE_CAP: usize = 65_536;

/// A 128-bit content fingerprint. Two independently-mixed 64-bit lanes make
/// accidental collisions across the few thousand distinct draw lists the
/// suite produces vanishingly unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    pub(crate) lo: u64,
    pub(crate) hi: u64,
}

/// Incremental two-lane mixer behind [`Fingerprint`]: FNV-1a in one lane,
/// a murmur-style multiply-shift in the other.
#[derive(Debug, Clone)]
pub(crate) struct Mixer {
    lo: u64,
    hi: u64,
}

impl Mixer {
    pub(crate) fn new() -> Self {
        Mixer { lo: 0xcbf2_9ce4_8422_2325, hi: 0x9e37_79b9_7f4a_7c15 }
    }

    pub(crate) fn write(&mut self, v: u64) {
        self.lo = (self.lo ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut h = self.hi ^ v.rotate_left(31);
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        self.hi = h.wrapping_add(self.lo.rotate_left(17));
    }

    pub(crate) fn write_i32(&mut self, v: i32) {
        self.write(v as u32 as u64);
    }

    pub(crate) fn write_fp(&mut self, fp: Fingerprint) {
        self.write(fp.lo);
        self.write(fp.hi);
    }

    pub(crate) fn finish(&self) -> Fingerprint {
        Fingerprint { lo: self.lo, hi: self.hi }
    }
}

pub(crate) fn write_params(m: &mut Mixer, params: &GpuParams) {
    m.write_i32(params.supertile_w);
    m.write_i32(params.supertile_h);
    m.write(params.clock_mhz as u64);
    m.write(params.pixels_per_cycle as u64);
    m.write(params.prim_setup_cycles as u64);
}

pub(crate) fn write_prim(m: &mut Mixer, prim: &Primitive) {
    match prim {
        Primitive::Quad { rect, opaque } => {
            m.write(1);
            m.write_i32(rect.x0);
            m.write_i32(rect.y0);
            m.write_i32(rect.x1);
            m.write_i32(rect.y1);
            m.write(u64::from(*opaque));
        }
        Primitive::Glyph { ch, dest, thickness } => {
            m.write(2);
            m.write(*ch as u64);
            m.write_i32(dest.x0);
            m.write_i32(dest.y0);
            m.write_i32(dest.x1);
            m.write_i32(dest.y1);
            m.write_i32(*thickness);
        }
        Primitive::Stroke { seg, dest, thickness } => {
            m.write(3);
            m.write(seg.x0.to_bits() as u64);
            m.write(seg.y0.to_bits() as u64);
            m.write(seg.x1.to_bits() as u64);
            m.write(seg.y1.to_bits() as u64);
            m.write_i32(dest.x0);
            m.write_i32(dest.y0);
            m.write_i32(dest.x1);
            m.write_i32(dest.y1);
            m.write_i32(*thickness);
        }
    }
}

/// Fingerprints the occlusion state a glyph at `(dest, thickness)` can
/// observe: the `is_occluded` bit of every LRZ cell in the glyph's padded
/// bounding region. Strokes only ever query cells inside their
/// `screen_bounds`, so agreeing on this region implies identical stats.
pub(crate) fn glyph_occlusion_fingerprint(
    bounds: &crate::geom::Rect,
    grid: &OcclusionGrid,
) -> Fingerprint {
    let mut m = Mixer::new();
    if bounds.is_empty() {
        return m.finish();
    }
    // One extra cell of padding on every side absorbs float rounding in the
    // stroke walk.
    let cx0 = bounds.x0.div_euclid(LRZ_TILE) - 1;
    let cx1 = (bounds.x1 - 1).div_euclid(LRZ_TILE) + 1;
    let cy0 = bounds.y0.div_euclid(LRZ_TILE) - 1;
    let cy1 = (bounds.y1 - 1).div_euclid(LRZ_TILE) + 1;
    for cy in cy0..=cy1 {
        let mut row = 0u64;
        for cx in cx0..=cx1 {
            row = (row << 1) | u64::from(grid.is_occluded(cx, cy));
            if (cx - cx0) % 64 == 63 {
                m.write(row);
                row = 0;
            }
        }
        m.write(row);
    }
    m.finish()
}

/// A process-wide map from fingerprints to shared, immutable slices.
pub(crate) struct Cache<T> {
    map: Mutex<FingerprintMap<Arc<[T]>>>,
    cap: usize,
}

/// A map keyed by fingerprints, hashed by [`LaneHasher`].
pub(crate) type FingerprintMap<V> = HashMap<Fingerprint, V, BuildHasherDefault<LaneHasher>>;

/// Hashes a [`Fingerprint`] by folding its two lanes, which are already
/// mixed, instead of running SipHash over them: a lookup is on the path of
/// every frame. Keys come from this crate's own fingerprints, never from
/// outside the program, so nobody can craft them to collide.
#[derive(Default)]
pub(crate) struct LaneHasher(u64);

impl Hasher for LaneHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, lane: u64) {
        self.0 = self.0.rotate_left(32) ^ lane;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<T> Cache<T> {
    fn new(cap: usize) -> Self {
        Cache { map: Mutex::new(FingerprintMap::default()), cap }
    }

    /// The map, locked. Every update leaves it valid, so a panic elsewhere
    /// while the lock was held cannot have left it half-written.
    pub(crate) fn lock(&self) -> MutexGuard<'_, FingerprintMap<Arc<[T]>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores every `(key, value)` pair under one lock. A key another
    /// thread filled meanwhile keeps its value, which is the same.
    pub(crate) fn insert_all(&self, entries: impl IntoIterator<Item = (Fingerprint, Arc<[T]>)>) {
        let mut map = self.lock();
        for (key, value) in entries {
            if map.len() >= self.cap {
                map.clear();
            }
            map.entry(key).or_insert(value);
        }
    }
}

/// Running `(cycles, counters)` sums of each layer, keyed by its content and
/// occlusion-above fingerprints (see `pipeline::layer_keys`).
pub(crate) fn layer_cache() -> &'static Cache<(u64, CounterSet)> {
    static CACHE: OnceLock<Cache<(u64, CounterSet)>> = OnceLock::new();
    CACHE.get_or_init(|| Cache::new(LAYER_CACHE_CAP))
}

/// Per-stroke stats of each glyph placement, keyed as in
/// `pipeline::glyph_stats_cached`.
pub(crate) fn glyph_cache() -> &'static Cache<PrimStats> {
    static CACHE: OnceLock<Cache<PrimStats>> = OnceLock::new();
    CACHE.get_or_init(|| Cache::new(GLYPH_CACHE_CAP))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;

    #[test]
    fn occlusion_fingerprint_sees_region_bits() {
        let mut grid = OcclusionGrid::new(256, 256);
        let bounds = Rect::from_xywh(96, 96, 90, 110);
        let clear = glyph_occlusion_fingerprint(&bounds, &grid);
        grid.add_opaque_rect(&Rect::from_xywh(96, 96, 32, 32)); // inside region
        let covered = glyph_occlusion_fingerprint(&bounds, &grid);
        assert_ne!(clear, covered);

        // Occlusion far outside the region is invisible to the glyph.
        let mut far = OcclusionGrid::new(256, 256);
        far.add_opaque_rect(&Rect::from_xywh(0, 0, 24, 24));
        assert_eq!(clear, glyph_occlusion_fingerprint(&bounds, &far));
    }
}
