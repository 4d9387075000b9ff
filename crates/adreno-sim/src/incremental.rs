//! Per-GPU tallies of the layer-cache render path.
//!
//! Every frame a [`crate::gpu::Gpu`] submits goes through
//! [`crate::pipeline::render`], which assembles it from the process-wide
//! layer cache ([`crate::memo`]) and computes only the layers the cache
//! lacks. The GPU tallies what each frame needed in an [`IncrementalStats`]
//! and publishes the tally once, as `adreno.incremental.*` counters, when
//! it drops — the idiom of kgsl's call tally — so a frame whose layers are
//! all cached opens no span and makes no telemetry call.

/// What a GPU's frames took from the layer cache and what they computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Frames rendered.
    pub frames: u64,
    /// Frames with no missing layer: assembled from the layer cache alone.
    pub identical_frames: u64,
    /// Layers found in the layer cache.
    pub layers_reused: u64,
    /// Layers the layer cache lacked, computed by the frame.
    pub layers_dirty: u64,
    /// Per-primitive results computed for those layers (one per glyph
    /// stroke).
    pub prims_recomputed: u64,
}

impl IncrementalStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &IncrementalStats) {
        self.frames += other.frames;
        self.identical_frames += other.identical_frames;
        self.layers_reused += other.layers_reused;
        self.layers_dirty += other.layers_dirty;
        self.prims_recomputed += other.prims_recomputed;
    }

    /// Adds every non-zero count to the current track's
    /// `adreno.incremental.*` counters.
    pub(crate) fn publish(&self) {
        let counts = [
            ("adreno.incremental.frames", self.frames),
            ("adreno.incremental.identical_frames", self.identical_frames),
            ("adreno.incremental.layers_reused", self.layers_reused),
            ("adreno.incremental.layers_dirty", self.layers_dirty),
            ("adreno.incremental.prims_recomputed", self.prims_recomputed),
        ];
        for (name, n) in counts {
            if n > 0 {
                spansight::count(name, n);
            }
        }
    }
}
