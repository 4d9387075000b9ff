//! Counter traces and change extraction.
//!
//! The attack periodically reads the eleven tracked counters and works on
//! the *changes* between consecutive reads (Fig 3, Fig 11). A [`Trace`] is
//! the raw sample series; [`extract_deltas`] turns it into the nonzero
//! change events all downstream inference consumes.
//!
//! # Data layout
//!
//! `Trace` stores samples in columnar (structure-of-arrays) form: one
//! contiguous `Vec<u64>` per tracked counter plus a timestamp array, rather
//! than a `Vec` of `(SimInstant, CounterSet)` pairs. Delta extraction and
//! windowing then walk contiguous cache lines instead of striding over
//! 96-byte records. The AoS-style view is still available per index via
//! [`Trace::sample`] and [`Trace::iter`], which assemble a [`Sample`] on
//! the fly.

use adreno_sim::counters::{CounterSet, TrackedCounter, NUM_TRACKED};
use adreno_sim::time::SimInstant;

use crate::stage::Stage;

/// One raw counter sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the `ioctl` read returned.
    pub at: SimInstant,
    /// Cumulative counter values observed.
    pub values: CounterSet,
}

/// A time-ordered series of raw counter samples in columnar storage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    ats: Vec<SimInstant>,
    cols: [Vec<u64>; NUM_TRACKED],
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `samples` reads in every column,
    /// so a streaming session of known length never re-grows mid-loop.
    pub fn with_capacity(samples: usize) -> Self {
        Trace {
            ats: Vec::with_capacity(samples),
            cols: std::array::from_fn(|_| Vec::with_capacity(samples)),
        }
    }

    /// Reserves room for at least `additional` more samples in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.ats.reserve(additional);
        for col in &mut self.cols {
            col.reserve(additional);
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the previous sample (reads are issued
    /// in time order).
    pub fn push(&mut self, at: SimInstant, values: CounterSet) {
        if let Some(&last) = self.ats.last() {
            assert!(at >= last, "samples must be time-ordered");
        }
        self.ats.push(at);
        for (col, &v) in self.cols.iter_mut().zip(values.as_array()) {
            col.push(v);
        }
    }

    /// The timestamp of sample `i`.
    pub fn at(&self, i: usize) -> SimInstant {
        self.ats[i]
    }

    /// Assembles the AoS view of sample `i` from the columns.
    pub fn sample(&self, i: usize) -> Sample {
        let mut values = [0u64; NUM_TRACKED];
        for (v, col) in values.iter_mut().zip(&self.cols) {
            *v = col[i];
        }
        Sample { at: self.ats[i], values: CounterSet::from_array(values) }
    }

    /// Iterates the samples in order, assembling each [`Sample`] on the fly.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        (0..self.len()).map(move |i| self.sample(i))
    }

    /// The read timestamps in order.
    pub fn timestamps(&self) -> &[SimInstant] {
        &self.ats
    }

    /// The contiguous value column of one tracked counter.
    pub fn column(&self, c: TrackedCounter) -> &[u64] {
        &self.cols[c.index()]
    }

    /// All value columns in [`adreno_sim::counters::ALL_TRACKED`] order.
    pub fn columns(&self) -> &[Vec<u64>; NUM_TRACKED] {
        &self.cols
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ats.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ats.is_empty()
    }
}

impl Extend<Sample> for Trace {
    fn extend<T: IntoIterator<Item = Sample>>(&mut self, iter: T) {
        for s in iter {
            self.push(s.at, s.values);
        }
    }
}

impl FromIterator<Sample> for Trace {
    fn from_iter<T: IntoIterator<Item = Sample>>(iter: T) -> Self {
        let mut t = Trace::new();
        t.extend(iter);
        t
    }
}

/// One observed counter *change*: the difference between two consecutive
/// reads, attributed to the time of the later read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta {
    /// Read time at which the change was observed.
    pub at: SimInstant,
    /// The change in each tracked counter.
    pub values: CounterSet,
}

impl Delta {
    /// Sum of the change over all counters — a scalar magnitude used by the
    /// app-switch burst detector.
    pub fn magnitude(&self) -> u64 {
        self.values.total()
    }
}

/// Extracts the nonzero changes from a trace: `delta_i = s_i - s_{i-1}`,
/// skipping reads where nothing moved ("the PC values remain unchanged if
/// the screen display does not change", §3.4).
///
/// Counters are cumulative, so they can only ever grow — unless the GPU
/// slumbered between the two reads and the registers restarted from zero.
/// See [`extract_deltas_with_resets`] for how such windows are handled.
pub fn extract_deltas(trace: &Trace) -> Vec<Delta> {
    extract_deltas_with_resets(trace).0
}

/// [`extract_deltas`], also reporting how many counter resets were detected.
///
/// A window where any tracked counter moved *backwards* cannot be a real
/// display change: cumulative registers never decrease. It means the
/// hardware lost its state (GPU slumber / power collapse), so the window's
/// difference is meaningless. Instead of clamping it to zero per counter —
/// which silently fabricates a bogus partial delta — the window is dropped
/// entirely and extraction re-anchors at the later sample, resuming normal
/// differencing from there. The activity that fell inside the reset window
/// is lost (degraded coverage), but nothing invented is emitted.
///
/// Allocates its change-mask scratch per call; streaming callers that
/// extract repeatedly should hold an [`ExtractScratch`] and use
/// [`extract_deltas_with_resets_scratch`], which never allocates in steady
/// state.
pub fn extract_deltas_with_resets(trace: &Trace) -> (Vec<Delta>, usize) {
    extract_deltas_with_resets_scratch(trace, &mut ExtractScratch::default())
}

/// Reusable change-mask buffer for [`extract_deltas_with_resets_scratch`].
/// Grows to the largest trace seen, then stays — repeat extractions never
/// allocate (and never re-zero: the sweep's first column quad overwrites
/// every slot).
#[derive(Debug, Default)]
pub struct ExtractScratch {
    ch: Vec<u64>,
}

/// Windows per probe stride when estimating how busy a trace is.
const PROBE_WINDOWS: usize = 64;

/// L1-sized span of the columnar change sweep: 1024 `u64` masks (8 kB) stay
/// cache-resident while all eleven columns fold into them.
const SWEEP_CHUNK: usize = 1_024;

/// [`extract_deltas_with_resets`] with a caller-held scratch buffer.
///
/// The extraction is *regime-adaptive*. A strided probe of
/// `PROBE_WINDOWS` windows estimates the busy fraction first:
///
/// * **Busy trace** (> ¼ of probes changed): one row-major pass — for each
///   window, difference all eleven columns, drop backward (reset) windows,
///   emit nonzero deltas. Dense traces are bound by the per-window
///   difference-and-emit work itself, and the single pass does exactly
///   that and nothing else.
/// * **Idle-dominated trace** (the paper's regime: 5–8 ms sampling against
///   ~250 ms keystroke spacing, and "the PC values remain unchanged if the
///   screen display does not change", §3.4): a columnar xor-accumulate
///   sweep ORs `prev ^ cur` of all columns into one `u64` change mask per
///   window — contiguous, branch-free, four columns folded per pass over
///   an L1-resident `SWEEP_CHUNK` block — and only the windows with a
///   nonzero mask are then assembled row-major. Backward detection happens
///   during assembly: a backward window has `cur != prev` in the offending
///   column, so it necessarily carries a nonzero change mask and cannot be
///   missed by the xor sweep.
///
/// Both paths emit identical deltas, resets and telemetry as each other
/// and as the streaming [`DeltaStage`].
pub fn extract_deltas_with_resets_scratch(
    trace: &Trace,
    scratch: &mut ExtractScratch,
) -> (Vec<Delta>, usize) {
    let n = trace.len();
    let mut out = Vec::new();
    let mut resets = 0usize;
    if n >= 2 {
        let w = n - 1;
        let cols = trace.columns();
        let ats = trace.timestamps();
        let probes = PROBE_WINDOWS.min(w);
        let mut busy = 0usize;
        for k in 0..probes {
            let i = 1 + k * w / probes;
            let mut x = 0u64;
            for col in cols {
                x |= col[i] ^ col[i - 1];
            }
            busy += usize::from(x != 0);
        }
        if busy * 4 > probes {
            emit_windows_rowwise(cols, ats, 1..n, &mut out, &mut resets);
        } else {
            sweep_change_masks(cols, w, &mut scratch.ch);
            let ch = &scratch.ch[..w];
            // Idle windows skip four at a time: one OR of their masks.
            let mut k = 0usize;
            while k + 4 <= w {
                if ch[k] | ch[k + 1] | ch[k + 2] | ch[k + 3] == 0 {
                    k += 4;
                    continue;
                }
                for (kk, &mask) in ch.iter().enumerate().skip(k).take(4) {
                    if mask != 0 {
                        emit_windows_rowwise(cols, ats, kk + 1..kk + 2, &mut out, &mut resets);
                    }
                }
                k += 4;
            }
            while k < w {
                if ch[k] != 0 {
                    emit_windows_rowwise(cols, ats, k + 1..k + 2, &mut out, &mut resets);
                }
                k += 1;
            }
        }
    }
    spansight::count("core.trace.deltas", out.len() as u64);
    if resets > 0 {
        spansight::count("core.trace.resets", resets as u64);
    }
    (out, resets)
}

/// The row-major difference-and-emit pass shared by both extraction
/// regimes: for each window ending at sample `i` in `range`, difference
/// all columns, count the window as a reset if any column moved backwards,
/// otherwise emit a [`Delta`] if anything changed.
#[inline]
fn emit_windows_rowwise(
    cols: &[Vec<u64>; NUM_TRACKED],
    ats: &[SimInstant],
    range: std::ops::Range<usize>,
    out: &mut Vec<Delta>,
    resets: &mut usize,
) {
    'windows: for i in range {
        let mut values = [0u64; NUM_TRACKED];
        for (v, col) in values.iter_mut().zip(cols) {
            let (prev, cur) = (col[i - 1], col[i]);
            if cur < prev {
                *resets += 1;
                continue 'windows;
            }
            *v = cur - prev;
        }
        if values.iter().any(|&v| v != 0) {
            out.push(Delta { at: ats[i], values: CounterSet::from_array(values) });
        }
    }
}

/// Columnar change sweep: `ch[k] = OR over columns of (col[k] ^ col[k+1])`
/// for all `w` windows. Folds four columns per pass over an L1-resident
/// `SWEEP_CHUNK` block; the first quad *writes* (no `ch` pre-zeroing
/// needed — `NUM_TRACKED` ≥ 4 guarantees the quad exists) and later
/// passes OR into it.
fn sweep_change_masks(cols: &[Vec<u64>; NUM_TRACKED], w: usize, ch: &mut Vec<u64>) {
    const { assert!(NUM_TRACKED >= 4, "first column quad must cover every mask") };
    ch.resize(w, 0);
    let mut s = 0usize;
    while s < w {
        let e = (s + SWEEP_CHUNK).min(w);
        let cb = &mut ch[s..e];
        let mut quads = cols.chunks_exact(4);
        let mut first = true;
        for quad in &mut quads {
            let (pa, ca) = (&quad[0][s..e], &quad[0][s + 1..e + 1]);
            let (pb, cb2) = (&quad[1][s..e], &quad[1][s + 1..e + 1]);
            let (pc, cc) = (&quad[2][s..e], &quad[2][s + 1..e + 1]);
            let (pd, cd) = (&quad[3][s..e], &quad[3][s + 1..e + 1]);
            if first {
                for k in 0..cb.len() {
                    cb[k] =
                        ((pa[k] ^ ca[k]) | (pb[k] ^ cb2[k])) | ((pc[k] ^ cc[k]) | (pd[k] ^ cd[k]));
                }
                first = false;
            } else {
                for k in 0..cb.len() {
                    cb[k] |=
                        ((pa[k] ^ ca[k]) | (pb[k] ^ cb2[k])) | ((pc[k] ^ cc[k]) | (pd[k] ^ cd[k]));
                }
            }
        }
        let rem = quads.remainder();
        if rem.len() == 3 {
            let (pa, ca) = (&rem[0][s..e], &rem[0][s + 1..e + 1]);
            let (pb, cb2) = (&rem[1][s..e], &rem[1][s + 1..e + 1]);
            let (pc, cc) = (&rem[2][s..e], &rem[2][s + 1..e + 1]);
            for k in 0..cb.len() {
                cb[k] |= ((pa[k] ^ ca[k]) | (pb[k] ^ cb2[k])) | (pc[k] ^ cc[k]);
            }
        } else {
            for col in rem {
                let (p, c) = (&col[s..e], &col[s + 1..e + 1]);
                for k in 0..cb.len() {
                    cb[k] |= p[k] ^ c[k];
                }
            }
        }
        s = e;
    }
}

/// Incremental delta extraction: the [`Stage`] form of
/// [`extract_deltas_with_resets`], consuming one [`Sample`] at a time and
/// emitting the nonzero [`Delta`]s. Holds only the previous read's counter
/// values, so a live session never materializes the raw trace.
///
/// Counter-reset windows (any counter moving backwards — GPU slumber) emit
/// nothing; extraction re-anchors at the later sample. The reset count is
/// available via [`DeltaStage::resets`] and, together with the emitted-delta
/// count, is published as telemetry at [`Stage::finish`].
#[derive(Debug, Default)]
pub struct DeltaStage {
    /// Counter values of the anchor read; `None` before the first read.
    prev: Option<CounterSet>,
    emitted: usize,
    resets: usize,
}

impl DeltaStage {
    /// A fresh extractor with no anchor sample yet.
    pub fn new() -> Self {
        DeltaStage::default()
    }

    /// Counter resets (backward jumps) re-anchored across so far.
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// Pushes a burst of reads in order; [`Stage::push`] is this loop over
    /// a single read. Each read is compared against the anchor and
    /// re-anchors it in place, so an unchanged read (~95 % of a login
    /// session's) copies nothing.
    pub fn push_samples(&mut self, samples: &[Sample], out: &mut Vec<Delta>) {
        for input in samples {
            let Some(prev) = &mut self.prev else {
                self.prev = Some(input.values);
                continue;
            };
            if *prev == input.values {
                continue;
            }
            match input.values.checked_sub(prev) {
                // Unequal and nothing moved backwards, so the delta is nonzero.
                Some(d) => {
                    out.push(Delta { at: input.at, values: d });
                    self.emitted += 1;
                }
                None => self.resets += 1,
            }
            *prev = input.values;
        }
    }
}

impl Stage for DeltaStage {
    type In = Sample;
    type Out = Delta;

    fn push(&mut self, input: Sample, out: &mut Vec<Delta>) {
        self.push_samples(std::slice::from_ref(&input), out);
    }

    fn finish(&mut self, _out: &mut Vec<Delta>) {
        spansight::count("core.trace.deltas", self.emitted as u64);
        if self.resets > 0 {
            spansight::count("core.trace.resets", self.resets as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::TrackedCounter;

    fn set(v: u64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::Ras8x4Tiles] = v;
        c
    }

    #[test]
    fn deltas_skip_idle_windows() {
        let mut t = Trace::new();
        t.push(SimInstant::from_millis(0), set(10));
        t.push(SimInstant::from_millis(8), set(10)); // idle
        t.push(SimInstant::from_millis(16), set(25));
        t.push(SimInstant::from_millis(24), set(25)); // idle
        let d = extract_deltas(&t);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, SimInstant::from_millis(16));
        assert_eq!(d[0].values[TrackedCounter::Ras8x4Tiles], 15);
        assert_eq!(d[0].magnitude(), 15);
    }

    #[test]
    fn empty_and_single_sample_traces_have_no_deltas() {
        let mut t = Trace::new();
        assert!(extract_deltas(&t).is_empty());
        t.push(SimInstant::ZERO, set(5));
        assert!(extract_deltas(&t).is_empty());
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut t = Trace::new();
        t.push(SimInstant::from_millis(10), set(1));
        t.push(SimInstant::from_millis(5), set(2));
    }

    #[test]
    fn counter_reset_reanchors_instead_of_fabricating_zero() {
        let mut t = Trace::new();
        t.push(SimInstant::from_millis(0), set(100));
        t.push(SimInstant::from_millis(8), set(130));
        // GPU slumber: registers restart near zero...
        t.push(SimInstant::from_millis(16), set(5));
        // ...and counting resumes from the new anchor.
        t.push(SimInstant::from_millis(24), set(25));
        let (d, resets) = extract_deltas_with_resets(&t);
        assert_eq!(resets, 1);
        assert_eq!(d.len(), 2, "the reset window itself must emit nothing");
        assert_eq!(d[0].at, SimInstant::from_millis(8));
        assert_eq!(d[0].values[TrackedCounter::Ras8x4Tiles], 30);
        assert_eq!(d[1].at, SimInstant::from_millis(24));
        assert_eq!(
            d[1].values[TrackedCounter::Ras8x4Tiles],
            20,
            "re-anchored at the post-reset read"
        );
    }

    #[test]
    fn partial_backward_jump_still_counts_as_reset() {
        // One counter moves forward while another moves backward: cumulative
        // registers cannot do that, so the whole window is a reset.
        let mut a = CounterSet::ZERO;
        a[TrackedCounter::Ras8x4Tiles] = 50;
        a[TrackedCounter::VpcPcPrimitives] = 10;
        let mut b = CounterSet::ZERO;
        b[TrackedCounter::Ras8x4Tiles] = 20; // backwards
        b[TrackedCounter::VpcPcPrimitives] = 60; // forwards
        let mut t = Trace::new();
        t.push(SimInstant::from_millis(0), a);
        t.push(SimInstant::from_millis(8), b);
        let (d, resets) = extract_deltas_with_resets(&t);
        assert!(d.is_empty());
        assert_eq!(resets, 1);
    }

    #[test]
    fn monotone_traces_report_zero_resets() {
        let t: Trace = (0..6)
            .map(|i| Sample { at: SimInstant::from_millis(i * 8), values: set(i * 3) })
            .collect();
        let (d, resets) = extract_deltas_with_resets(&t);
        assert_eq!(resets, 0);
        assert_eq!(d, extract_deltas(&t));
    }

    #[test]
    fn collects_from_iterator() {
        let t: Trace = (0..5)
            .map(|i| Sample { at: SimInstant::from_millis(i * 8), values: set(i * 3) })
            .collect();
        assert_eq!(t.len(), 5);
        assert_eq!(extract_deltas(&t).len(), 4);
    }

    #[test]
    fn soa_views_round_trip_pushed_samples() {
        let samples: Vec<Sample> = (0..4)
            .map(|i| Sample { at: SimInstant::from_millis(i * 8), values: set(i * 7 + 1) })
            .collect();
        let t: Trace = samples.iter().copied().collect();
        assert_eq!(t.timestamps().len(), 4);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(t.at(i), s.at);
            assert_eq!(t.sample(i), *s);
            assert_eq!(t.column(TrackedCounter::Ras8x4Tiles)[i], (i as u64) * 7 + 1);
        }
        let collected: Vec<Sample> = t.iter().collect();
        assert_eq!(collected, samples);
    }

    #[test]
    fn with_capacity_reserves_every_column() {
        let t = Trace::with_capacity(64);
        assert!(t.ats.capacity() >= 64);
        for col in t.columns() {
            assert!(col.capacity() >= 64);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn batch_extraction_matches_streaming_stage() {
        // Mixed workload: idle windows, activity, and a reset.
        let vals = [100u64, 100, 130, 5, 25, 25, 60];
        let mut t = Trace::new();
        for (i, v) in vals.into_iter().enumerate() {
            t.push(SimInstant::from_millis(i as u64 * 8), set(v));
        }
        let (batch, batch_resets) = extract_deltas_with_resets(&t);
        let mut stage = DeltaStage::new();
        let mut streamed = Vec::new();
        for s in t.iter() {
            stage.push(s, &mut streamed);
        }
        stage.finish(&mut streamed);
        assert_eq!(batch, streamed);
        assert_eq!(batch_resets, stage.resets());
    }
}
