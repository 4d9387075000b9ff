//! Counter traces and change extraction.
//!
//! The attack periodically reads the eleven tracked counters and works on
//! the *changes* between consecutive reads (Fig 3, Fig 11). A [`Trace`] is
//! the raw sample series; [`DeltaStage`] turns reads into the nonzero
//! change events all downstream inference consumes, and
//! [`extract_deltas`] runs it over a whole trace.

use adreno_sim::counters::CounterSet;
use adreno_sim::time::SimInstant;

/// One raw counter sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the `ioctl` read returned.
    pub at: SimInstant,
    /// Cumulative counter values observed.
    pub values: CounterSet,
}

/// A time-ordered series of raw counter samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    samples: Vec<Sample>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `samples` reads, so a session
    /// of known length never re-grows mid-loop.
    pub fn with_capacity(samples: usize) -> Self {
        Trace { samples: Vec::with_capacity(samples) }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the previous sample (reads are issued
    /// in time order).
    pub fn push(&mut self, at: SimInstant, values: CounterSet) {
        if let Some(last) = self.samples.last() {
            assert!(at >= last.at, "samples must be time-ordered");
        }
        self.samples.push(Sample { at, values });
    }

    /// The samples in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterates the samples in order.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        self.samples.iter().copied()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
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
/// Runs one [`DeltaStage`] over the trace, so the deltas, the reset count
/// and the published telemetry are exactly a live session's.
pub fn extract_deltas_with_resets(trace: &Trace) -> (Vec<Delta>, usize) {
    let mut stage = DeltaStage::new();
    let mut out = Vec::new();
    stage.push_samples(trace.samples(), &mut out);
    stage.finish();
    (out, stage.resets())
}

/// Incremental delta extraction: consumes bursts of [`Sample`]s and emits
/// the nonzero [`Delta`]s. Holds only the previous read's counter values,
/// so a live session never materializes the raw trace.
///
/// Counter-reset windows (any counter moving backwards — GPU slumber) emit
/// nothing; extraction re-anchors at the later sample. The reset count is
/// available via [`DeltaStage::resets`] and, together with the emitted-delta
/// count, is published as telemetry at [`DeltaStage::finish`].
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

    /// Pushes a burst of reads in order. Each read is compared against the
    /// anchor and re-anchors it in place, so an unchanged read (~95 % of a
    /// login session's) copies nothing.
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

    /// Ends the stream: publishes the emitted-delta and reset counts as
    /// telemetry. Extraction holds back no change, so nothing is emitted.
    pub fn finish(&self) {
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
    fn with_capacity_reserves_room_for_every_read() {
        let t = Trace::with_capacity(64);
        assert!(t.samples.capacity() >= 64);
        assert!(t.is_empty());
    }
}
