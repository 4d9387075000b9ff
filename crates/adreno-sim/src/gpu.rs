//! The GPU device: a timeline of frame jobs over simulated time.
//!
//! Counters are free-running: a read at time `t` observes the cumulative
//! increments of every job checkpoint completed by `t`. Reads that land in
//! the middle of a frame observe a *partial* delta — the paper's "split"
//! system factor (§5.1) — with no special-case code: it falls out of the
//! timeline model.

use std::collections::VecDeque;

use crate::counters::CounterSet;
use crate::incremental::IncrementalStats;
use crate::model::{GpuModel, GpuParams};
use crate::pipeline;
use crate::scene::DrawList;
use crate::time::{SimDuration, SimInstant};

/// Summary of one submitted frame, returned by [`Gpu::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStats {
    /// When the GPU started executing the frame (submissions queue behind
    /// in-flight work).
    pub start: SimInstant,
    /// When the frame finished.
    pub end: SimInstant,
    /// Counter increments contributed by the frame.
    pub totals: CounterSet,
    /// GPU cycles consumed.
    pub cycles: u64,
}

#[derive(Debug, Clone)]
struct Job {
    start: SimInstant,
    end: SimInstant,
    totals: CounterSet,
    /// `(absolute completion time in nanoseconds, cumulative counters)`
    /// checkpoints.
    checkpoints: Vec<(u64, CounterSet)>,
}

/// A simulated Adreno GPU.
///
/// # Examples
///
/// ```
/// use adreno_sim::geom::Rect;
/// use adreno_sim::gpu::Gpu;
/// use adreno_sim::model::GpuModel;
/// use adreno_sim::scene::DrawList;
/// use adreno_sim::time::SimInstant;
///
/// let mut gpu = Gpu::new(GpuModel::Adreno650);
/// let mut dl = DrawList::new(256, 256);
/// dl.layer("bg").quad(Rect::from_xywh(0, 0, 256, 256), true);
/// let frame = gpu.submit(&dl, SimInstant::ZERO);
/// let after = gpu.counters_at(frame.end);
/// assert_eq!(after, frame.totals);
/// ```
#[derive(Debug)]
pub struct Gpu {
    model: GpuModel,
    params: GpuParams,
    /// Counter values of all jobs fully folded away.
    base: CounterSet,
    /// No reads may target a time before this (reads are monotonic).
    compacted_until: SimInstant,
    jobs: VecDeque<Job>,
    busy_until: SimInstant,
    /// Recent busy intervals for utilisation queries, oldest first.
    busy_log: VecDeque<(SimInstant, SimInstant)>,
    /// What this GPU's frames took from the layer cache and computed,
    /// published when the GPU drops.
    stats: IncrementalStats,
}

/// How much busy-interval history the GPU retains for utilisation queries.
const BUSY_LOG_HORIZON: SimDuration = SimDuration::from_secs(2);

impl Gpu {
    /// Creates an idle GPU of the given model.
    pub fn new(model: GpuModel) -> Self {
        Gpu {
            model,
            params: model.params(),
            base: CounterSet::ZERO,
            compacted_until: SimInstant::ZERO,
            jobs: VecDeque::new(),
            busy_until: SimInstant::ZERO,
            busy_log: VecDeque::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The GPU model.
    pub fn model(&self) -> GpuModel {
        self.model
    }

    /// The GPU's static parameters.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// When the GPU becomes idle given everything submitted so far.
    pub fn busy_until(&self) -> SimInstant {
        self.busy_until
    }

    fn cycles_to_duration(&self, cycles: u64) -> SimDuration {
        // cycles / (MHz * 1e6) seconds = cycles * 1000 / MHz nanoseconds.
        SimDuration::from_nanos(cycles.saturating_mul(1_000) / self.params.clock_mhz as u64)
    }

    /// Renders `draw_list` as a frame job submitted at `now`. If the GPU is
    /// still busy, the job queues behind in-flight work.
    ///
    /// The frame is rendered by [`crate::pipeline::render`], assembled from
    /// the process-wide layer cache, so only layers no earlier frame of any
    /// session rendered are computed; output is bit-identical to
    /// [`crate::pipeline::render_uncached`]. The job takes the output's
    /// checkpoint vector as it is, and the frame is tallied in
    /// [`Gpu::incremental_stats`], so a frame whose layers are all cached
    /// allocates only that vector and makes no telemetry call.
    pub fn submit(&mut self, draw_list: &DrawList, now: SimInstant) -> FrameStats {
        let out = pipeline::render_counted(draw_list, &self.params, &mut self.stats);
        self.enqueue(now, out.totals, out.total_cycles, out.checkpoints)
    }

    /// What this GPU's frames took from the layer cache and what they
    /// computed.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Submits an opaque workload (e.g. a background 3D app or a mitigation
    /// decoy) that consumes `cycles` and bumps counters by `totals`.
    pub fn submit_workload(
        &mut self,
        totals: CounterSet,
        cycles: u64,
        now: SimInstant,
    ) -> FrameStats {
        // A single mid-job checkpoint keeps split behaviour for workloads too.
        let half = CounterSet::from_array({
            let mut a = [0u64; crate::counters::NUM_TRACKED];
            for (i, v) in totals.as_array().iter().enumerate() {
                a[i] = v / 2;
            }
            a
        });
        self.enqueue(now, totals, cycles, vec![(cycles / 2, half), (cycles, totals)])
    }

    /// Queues a job whose `checkpoints` count cycles into the job; they are
    /// rewritten in place to absolute completion times.
    fn enqueue(
        &mut self,
        now: SimInstant,
        totals: CounterSet,
        cycles: u64,
        mut checkpoints: Vec<(u64, CounterSet)>,
    ) -> FrameStats {
        let start = if self.busy_until > now { self.busy_until } else { now };
        let duration = self.cycles_to_duration(cycles);
        let end = start + duration;
        for cp in &mut checkpoints {
            cp.0 = (start + self.cycles_to_duration(cp.0)).as_nanos();
        }
        self.jobs.push_back(Job { start, end, totals, checkpoints });
        self.busy_until = end;
        if cycles > 0 {
            self.busy_log.push_back((start, end));
            while let Some(&(_, first_end)) = self.busy_log.front() {
                if end.saturating_since(first_end) > BUSY_LOG_HORIZON {
                    self.busy_log.pop_front();
                } else {
                    break;
                }
            }
        }
        FrameStats { start, end, totals, cycles }
    }

    /// Reads the cumulative counter values visible at time `t`.
    ///
    /// Reads must be monotonic in `t`: older jobs are folded away as reads
    /// advance, matching how a real free-running counter file behaves.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `t` precedes an earlier read.
    pub fn counters_at(&mut self, t: SimInstant) -> CounterSet {
        debug_assert!(
            t >= self.compacted_until,
            "counter reads must be monotonic: {t} < {}",
            self.compacted_until
        );
        // Fold fully-completed jobs into the base.
        while let Some(job) = self.jobs.front() {
            if job.end <= t {
                self.base += job.totals;
                self.jobs.pop_front();
            } else {
                break;
            }
        }
        self.compacted_until = t;
        let mut out = self.base;
        for job in &self.jobs {
            if job.start >= t {
                break; // jobs are ordered by start time
            }
            // Partial: last checkpoint at or before t.
            let mut partial = CounterSet::ZERO;
            for (cp_t, cp_set) in &job.checkpoints {
                if *cp_t <= t.as_nanos() {
                    partial = *cp_set;
                } else {
                    break;
                }
            }
            out += partial;
        }
        out
    }

    /// GPU utilisation over `[t - window, t]`, in `0.0..=1.0` — the analogue
    /// of Android's `/sys/class/kgsl/kgsl-3d0/gpu_busy_percentage`.
    pub fn busy_fraction(&self, t: SimInstant, window: SimDuration) -> f64 {
        if window == SimDuration::ZERO {
            return 0.0;
        }
        let w_start = t - window;
        let mut busy = 0u64;
        for &(s, e) in &self.busy_log {
            let s = if s > w_start { s } else { w_start };
            let e = if e < t { e } else { t };
            busy += e.saturating_since(s).as_nanos();
        }
        (busy as f64 / window.as_nanos() as f64).min(1.0)
    }
}

/// Publishes the frame tally once, when the GPU's owner is done with it.
impl Drop for Gpu {
    fn drop(&mut self) {
        self.stats.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;

    fn simple_dl() -> DrawList {
        let mut dl = DrawList::new(512, 512);
        dl.layer("bg").quad(Rect::from_xywh(0, 0, 512, 512), true);
        dl
    }

    #[test]
    fn counters_monotonic_across_frames() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let dl = simple_dl();
        let f1 = gpu.submit(&dl, SimInstant::ZERO);
        let after1 = gpu.counters_at(f1.end);
        let f2 = gpu.submit(&dl, f1.end + SimDuration::from_millis(10));
        let after2 = gpu.counters_at(f2.end);
        assert_eq!(after2 - after1, f2.totals);
        assert_eq!(after1, f1.totals);
    }

    #[test]
    fn mid_frame_read_sees_partial_delta() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        // Uniform-cost primitives so checkpoints spread evenly in time.
        let mut dl = DrawList::new(1024, 1024);
        for i in 0..20 {
            dl.layer("keys").quad(Rect::from_xywh(i * 50, 300, 46, 60), true);
        }
        let f = gpu.submit(&dl, SimInstant::ZERO);
        assert!(f.end > f.start);
        let mid = SimInstant::from_nanos((f.start.as_nanos() + f.end.as_nanos()) / 2);
        let partial = gpu.counters_at(mid);
        let full = gpu.counters_at(f.end);
        assert!(partial.total() > 0, "some checkpoints completed by mid-frame");
        assert!(partial.total() < full.total(), "mid-frame read must be partial");
        assert_eq!(full, f.totals);
    }

    #[test]
    fn queued_jobs_execute_back_to_back() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let dl = simple_dl();
        let f1 = gpu.submit(&dl, SimInstant::ZERO);
        // Submit while the first frame is still drawing.
        let f2 = gpu.submit(&dl, SimInstant::ZERO);
        assert_eq!(f2.start, f1.end);
        assert!(gpu.busy_until() == f2.end);
    }

    #[test]
    fn idle_gpu_reports_zero_busy() {
        let gpu = Gpu::new(GpuModel::Adreno650);
        assert_eq!(
            gpu.busy_fraction(SimInstant::from_millis(100), SimDuration::from_millis(100)),
            0.0
        );
    }

    #[test]
    fn busy_fraction_tracks_load() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        // Saturate the GPU for ~100ms with external workloads.
        let cycles_100ms = gpu.params().clock_mhz as u64 * 1_000 * 100; // 100ms worth
        gpu.submit_workload(CounterSet::ZERO, cycles_100ms, SimInstant::ZERO);
        let frac = gpu.busy_fraction(SimInstant::from_millis(100), SimDuration::from_millis(100));
        assert!(frac > 0.95, "expected ~1.0 busy, got {frac}");
        let frac_after =
            gpu.busy_fraction(SimInstant::from_millis(300), SimDuration::from_millis(100));
        assert_eq!(frac_after, 0.0);
    }

    #[test]
    fn compaction_preserves_totals() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let dl = simple_dl();
        let mut expected = CounterSet::ZERO;
        let mut t = SimInstant::ZERO;
        for _ in 0..50 {
            let f = gpu.submit(&dl, t);
            expected += f.totals;
            t = f.end + SimDuration::from_millis(5);
            let _ = gpu.counters_at(t); // forces compaction as we go
        }
        assert_eq!(gpu.counters_at(t), expected);
        assert!(gpu.jobs.is_empty(), "all jobs should be folded away");
    }

    #[test]
    fn workload_counters_split_in_half() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let mut noise = CounterSet::ZERO;
        noise[crate::counters::TrackedCounter::Ras8x4Tiles] = 100;
        let f = gpu.submit_workload(noise, 1_000_000, SimInstant::ZERO);
        let mid = SimInstant::from_nanos((f.start.as_nanos() + f.end.as_nanos()) / 2);
        let partial = gpu.counters_at(mid);
        assert_eq!(partial[crate::counters::TrackedCounter::Ras8x4Tiles], 50);
    }
}
