//! Counter-value obfuscation — the §9.3 mitigation.
//!
//! "Obfuscation could also be more effectively applied from the OS, by
//! randomly executing small GPU workloads in background. The major
//! challenge, however, is how to decide the appropriate amount of these
//! workloads, as excessive GPU workloads impair the system's performance."
//!
//! The [`Obfuscator`] injects decoy workloads with exponentially distributed
//! inter-arrival times and randomised magnitudes shaped like small UI
//! frames, so decoy deltas land inside the range of genuine key-press
//! deltas. The experiment harness sweeps the injection rate to reproduce the
//! accuracy-vs-overhead trade-off the paper calls an open question.

use adreno_sim::counters::{CounterSet, TrackedCounter};
use adreno_sim::gpu::Gpu;
use adreno_sim::time::{SimDuration, SimInstant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Smallest decoy magnitude, in "popup equivalents" (1.0 ≈ the GPU cost of
/// one key-press popup frame).
const MIN_MAGNITUDE: f64 = 0.6;

/// Largest decoy magnitude: with [`MIN_MAGNITUDE`], the size range of real
/// popup frames.
const MAX_MAGNITUDE: f64 = 1.4;

/// Configuration of the decoy-injection mitigation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObfuscationConfig {
    /// Mean decoy injections per second. Zero disables the mitigation.
    pub rate_hz: f64,
}

impl ObfuscationConfig {
    /// Decoys at `rate_hz` per second, each drawn uniformly from the size
    /// range of real popup frames.
    pub fn popup_sized(rate_hz: f64) -> Self {
        ObfuscationConfig { rate_hz }
    }
}

impl Default for ObfuscationConfig {
    fn default() -> Self {
        ObfuscationConfig::popup_sized(0.0)
    }
}

/// Injects decoy GPU workloads over simulated time.
///
/// # Examples
///
/// ```
/// use adreno_sim::{Gpu, GpuModel, SimInstant};
/// use kgsl::obfuscate::{ObfuscationConfig, Obfuscator};
///
/// let mut gpu = Gpu::new(GpuModel::Adreno650);
/// let mut obf = Obfuscator::new(ObfuscationConfig::popup_sized(50.0), 7);
/// let injected = obf.run_until(SimInstant::from_millis(1_000), &mut gpu);
/// assert!(injected > 20, "~50 decoys expected in 1s, got {injected}");
/// ```
#[derive(Debug)]
pub struct Obfuscator {
    config: ObfuscationConfig,
    rng: StdRng,
    next_at: Option<SimInstant>,
    cursor: SimInstant,
}

/// Baseline counter profile of a decoy: roughly the shape of a small
/// translucent UI surface redraw, scaled by magnitude.
fn decoy_counters(magnitude: f64) -> (CounterSet, u64) {
    let m = magnitude.max(0.0);
    let mut c = CounterSet::ZERO;
    let s = |v: f64| -> u64 { (v * m).round() as u64 };
    c[TrackedCounter::LrzVisiblePrimAfterLrz] = s(9.0);
    c[TrackedCounter::LrzFull8x8Tiles] = s(120.0);
    c[TrackedCounter::LrzPartial8x8Tiles] = s(60.0);
    c[TrackedCounter::LrzVisiblePixelAfterLrz] = s(700.0);
    c[TrackedCounter::RasSupertileActiveCycles] = s(2_600.0);
    c[TrackedCounter::RasSuperTiles] = s(10.0);
    c[TrackedCounter::Ras8x4Tiles] = s(380.0);
    c[TrackedCounter::RasFullyCovered8x4Tiles] = s(250.0);
    c[TrackedCounter::VpcPcPrimitives] = s(12.0);
    c[TrackedCounter::VpcSpComponents] = s(180.0);
    c[TrackedCounter::VpcLrzAssignPrimitives] = s(4.0);
    let cycles = s(24_000.0).max(1_000);
    (c, cycles)
}

impl Obfuscator {
    /// Creates an obfuscator with a deterministic seed.
    pub fn new(config: ObfuscationConfig, seed: u64) -> Self {
        Obfuscator {
            config,
            rng: StdRng::seed_from_u64(seed),
            next_at: None,
            cursor: SimInstant::ZERO,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ObfuscationConfig {
        &self.config
    }

    fn sample_gap(&mut self) -> SimDuration {
        // Exponential inter-arrival with mean 1/rate.
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let secs = -u.ln() / self.config.rate_hz;
        SimDuration::from_secs_f64(secs.min(60.0))
    }

    /// Injects every decoy due in `(cursor, until]` and advances the cursor.
    /// Returns the number of decoys injected.
    pub fn run_until(&mut self, until: SimInstant, gpu: &mut Gpu) -> usize {
        if self.config.rate_hz <= 0.0 {
            self.cursor = until;
            return 0;
        }
        let mut injected = 0;
        loop {
            let due = match self.next_at {
                Some(t) => t,
                None => {
                    let gap = self.sample_gap();
                    let t = self.cursor + gap;
                    self.next_at = Some(t);
                    t
                }
            };
            if due > until {
                break;
            }
            let magnitude = self.rng.gen_range(MIN_MAGNITUDE..=MAX_MAGNITUDE);
            let (counters, cycles) = decoy_counters(magnitude);
            gpu.submit_workload(counters, cycles, due);
            injected += 1;
            self.cursor = due;
            self.next_at = None;
        }
        self.cursor = until;
        injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::GpuModel;

    #[test]
    fn zero_rate_injects_nothing() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let mut obf = Obfuscator::new(ObfuscationConfig::popup_sized(0.0), 1);
        assert_eq!(obf.run_until(SimInstant::from_millis(10_000), &mut gpu), 0);
        assert!(gpu.counters_at(SimInstant::from_millis(10_000)).is_zero());
    }

    #[test]
    fn rate_controls_injection_count() {
        let mut gpu = Gpu::new(GpuModel::Adreno650);
        let mut obf = Obfuscator::new(ObfuscationConfig::popup_sized(100.0), 42);
        let n = obf.run_until(SimInstant::from_millis(2_000), &mut gpu);
        assert!((140..=260).contains(&n), "expected ~200 decoys, got {n}");
        assert!(!gpu.counters_at(SimInstant::from_millis(2_000)).is_zero());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut gpu = Gpu::new(GpuModel::Adreno650);
            let mut obf = Obfuscator::new(ObfuscationConfig::popup_sized(30.0), seed);
            obf.run_until(SimInstant::from_millis(1_000), &mut gpu);
            gpu.counters_at(SimInstant::from_millis(1_000))
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn incremental_runs_match_single_run() {
        let mut gpu_a = Gpu::new(GpuModel::Adreno650);
        let mut obf_a = Obfuscator::new(ObfuscationConfig::popup_sized(40.0), 9);
        for ms in (100..=1_000).step_by(100) {
            obf_a.run_until(SimInstant::from_millis(ms), &mut gpu_a);
        }
        let mut gpu_b = Gpu::new(GpuModel::Adreno650);
        let mut obf_b = Obfuscator::new(ObfuscationConfig::popup_sized(40.0), 9);
        obf_b.run_until(SimInstant::from_millis(1_000), &mut gpu_b);
        assert_eq!(
            gpu_a.counters_at(SimInstant::from_millis(1_000)),
            gpu_b.counters_at(SimInstant::from_millis(1_000))
        );
    }

    #[test]
    fn decoy_magnitude_scales() {
        let (small, c1) = decoy_counters(0.5);
        let (large, c2) = decoy_counters(2.0);
        assert!(large.total() > small.total());
        assert!(c2 > c1);
    }
}
