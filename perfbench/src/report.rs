//! Metric records, order statistics, outcome digests and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The unscaled host measurement behind a yardstick-scaled value, and
    /// the measured kernel rate it was scaled by.
    pub raw: Option<(f64, f64)>,
    /// Context printed beside the value (paper figure, counts).
    pub note: String,
}

impl Metric {
    /// A value that needs no scaling (counts, fractions, sim time, bytes).
    pub fn plain(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value, raw: None, note: String::new() }
    }

    /// A host time, scaled by `measured / nominal`.
    pub fn time(name: &'static str, unit: &'static str, raw: f64, host: &Host) -> Self {
        Metric {
            name,
            unit,
            value: raw * host.rate / host.nominal,
            raw: Some((raw, host.rate)),
            note: String::new(),
        }
    }

    /// A value already scaled elsewhere, with its raw value and the rate
    /// printed beside it.
    pub fn scaled(name: &'static str, unit: &'static str, value: f64, raw: f64, rate: f64) -> Self {
        Metric { name, unit, value, raw: Some((raw, rate)), note: String::new() }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// A host time and the kernel rate measured around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub ns: u64,
    pub rate: f64,
}

impl Timed {
    /// The time on a host whose kernel rate is `nominal`, ns.
    pub fn scaled_ns(&self, nominal: f64) -> f64 {
        self.ns as f64 * self.rate / nominal
    }
}

/// The yardstick reading a phase's host times are scaled by.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// Measured kernel rate in this phase, iterations/s.
    pub rate: f64,
    /// Nominal kernel rate the benchmark definition fixes, iterations/s.
    pub nominal: f64,
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Laplace-smoothed share `(k + 1) / (n + 2)`: the estimate of a
/// probability from `k` successes in `n` trials that is never exactly 0, so
/// a workload where no credential is recovered exactly (pnc) still reports
/// a positive, comparable value.
pub fn smoothed_share(k: usize, n: usize) -> f64 {
    (k as f64 + 1.0) / (n as f64 + 2.0)
}

/// FNV-1a over `bytes`, continuing from `seed`.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Peak resident set size of this process so far (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line")
}

/// What one invocation prints last: the run's verdict and its metrics.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Prints every metric by name with its unit (and, beside scaled ones,
    /// the raw value and the kernel rate it was scaled by), then the
    /// one-line JSON result.
    pub fn print(&self, nominal: f64) {
        for m in &self.metrics {
            let mut line = format!("  {:<40} {:>14.6} {:<9}", m.name, m.value, m.unit);
            if let Some((raw, rate)) = m.raw {
                let _ = write!(
                    line,
                    " raw {raw:.6} at host.ref_rate {rate:.0}/s (nominal {nominal:.0}/s)"
                );
            }
            if !m.note.is_empty() {
                let _ = write!(line, " [{}]", m.note);
            }
            println!("{line}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
