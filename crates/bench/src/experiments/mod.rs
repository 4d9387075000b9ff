//! The experiment implementations behind the `experiments` binary — one
//! function per table/figure of the paper (see DESIGN.md §3 for the index).

pub mod ablate;
pub mod accuracy;
pub mod adapt;
pub mod exfil;
pub mod extensions;
pub mod faults;
pub mod fleet;
pub mod latency;
pub mod mitigation;
pub mod overhead;
pub mod practical;
pub mod robustness;
pub mod signals;
pub mod table2;

use gpu_sc_attack::registry::Registry;
use minipool::Pool;

/// Runs one experiment, printing its report through [`crate::report`].
pub type Runner = fn(&Ctx);

/// Every experiment the `experiments` binary runs, in `all` order: name,
/// what it reproduces, runner. The committed `BENCH_experiments.json`
/// baseline must list every name here (a root-package test checks it).
pub const CATALOGUE: &[(&str, &str, Runner)] = &[
    ("fig3", "three counter changes per key press", signals::fig3),
    ("fig5", "per-key PC variations + dup/split", signals::fig5),
    ("fig6", "per-key delta scatter", signals::fig6),
    ("fig11", "dup/split/noise census", accuracy::fig11),
    ("fig13", "app-switch bursts", signals::fig13),
    ("fig14", "echo ±2 length tracking", signals::fig14),
    ("fig16", "volunteer typing timing", signals::fig16),
    ("fig17", "accuracy vs credential length", accuracy::fig17),
    ("fig18", "per-key accuracy", accuracy::fig18),
    ("table2", "coarse-counter baseline", table2::table2),
    ("fig19", "accuracy per target app", accuracy::fig19),
    ("fig20", "accuracy per keyboard", accuracy::fig20),
    ("fig21", "impact of typing speed", robustness::fig21),
    ("fig22", "impact of CPU/GPU load", robustness::fig22),
    ("fig23", "impact of sampling interval", robustness::fig23),
    ("fig24", "adaptability matrix", adapt::fig24),
    ("fig25", "inference latency histogram", overhead::fig25),
    ("fig26", "battery overhead", overhead::fig26),
    ("fig27", "practical session event traces", practical::fig27),
    ("fig28", "practical accuracy", practical::fig28),
    ("fig29", "PNC animation obfuscation", mitigation::fig29),
    ("mitigation", "§9 mitigation matrix", mitigation::mitigation),
    ("modelsize", "§7.6 model sizes", adapt::modelsize),
    ("guessing", "exact and single-edit recovery (§7.1 extension)", extensions::guessing),
    ("defense-tuning", "cheapest sufficient §9.3 decoy rate", extensions::defense_tuning),
    ("ablate-greedy", "greedy vs full-trace Algorithm 1", ablate::ablate_greedy),
    (
        "ablate-corroboration",
        "echo-corroboration insertion filter",
        extensions::ablate_corroboration,
    ),
    ("ablate-counters", "counter-subset ablation", ablate::ablate_counters),
    ("ablate-threshold", "C_th sweep", ablate::ablate_threshold),
    ("faults", "fault intensity × retry budget sweep", faults::faults),
    ("latency", "press-to-inference latency, greedy vs lookahead", latency::latency),
    ("exfil", "split sampler/classifier over a lossy wire", exfil::exfil),
    ("fleet", "fleet-scale session orchestration matrix", fleet::fleet),
];

/// Shared experiment context: the process-wide model registry (training
/// takes seconds per configuration, so every experiment shares one), a
/// trial-count scale (1.0 = quick defaults, larger = closer to paper-scale
/// runs) and the worker pool trials fan out on.
///
/// `Ctx` is shared by reference across concurrently-running experiments,
/// so everything in it is thread-safe; the seeded trial plan keeps results
/// byte-identical at any worker count.
#[derive(Debug)]
pub struct Ctx {
    pub registry: Registry,
    pub scale: f64,
    pub pool: Pool,
}

impl Ctx {
    /// Creates a sequential context with the given trial scale.
    pub fn new(scale: f64) -> Self {
        Ctx::with_pool(scale, Pool::sequential())
    }

    /// Creates a context fanning trials out on `pool`.
    pub fn with_pool(scale: f64, pool: Pool) -> Self {
        Ctx { registry: Registry::default(), scale, pool }
    }

    /// Scales a default trial count, keeping at least 4 trials.
    pub fn trials(&self, default: usize) -> usize {
        ((default as f64 * self.scale).round() as usize).max(4)
    }
}
