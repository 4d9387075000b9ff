//! Per-keystroke press-to-inference latency (§5.1 timeliness trade-off).
//!
//! The paper frames full-trace inference as "eavesdropping can only be done
//! after the user input finishes". The streaming pipeline stamps every
//! accepted press with the simulated time the pipeline *committed* to it
//! ([`InferredKey::decided_at`]), so the trade-off becomes measurable: how
//! long after the victim's finger touched the key did the attacker know the
//! character? Greedy Algorithm 1 decides on the change that carries the
//! press; the lookahead variant holds each change until the next one
//! arrives, buying its split-pairing accuracy with exactly that wait.

use adreno_sim::time::SimDuration;
use adreno_sim::SimInstant;
use android_ui::sim::{SimConfig, UiSimulation};
use gpu_sc_attack::metrics::press_latencies_ms;
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::service::AttackService;
use gpu_sc_attack::InferredKey;
use input_bot::corpus::{generate, CredentialKind};
use input_bot::script::Typist;
use input_bot::timing::{VolunteerModel, VOLUNTEERS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiments::Ctx;
use crate::report;
use crate::trials::TrialOptions;

const CREDENTIAL_LEN: usize = 10;

/// Histogram bucket edges, in milliseconds of simulated time. Also the
/// edges of the `bench.latency.press_to_inference_ms` telemetry histogram
/// in `BENCH_experiments.json`.
const LATENCY_EDGES_MS: &[u64] = &[10, 20, 40, 80, 160, 320, 640];

/// Per-press latencies of one session: for every true press matched to an
/// inferred key, `decided_at - <true press time>` in milliseconds. Latency
/// is only meaningful for presses the attack actually got right.
fn session_latencies(
    truth_presses: &[(SimInstant, char)],
    inferred: &[InferredKey],
) -> (Vec<u64>, usize) {
    let timed = inferred.iter().map(|k| (*k, k.decided_at));
    (press_latencies_ms(truth_presses, timed), truth_presses.len())
}

/// Runs one credential session and returns its matched-press latencies —
/// [`crate::trials::run_credential_trial`] would drop the simulation (and
/// with it the ground-truth press times) before we can diff against them.
fn latency_trial(
    store: &ModelStore,
    opts: &TrialOptions,
    text: &str,
    seed: u64,
) -> Option<(Vec<u64>, usize)> {
    let _span = spansight::span("bench", "trial");
    let mut sim = UiSimulation::new(SimConfig { seed, ..opts.sim.clone() });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7157);
    let mut typist = Typist::new(opts.volunteer);
    let plan = typist.type_text(text, SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);

    let service = AttackService::new(store.clone(), opts.service.clone());
    let result = service.eavesdrop(&mut sim, end).ok()?;
    // Pre-correction keys: a press later removed by a detected backspace
    // was still inferred (and its latency paid) when it happened.
    Some(session_latencies(&sim.truth().keystrokes(), &result.keys_before_corrections))
}

/// One pipeline configuration's aggregated latencies.
struct ConfigRow {
    label: &'static str,
    latencies: Vec<u64>,
    presses: usize,
}

/// Runs `trials` sessions under `full_trace` and aggregates press-to-
/// inference latencies. Inputs are pre-drawn in sequential order and
/// results fold in trial order, so the row is identical at any worker
/// count.
fn run_config(
    ctx: &Ctx,
    store: &ModelStore,
    label: &'static str,
    full_trace: bool,
    trials: usize,
    seed: u64,
) -> ConfigRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<(String, VolunteerModel, u64)> = (0..trials)
        .map(|t| {
            let text = generate(&mut rng, CredentialKind::Password, CREDENTIAL_LEN);
            (text, VOLUNTEERS[t % VOLUNTEERS.len()], rng.gen::<u64>())
        })
        .collect();
    let outcomes = ctx.pool.par_map(inputs, |_, (text, volunteer, trial_seed)| {
        let mut opts = TrialOptions::paper_default(0);
        opts.volunteer = volunteer;
        opts.service.full_trace = full_trace;
        latency_trial(store, &opts, &text, trial_seed)
    });
    let mut row = ConfigRow { label, latencies: Vec::new(), presses: 0 };
    for outcome in outcomes.into_iter().flatten() {
        let (latencies, presses) = outcome;
        for &ms in &latencies {
            spansight::record("bench.latency.press_to_inference_ms", LATENCY_EDGES_MS, ms);
        }
        row.latencies.extend(latencies);
        row.presses += presses;
    }
    row.latencies.sort_unstable();
    row
}

/// The `latency` experiment: press-to-inference latency distribution of the
/// greedy (decide-on-arrival) pipeline against the one-change-lookahead
/// variant behind `full_trace`.
pub fn latency(ctx: &Ctx) {
    report::section("latency", "press-to-inference latency (§5.1 timeliness trade-off)");
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));
    let trials = ctx.trials(12);

    for (label, full_trace) in [("greedy", false), ("lookahead", true)] {
        let row = run_config(ctx, &store, label, full_trace, trials, 0x1A7E);
        report::kv(
            format!("-- {} --", row.label).as_str(),
            format!("{} matched presses of {}", row.latencies.len(), row.presses),
        );
        if row.latencies.is_empty() {
            continue;
        }
        let buckets: Vec<(String, usize)> = LATENCY_EDGES_MS
            .iter()
            .enumerate()
            .map(|(i, &hi)| {
                let lo = if i == 0 { 0 } else { LATENCY_EDGES_MS[i - 1] };
                let n = row.latencies.iter().filter(|&&ms| ms >= lo && ms < hi).count();
                (format!("{lo:>4}-{hi:<4}ms"), n)
            })
            .chain(std::iter::once((
                format!("{:>4}+ms   ", LATENCY_EDGES_MS[LATENCY_EDGES_MS.len() - 1]),
                row.latencies
                    .iter()
                    .filter(|&&ms| ms >= LATENCY_EDGES_MS[LATENCY_EDGES_MS.len() - 1])
                    .count(),
            )))
            .collect();
        report::histogram(&buckets);
        let p = |q: f64| row.latencies[((row.latencies.len() - 1) as f64 * q) as usize];
        report::kv(
            "median / p95 / max",
            format!("{} / {} / {} ms", p(0.5), p(0.95), row.latencies[row.latencies.len() - 1]),
        );
    }
    report::kv(
        "expected",
        "greedy decides within a read interval or two; lookahead pays the wait for the next change",
    );
}
