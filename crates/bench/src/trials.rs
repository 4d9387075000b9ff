//! Trial runners: one victim session, end to end, scored.

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::{SimConfig, UiSimulation};
use gpu_sc_attack::metrics::Aggregate;
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::service::{AttackService, ServiceConfig, ServiceError, SessionResult};
use gpu_sc_attack::SessionScore;
use input_bot::corpus::{generate, CredentialKind};
use input_bot::script::Typist;
use input_bot::timing::{SpeedClass, VolunteerModel, VOLUNTEERS};
use minipool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-trial options.
#[derive(Debug, Clone)]
pub struct TrialOptions {
    pub sim: SimConfig,
    pub service: ServiceConfig,
    /// The volunteer whose timing drives the typing.
    pub volunteer: VolunteerModel,
    /// Optional speed-class constraint (§7.2).
    pub speed: Option<SpeedClass>,
    /// Optional device fault plan, installed before the attack starts (the
    /// robustness sweeps in `experiments::faults`, the `fleet` fault mix).
    pub fault_plan: Option<kgsl::FaultPlan>,
}

impl TrialOptions {
    /// Paper-default options with a given seed.
    pub fn paper_default(seed: u64) -> Self {
        TrialOptions {
            sim: SimConfig::paper_default(seed),
            service: ServiceConfig::default(),
            volunteer: VOLUNTEERS[1],
            speed: None,
            fault_plan: None,
        }
    }
}

/// Draws `trials` `(text, volunteer, seed)` inputs from `root_seed`, in
/// trial order: each trial's text, then its seed. Volunteers rotate by
/// trial index. Drawn up front, the plan gives trials that fan out on a
/// pool identical inputs at any worker count.
pub fn trial_plan(
    root_seed: u64,
    kind: CredentialKind,
    len: usize,
    trials: usize,
) -> Vec<(String, VolunteerModel, u64)> {
    let mut rng = StdRng::seed_from_u64(root_seed);
    (0..trials)
        .map(|t| {
            let text = generate(&mut rng, kind, len);
            (text, VOLUNTEERS[t % VOLUNTEERS.len()], rng.gen::<u64>())
        })
        .collect()
}

/// One trial's victim: a simulation seeded with `seed` whose volunteer
/// types `text` from t = 900 ms, with `opts`'s fault plan installed.
/// Returns it with the instant sampling stops, 800 ms after the typing
/// ends.
pub fn victim(opts: &TrialOptions, text: &str, seed: u64) -> (UiSimulation, SimInstant) {
    let mut sim = UiSimulation::new(SimConfig { seed, ..opts.sim.clone() });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7157);
    let mut typist = match opts.speed {
        Some(class) => Typist::with_speed(opts.volunteer, class),
        None => Typist::new(opts.volunteer),
    };
    let plan = typist.type_text(text, SimInstant::from_millis(900), &mut rng);
    sim.queue_all(plan.events);
    if let Some(faults) = &opts.fault_plan {
        sim.device().install_fault_plan(faults);
    }
    (sim, plan.end + SimDuration::from_millis(800))
}

/// Runs one credential-typing session through the full attack and scores
/// it. The victim is [`victim`].
///
/// # Errors
///
/// Propagates attack-service errors (mitigations, unrecognised device).
pub fn run_credential_trial(
    store: &ModelStore,
    opts: &TrialOptions,
    text: &str,
    seed: u64,
) -> Result<(SessionScore, SessionResult), ServiceError> {
    let _span = spansight::span("bench", "trial");
    let (mut sim, end) = victim(opts, text, seed);
    let service = AttackService::new(store.clone(), opts.service.clone());
    let result = service.eavesdrop(&mut sim, end)?;
    let score = result.score(&sim);
    Ok((score, result))
}

/// Evaluates `trials` random credentials of length `len` under `opts`,
/// aggregating the paper's accuracy metrics. Volunteer models rotate across
/// trials; trials fan out across `pool`'s workers.
///
/// Deterministic at any worker count: the inputs are a [`trial_plan`], each
/// trial consumes only its own seed, and scores are folded in trial order.
pub fn eval_credentials(
    pool: &Pool,
    store: &ModelStore,
    opts: &TrialOptions,
    kind: CredentialKind,
    len: usize,
    trials: usize,
    seed: u64,
) -> Aggregate {
    let plan = trial_plan(seed, kind, len, trials);
    let scores = pool.par_map(plan, |_, (text, volunteer, trial_seed)| {
        let mut o = opts.clone();
        o.volunteer = volunteer;
        score_or_miss(store, &o, &text, trial_seed)
    });
    let mut agg = Aggregate::default();
    for score in &scores {
        agg.add(score);
    }
    agg
}

/// Runs one trial and scores it; a failed session recovers nothing (all
/// keys missed).
pub fn score_or_miss(
    store: &ModelStore,
    opts: &TrialOptions,
    text: &str,
    seed: u64,
) -> SessionScore {
    match run_credential_trial(store, opts, text, seed) {
        Ok((score, _)) => score,
        Err(_) => SessionScore {
            correct_keys: 0,
            total_keys: text.chars().count(),
            spurious_keys: 0,
            text_exact: false,
            edit_distance: text.chars().count(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sc_attack::registry::Registry;

    #[test]
    fn trial_round_trips() {
        let opts = TrialOptions::paper_default(5);
        let handle =
            Registry::default().get_or_train(opts.sim.device, opts.sim.keyboard, opts.sim.app);
        let store = ModelStore::from(handle);
        let (score, result) = run_credential_trial(&store, &opts, "abcd", 11).unwrap();
        assert_eq!(score.total_keys, 4);
        assert!(score.correct_keys >= 3, "near-clean conditions: {score:?}");
        assert!(!result.recovered_text.is_empty());
    }
}
