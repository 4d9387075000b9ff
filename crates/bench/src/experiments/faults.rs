//! Fault-injection robustness sweep: accuracy under a faulty `/dev/kgsl-3d0`
//! as a function of fault intensity and the sampler's retry budget.
//!
//! Not a paper figure — the paper measured on real hardware where the driver
//! misbehaves for free. The sweep answers the engineering question the
//! resilient sampler exists for: how much fault pressure does the attack
//! absorb before accuracy collapses, and how much of that absorption is the
//! retry budget's doing (budget 0 = the original fail-stop sampler)?

use adreno_sim::time::SimDuration;
use gpu_sc_attack::metrics::Aggregate;
use gpu_sc_attack::offline::ModelStore;
use input_bot::corpus::{generate, CredentialKind};
use input_bot::timing::VOLUNTEERS;
use kgsl::FaultPlan;
use minipool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::{run_credential_trial, TrialOptions};

/// Every session in the sweep fits comfortably inside this horizon (10-key
/// credentials finish well before 8 s), so scheduled fault events can land
/// anywhere in a session.
const HORIZON: SimDuration = SimDuration::from_secs(8);

const CREDENTIAL_LEN: usize = 10;

/// Accuracy plus the degradation telemetry averaged over completed sessions.
#[derive(Debug, Default)]
struct SweepCell {
    agg: Aggregate,
    completed: usize,
    failed: usize,
    faults_seen: u64,
    retries_spent: u64,
    coverage_sum: f64,
}

impl SweepCell {
    fn mean_coverage(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.coverage_sum / self.completed as f64
    }

    fn mean_faults(&self) -> f64 {
        let sessions = self.completed + self.failed;
        if sessions == 0 {
            return 0.0;
        }
        self.faults_seen as f64 / sessions as f64
    }
}

/// Runs `trials` credential sessions under a per-trial fault plan of the
/// given intensity and the given retry budget, fanned out on `pool`. Texts
/// and seeds are pre-drawn in sequential order; per-trial results fold into
/// the cell in trial order, so the cell is identical at any worker count.
fn sweep_cell(
    pool: &Pool,
    store: &ModelStore,
    base: &TrialOptions,
    intensity: f64,
    budget: u32,
    trials: usize,
    seed: u64,
) -> SweepCell {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan: Vec<(String, u64, usize)> = (0..trials)
        .map(|t| (generate(&mut rng, CredentialKind::Username, CREDENTIAL_LEN), rng.gen(), t))
        .collect();
    let outcomes = pool.par_map(plan, |_, (text, trial_seed, t)| {
        let mut opts = base.clone();
        opts.volunteer = VOLUNTEERS[t % VOLUNTEERS.len()];
        opts.service.sampler.retry_budget = budget;
        opts.fault_plan = Some(FaultPlan::with_intensity(trial_seed ^ 0xFA, intensity, HORIZON));
        match run_credential_trial(store, &opts, &text, trial_seed) {
            Ok(sr) => Ok(sr),
            Err(e) => Err((text.chars().count(), e)),
        }
    });
    let mut cell = SweepCell::default();
    for outcome in outcomes {
        match outcome {
            Ok((score, result)) => {
                cell.agg.add(&score);
                cell.completed += 1;
                cell.faults_seen += result.degradation.faults_seen;
                cell.retries_spent += result.degradation.retries_spent;
                cell.coverage_sum += result.degradation.coverage;
            }
            Err((lost_keys, _)) => {
                // The service acquired nothing (or could not recognise the
                // device through the noise): every key of this text is lost.
                cell.failed += 1;
                cell.agg.add(&gpu_sc_attack::SessionScore {
                    correct_keys: 0,
                    total_keys: lost_keys,
                    spurious_keys: 0,
                    text_exact: false,
                    edit_distance: lost_keys,
                });
            }
        }
    }
    cell
}

/// The fault-intensity × retry-budget sweep, prefixed by the two sanity
/// checks the fault layer guarantees: a null plan reproduces the fault-free
/// baseline bit for bit, and the same fault seed reproduces the same
/// degraded session.
pub fn faults(ctx: &Ctx) {
    report::section("faults", "fault injection: intensity × retry budget");
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));

    // Sanity 1: a plan with zero rates and no scheduled events must not
    // perturb the attack at all.
    let text =
        generate(&mut StdRng::seed_from_u64(0xBA5E), CredentialKind::Username, CREDENTIAL_LEN);
    let (clean_score, clean) =
        run_credential_trial(&store, &base, &text, 0xBA5E).expect("fault-free baseline");
    let mut nulled = base.clone();
    nulled.fault_plan = Some(FaultPlan::new(7));
    let (null_score, null) =
        run_credential_trial(&store, &nulled, &text, 0xBA5E).expect("null plan");
    assert_eq!(null.recovered_text, clean.recovered_text, "null plan must be invisible");
    assert_eq!(null_score, clean_score);
    report::kv(
        "null plan == baseline",
        format!(
            "ok (recovered {:?}, clean={})",
            clean.recovered_text,
            clean.degradation.is_clean()
        ),
    );

    // Sanity 2: replaying one faulty session with the same fault seed gives
    // the same text and the same degradation report.
    let mut faulty = base.clone();
    faulty.fault_plan = Some(FaultPlan::with_intensity(21, 0.4, HORIZON));
    let (_, a) = run_credential_trial(&store, &faulty, &text, 0xBA5E).expect("faulty run a");
    let (_, b) = run_credential_trial(&store, &faulty, &text, 0xBA5E).expect("faulty run b");
    assert_eq!(a.recovered_text, b.recovered_text, "fault schedule must be deterministic");
    assert_eq!(a.degradation, b.degradation);
    report::kv(
        "same fault seed replays",
        format!(
            "ok ({} faults, coverage {:.1}%)",
            a.degradation.faults_seen,
            a.degradation.coverage * 100.0
        ),
    );

    // Sanity 3: truncated reads (a prefix of the read block filled, then
    // EINTR) surface as transient faults the retry layer absorbs — the
    // session still completes and still recovers text.
    let mut trunc = base.clone();
    trunc.fault_plan = Some(FaultPlan::new(33).with_truncated_reads(0.2));
    let (_, t) = run_credential_trial(&store, &trunc, &text, 0xBA5E).expect("truncated-read run");
    assert!(t.degradation.faults_seen > 0, "a 20% truncation rate must register as faults");
    assert!(!t.recovered_text.is_empty(), "truncated reads must degrade, not kill, the session");
    report::kv(
        "truncated reads absorbed",
        format!(
            "ok ({} faults, {} retries, coverage {:.1}%, recovered {:?})",
            t.degradation.faults_seen,
            t.degradation.retries_spent,
            t.degradation.coverage * 100.0,
            t.recovered_text
        ),
    );

    // The sweep. Budget 0 is the fail-stop sampler this PR replaced; 8 is
    // the default; 2 sits in between.
    let per_cell = ctx.trials(8);
    outln!();
    outln!(
        "{:<11} {:>7} {:>12} {:>12} {:>10} {:>9} {:>7}",
        "intensity",
        "budget",
        "text-acc",
        "key-acc",
        "coverage",
        "faults/s",
        "failed"
    );
    for &intensity in &[0.0, 0.1, 0.25, 0.5, 0.75] {
        for &budget in &[0u32, 2, 8] {
            let cell = sweep_cell(&ctx.pool, &store, &base, intensity, budget, per_cell, 0xFA017);
            outln!(
                "{:<11.2} {:>7} {:>11.1}% {:>11.1}% {:>9.1}% {:>9.1} {:>4}/{:<2}",
                intensity,
                budget,
                cell.agg.text_accuracy() * 100.0,
                cell.agg.key_accuracy() * 100.0,
                cell.mean_coverage() * 100.0,
                cell.mean_faults(),
                cell.failed,
                per_cell,
            );
        }
    }
    outln!("(expected: budget 8 holds key accuracy far above budget 0 as intensity grows;");
    outln!(" intensity 0.00 rows match the fault-free accuracy experiments exactly)");
}
