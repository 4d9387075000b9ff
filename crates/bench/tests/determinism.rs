//! The deterministic-parallelism contract: for a fixed seed, every result
//! and every captured report is byte-identical at any worker count.
//!
//! Trial inputs are pre-drawn in sequential draw order and folded back in
//! trial order, so `--jobs 1` and `--jobs 4` must agree exactly — including
//! under an active fault plan, where per-trial fault schedules derive from
//! the per-trial seeds.

use adreno_sim::time::SimDuration;
use bench::experiments::{accuracy, fleet, robustness, Ctx};
use bench::report::capture;
use bench::{eval_credentials, TrialOptions};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::registry::Registry;
use input_bot::corpus::CredentialKind;
use kgsl::FaultPlan;
use minipool::Pool;

/// A small evaluation run at a given worker count.
fn eval_at(jobs: usize, fault_plan: Option<FaultPlan>) -> gpu_sc_attack::metrics::Aggregate {
    eval_at_budget(jobs, fault_plan, None)
}

fn eval_at_budget(
    jobs: usize,
    fault_plan: Option<FaultPlan>,
    retry_budget: Option<u32>,
) -> gpu_sc_attack::metrics::Aggregate {
    let pool = if jobs == 1 { Pool::sequential() } else { Pool::new(jobs) };
    let mut opts = TrialOptions::paper_default(0);
    opts.fault_plan = fault_plan;
    if let Some(budget) = retry_budget {
        opts.service.sampler.retry = gpu_sc_attack::sampler::RetryPolicy::with_budget(budget);
    }
    let handle = Registry::default().get_or_train(opts.sim.device, opts.sim.keyboard, opts.sim.app);
    eval_credentials(
        &pool,
        &ModelStore::from(handle),
        &opts,
        CredentialKind::Username,
        10,
        8,
        0xD37,
    )
}

#[test]
fn eval_credentials_is_identical_at_any_worker_count() {
    let seq = eval_at(1, None);
    let par = eval_at(4, None);
    assert_eq!(seq, par, "jobs=4 must reproduce jobs=1 exactly");
}

#[test]
fn eval_credentials_is_identical_under_faults() {
    // High intensity, so the plan visibly perturbs the run even through
    // the sampler's retry budget.
    let plan = FaultPlan::with_intensity(0xFA, 0.9, SimDuration::from_secs(8));
    let seq = eval_at(1, Some(plan.clone()));
    let par = eval_at(4, Some(plan.clone()));
    assert_eq!(seq, par, "fault schedules must replay identically in parallel");
    // Non-vacuousness: the default retry budget can absorb this plan
    // completely, so pin the perturbation against the fail-stop sampler
    // (budget 0), which cannot.
    assert_ne!(
        eval_at_budget(1, Some(plan), Some(0)),
        eval_at(1, None),
        "fault plan should perturb the fail-stop run"
    );
}

/// Captured experiment reports — what the runner prints — are identical
/// between a sequential and a 4-worker context.
#[test]
fn experiment_reports_are_identical_at_any_worker_count() {
    let run = |jobs: usize| -> String {
        let pool = if jobs == 1 { Pool::sequential() } else { Pool::new(jobs) };
        let ctx = Ctx::with_pool(0.1, pool);
        let ((), text) = capture(|| {
            accuracy::fig11(&ctx);
            robustness::fig21(&ctx);
        });
        text
    };
    let seq = run(1);
    let par = run(4);
    assert!(!seq.is_empty(), "reports should capture, not hit stdout");
    assert_eq!(seq, par, "captured reports must not depend on worker count");
}

/// The fleet orchestration matrix — many concurrent sessions interleaved
/// on the ring run queue, with live fault and link plans — captures the
/// same report at any worker count. Throughput (wall-clock) goes to
/// stderr and telemetry only, so it cannot perturb this.
#[test]
fn fleet_report_is_identical_at_any_worker_count() {
    let run = |jobs: usize| -> String {
        let pool = if jobs == 1 { Pool::sequential() } else { Pool::new(jobs) };
        let ctx = Ctx::with_pool(0.05, pool);
        let ((), text) = capture(|| fleet::fleet(&ctx));
        text
    };
    let seq = run(1);
    let par = run(4);
    assert!(seq.contains("salvaged"), "fleet report should tabulate session outcomes");
    assert_eq!(seq, par, "fleet report must not depend on worker count");
}

/// Telemetry collection (aggregates + trace events) must not leak into the
/// captured reports: with tracing on, `--jobs 1` and `--jobs 4` still agree
/// byte for byte.
#[test]
fn reports_stay_identical_with_telemetry_enabled() {
    spansight::enable_tracing(4096);
    let run = |jobs: usize| -> String {
        let pool = if jobs == 1 { Pool::sequential() } else { Pool::new(jobs) };
        let ctx = Ctx::with_pool(0.1, pool);
        let ((), text) = capture(|| accuracy::fig17(&ctx));
        text
    };
    let seq = run(1);
    let par = run(4);
    assert!(spansight::tracing_enabled());
    assert_eq!(seq, par, "telemetry must stay off the report stream");
}
