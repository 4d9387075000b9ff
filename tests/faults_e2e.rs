//! End-to-end tests of the fault-injection layer against the full attack:
//! the service must degrade gracefully — partial results with an honest
//! [`DegradationReport`], never a panic, and an `Err` only when it acquired
//! nothing at all — and the whole fault schedule must be deterministic.

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::attack::offline::{ModelStore, Trainer, TrainerConfig};
use gpu_eaves::attack::service::{AttackService, ServiceConfig, SessionResult};
use gpu_eaves::attack::{Sampler, SamplerConfig};
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use gpu_eaves::kgsl::fault::FaultEvent;
use gpu_eaves::kgsl::{AccessPolicy, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SECRET: &str = "hunter2pass";

fn store() -> ModelStore {
    let cfg = SimConfig::paper_default(0);
    let model = Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app);
    let mut s = ModelStore::new();
    s.add(model);
    s
}

fn victim(seed: u64) -> (UiSimulation, SimInstant) {
    let cfg = SimConfig { system_noise_hz: 0.0, ..SimConfig::paper_default(seed) };
    let mut sim = UiSimulation::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut typist = Typist::new(VOLUNTEERS[1]);
    let plan = typist.type_text(SECRET, SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);
    (sim, end)
}

fn eavesdrop(seed: u64, plan: Option<&FaultPlan>) -> SessionResult {
    let (mut sim, end) = victim(seed);
    if let Some(plan) = plan {
        sim.device().install_fault_plan(plan);
    }
    let service = AttackService::new(store(), ServiceConfig::default());
    service.eavesdrop(&mut sim, end).expect("session must survive")
}

#[test]
fn null_fault_plan_is_bit_for_bit_the_baseline() {
    let baseline = eavesdrop(1, None);
    let nulled = eavesdrop(1, Some(&FaultPlan::new(99)));
    assert_eq!(baseline.recovered_text, SECRET);
    assert_eq!(nulled.recovered_text, baseline.recovered_text);
    assert_eq!(nulled.keys_before_corrections, baseline.keys_before_corrections);
    assert!(baseline.degradation.is_clean());
    assert!(nulled.degradation.is_clean());
    assert_eq!(nulled.degradation, baseline.degradation);
}

#[test]
fn moderate_faults_degrade_instead_of_failing() {
    let (_, end) = victim(2);
    let horizon = end.saturating_since(SimInstant::ZERO);
    let plan = FaultPlan::with_intensity(7, 0.35, horizon);
    let result = eavesdrop(2, Some(&plan));
    let d = result.degradation;
    assert!(d.faults_seen > 0, "the plan must actually fire: {d}");
    assert!(!d.is_clean());
    assert!(d.coverage > 0.5, "retries keep most of the trace: {d}");
    assert!(
        !result.keys_before_corrections.is_empty(),
        "a moderately faulty session still infers keys"
    );
}

#[test]
fn same_fault_seed_recovers_the_same_text() {
    let (_, end) = victim(3);
    let horizon = end.saturating_since(SimInstant::ZERO);
    let plan = FaultPlan::with_intensity(11, 0.4, horizon);
    let a = eavesdrop(3, Some(&plan));
    let b = eavesdrop(3, Some(&plan));
    assert_eq!(a.recovered_text, b.recovered_text);
    assert_eq!(a.keys_before_corrections, b.keys_before_corrections);
    assert_eq!(a.degradation, b.degradation);

    // A different fault seed perturbs the schedule (sanity: the plan is
    // doing something seed-dependent).
    let other = FaultPlan::with_intensity(12, 0.4, horizon);
    let c = eavesdrop(3, Some(&other));
    assert_ne!(a.degradation, c.degradation);
}

#[test]
fn mid_session_slumber_is_reanchored_not_misread() {
    // One GPU power-collapse right in the middle of the typing burst.
    let plan = FaultPlan::new(0).at(SimInstant::from_millis(2_500), FaultEvent::Slumber);
    let result = eavesdrop(4, Some(&plan));
    let d = result.degradation;
    assert!(d.reservations_reacquired >= 1, "sampler re-reserved after the slumber: {d}");
    assert!(d.counter_resets >= 1, "the backward jump was detected and re-anchored: {d}");
    let score_floor = result.keys_before_corrections.len();
    assert!(score_floor >= SECRET.len() / 2, "most keys survive one slumber, got {score_floor}");
}

#[test]
fn mid_session_revocation_is_survived_by_reopening() {
    let plan = FaultPlan::new(0).at(SimInstant::from_millis(2_500), FaultEvent::RevokeFds);
    let result = eavesdrop(5, Some(&plan));
    let d = result.degradation;
    assert!(d.fd_reopens >= 1, "sampler reopened the device file: {d}");
    assert!(
        result.keys_before_corrections.len() >= SECRET.len() / 2,
        "most keys survive one revocation"
    );
}

#[test]
fn a_storm_of_faults_never_panics() {
    // Worst-case intensity: the result may be garbage, but the service must
    // return *something* (or a clean error) rather than crash.
    let (mut sim, end) = victim(6);
    let horizon = end.saturating_since(SimInstant::ZERO);
    sim.device().install_fault_plan(&FaultPlan::with_intensity(13, 1.0, horizon));
    let service = AttackService::new(store(), ServiceConfig::default());
    match service.eavesdrop(&mut sim, end) {
        Ok(result) => {
            assert!(result.degradation.faults_seen > 0);
            assert!(result.degradation.coverage <= 1.0);
        }
        Err(err) => {
            // Acceptable only as the documented "nothing acquired" /
            // "nothing recognisable" outcomes.
            use gpu_eaves::attack::service::ServiceError;
            assert!(matches!(err, ServiceError::Device(_) | ServiceError::UnrecognisedDevice));
        }
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The raw fault path, pinned to a constant rather than compared with a
/// second run: a heavy fault plan (transients, truncated reads, slumbers,
/// revocations) plus a scheduled deny-all policy flip and its reversal,
/// sampled by the resilient sampler over a ~3 s Chase victim. The digest
/// covers every sample (timestamp and all eleven values), the
/// `SamplerReport` and the `FaultLog`, so a change in the device's
/// fault-draw order, its check order or its slumber baseline shows up here
/// even when it is self-consistent run to run.
#[test]
fn fault_path_replays_the_pinned_sample_digest() {
    // Computed by this same test body on the device as it was before its
    // per-ioctl locks were folded into one (311 samples; 4 slumbers, 1
    // revocation, 21 truncated reads, 62 denied slots). A change here is a
    // behaviour change of the fault path and must be explained, not
    // re-pinned silently.
    const PINNED: u64 = 0x63E6_E7C5_2659_AAC0;

    let (mut sim, _) = victim(8);
    let end = SimInstant::from_millis(3_000);
    let horizon = end.saturating_since(SimInstant::ZERO);
    let plan = FaultPlan::with_intensity(21, 0.9, horizon)
        .at(SimInstant::from_millis(1_200), FaultEvent::PolicyChange(AccessPolicy::DenyAll))
        .at(SimInstant::from_millis(1_700), FaultEvent::PolicyChange(AccessPolicy::Unrestricted));
    sim.device().install_fault_plan(&plan);
    let mut sampler =
        Sampler::open(sim.device(), SamplerConfig::default()).expect("open within the budget");
    let trace = sampler.sample_until(&mut sim, end).expect("some reads succeed");
    let report = sampler.report();
    let log = sim.device().fault_log().expect("a plan is installed");
    assert!(report.denied_reads > 0, "the deny-all window must be sampled: {report:?}");
    assert!(log.slumbers > 0 && log.revocations > 0 && log.truncated_reads > 0, "{log:?}");

    let mut digest = 0xCBF2_9CE4_8422_2325;
    for sample in trace.iter() {
        digest = fnv1a(digest, &sample.at.as_nanos().to_le_bytes());
        for value in sample.values.as_array() {
            digest = fnv1a(digest, &value.to_le_bytes());
        }
    }
    digest = fnv1a(digest, format!("{report:?}").as_bytes());
    digest = fnv1a(digest, format!("{log:?}").as_bytes());
    assert_eq!(digest, PINNED, "{} samples, {report:?}, {log:?}", trace.len());
}
