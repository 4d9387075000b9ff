//! End-to-end tests of every §9 mitigation against the full attack.

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{SimConfig, TargetApp, UiSimulation};
use gpu_eaves::attack::offline::{ModelStore, Trainer, TrainerConfig};
use gpu_eaves::attack::service::{AttackService, ServiceConfig, ServiceError};
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use gpu_eaves::kgsl::{AccessPolicy, Errno, ObfuscationConfig, SelinuxDomain};
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

fn victim(cfg: SimConfig, seed: u64) -> (UiSimulation, SimInstant) {
    let mut sim = UiSimulation::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut typist = Typist::new(VOLUNTEERS[1]);
    let plan = typist.type_text(SECRET, SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);
    (sim, end)
}

#[test]
fn stock_android_leaks_the_credential() {
    let (mut sim, end) =
        victim(SimConfig { system_noise_hz: 0.0, ..SimConfig::paper_default(1) }, 1);
    let service = AttackService::new(store(), ServiceConfig::default());
    let result = service.eavesdrop(&mut sim, end).expect("stock policy");
    assert_eq!(result.recovered_text, SECRET);
}

#[test]
fn deny_all_policy_blocks_the_attack_entirely() {
    let (mut sim, end) = victim(SimConfig::paper_default(2), 2);
    sim.device().set_policy(AccessPolicy::DenyAll);
    let service = AttackService::new(store(), ServiceConfig::default());
    let err = service.eavesdrop(&mut sim, end).unwrap_err();
    assert_eq!(err, ServiceError::Device(Errno::Eacces));
}

#[test]
fn rbac_starves_the_attacker_but_not_the_profiler() {
    let (mut sim, end) = victim(SimConfig::paper_default(3), 3);
    sim.device().set_policy(AccessPolicy::role_based([SelinuxDomain::GpuProfiler]));
    let service = AttackService::new(store(), ServiceConfig::default());
    // The sampler opens and reads fine, but the local view never moves, so
    // device recognition finds nothing.
    let err = service.eavesdrop(&mut sim, end).unwrap_err();
    assert_eq!(err, ServiceError::UnrecognisedDevice);
}

#[test]
fn disabling_popups_kills_per_key_recovery() {
    let cfg =
        SimConfig { popups_enabled: false, system_noise_hz: 0.0, ..SimConfig::paper_default(4) };
    let (mut sim, end) = victim(cfg, 4);
    let service = AttackService::new(store(), ServiceConfig::default());
    match service.eavesdrop(&mut sim, end) {
        Ok(result) => {
            let score = result.score(&sim);
            assert_eq!(score.correct_keys, 0, "no popups → no per-key inference");
        }
        // Without keyboard redraws, even device recognition may fail — an
        // equally dead attack.
        Err(e) => assert_eq!(e, ServiceError::UnrecognisedDevice),
    }
}

#[test]
fn heavy_obfuscation_collapses_accuracy() {
    let cfg = SimConfig {
        obfuscation: Some(ObfuscationConfig::popup_sized(80.0)),
        system_noise_hz: 0.0,
        ..SimConfig::paper_default(5)
    };
    let (mut sim, end) = victim(cfg, 5);
    let service = AttackService::new(store(), ServiceConfig::default());
    let result = service.eavesdrop(&mut sim, end).expect("reads still allowed");
    let score = result.score(&sim);
    assert!(
        score.key_accuracy() < 0.75,
        "80 decoys/s must hurt badly, got {:.2}",
        score.key_accuracy()
    );
}

#[test]
fn pnc_animation_acts_as_accidental_obfuscation() {
    let cfg =
        SimConfig { app: TargetApp::Pnc, system_noise_hz: 0.0, ..SimConfig::paper_default(6) };
    let (mut sim, end) = victim(cfg, 6);
    let service = AttackService::new(store(), ServiceConfig::default());
    let result = service.eavesdrop(&mut sim, end).expect("reads allowed");
    let score = result.score(&sim);
    assert!(
        score.key_accuracy() < 0.7,
        "the animated login must degrade accuracy (paper: 30.2%), got {:.2}",
        score.key_accuracy()
    );
    assert!(!score.text_exact);
}

#[test]
fn mid_session_policy_change_stops_the_stream() {
    // Install the mitigation *after* the attack already started sampling.
    // The resilient sampler keeps trying (the policy might flip back), but a
    // span in which every read is denied yields nothing — and a span with
    // zero acquired samples reports the denial instead of an empty trace.
    let (mut sim, _) = victim(SimConfig::paper_default(7), 7);
    let mut sampler = gpu_eaves::attack::Sampler::open(
        sim.device(),
        gpu_eaves::attack::SamplerConfig::default_8ms(),
    )
    .unwrap();
    sampler.sample_until(&mut sim, SimInstant::from_millis(300)).unwrap();
    sim.device().set_policy(AccessPolicy::DenyAll);
    let err = sampler.sample_until(&mut sim, SimInstant::from_millis(600)).unwrap_err();
    assert_eq!(err, Errno::Eacces);
    assert!(sampler.report().denied_reads > 0, "every slot was denied and recorded");
}

#[test]
fn policy_flip_and_back_yields_a_partial_stream() {
    // If the denial is temporary, the resilient sampler must ride it out:
    // the session degrades (a gap in the trace) instead of dying.
    let (mut sim, _) = victim(SimConfig::paper_default(8), 8);
    let mut sampler = gpu_eaves::attack::Sampler::open(
        sim.device(),
        gpu_eaves::attack::SamplerConfig::default_8ms(),
    )
    .unwrap();
    sampler.sample_until(&mut sim, SimInstant::from_millis(200)).unwrap();
    sim.device().set_policy(AccessPolicy::DenyAll);
    sampler.sample_until(&mut sim, SimInstant::from_millis(400)).unwrap_err();
    sim.device().set_policy(AccessPolicy::default());
    // The same sampler keeps working once access returns.
    let trace = sampler.sample_until(&mut sim, SimInstant::from_millis(600)).unwrap();
    assert!(!trace.is_empty(), "stream resumes after the policy flips back");
    let report = sampler.report();
    assert!(report.denied_reads > 0);
    assert!(report.coverage() < 1.0, "the denied span must show up as lost coverage");
}
