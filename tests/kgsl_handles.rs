//! Kernel-resource conservation: every attack driver, and the trace tap
//! training records through, closes the device-file handle it opened, so
//! the victim's device drops with no handle left open.
//!
//! A device publishes its call counts when it drops, plus
//! `kgsl.handles_open_at_drop` when some handle was never closed, to the
//! spansight track current at that point. Each case runs on a track of its
//! own and reads back only that track. Under faults the counts balance:
//! every handle an `open` handed out was closed, revoked, or left open at
//! drop.

use std::collections::HashMap;
use std::sync::OnceLock;

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::attack::offline::{ModelStore, Trainer, TrainerConfig};
use gpu_eaves::attack::service::{AttackService, ServiceConfig};
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use gpu_eaves::kgsl::fault::FaultEvent;
use gpu_eaves::kgsl::FaultPlan;
use gpu_eaves::wire::{run_split_session, ExfilConfig, LinkPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SECRET: &str = "hunter2pass";

/// One trained model for every case, trained before any case enters its
/// track so the trainer's own device is not counted.
fn service() -> AttackService {
    static STORE: OnceLock<ModelStore> = OnceLock::new();
    let store = STORE.get_or_init(|| {
        let cfg = SimConfig::paper_default(0);
        let mut store = ModelStore::new();
        store.add(Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app));
        store
    });
    AttackService::new(store.clone(), ServiceConfig::default())
}

fn victim(seed: u64) -> (UiSimulation, SimInstant) {
    let mut sim = UiSimulation::new(SimConfig::paper_default(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = Typist::new(VOLUNTEERS[1]).type_text(SECRET, SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);
    (sim, end)
}

/// Runs `session` — which builds, drives and drops one victim — on a
/// fresh track, and returns the `kgsl.*` counters its device published.
fn kgsl_counters(track: &str, session: impl FnOnce()) -> HashMap<&'static str, u64> {
    let track = spansight::register_track(track);
    {
        let _track = spansight::enter_track(track);
        session();
    }
    let snap = spansight::snapshot().for_track(track);
    snap.counters
        .iter()
        .filter(|c| c.name.starts_with("kgsl."))
        .map(|c| (c.name, c.value))
        .collect()
}

#[test]
fn a_fault_free_eavesdrop_closes_what_it_opens() {
    let service = service();
    let counters = kgsl_counters("kgsl-handles-eavesdrop", || {
        let (mut sim, end) = victim(1);
        let result = service.eavesdrop(&mut sim, end).expect("a clean session succeeds");
        assert_eq!(result.recovered_text, SECRET);
    });
    assert_eq!(counters.get("kgsl.open"), Some(&1), "{counters:?}");
    assert_eq!(counters.get("kgsl.close"), counters.get("kgsl.open"), "{counters:?}");
    assert_eq!(counters.get("kgsl.handles_open_at_drop"), None, "{counters:?}");
}

#[test]
fn a_revoked_and_slumbering_eavesdrop_leaves_no_handle_open() {
    let service = service();
    let counters = kgsl_counters("kgsl-handles-faults", || {
        let (mut sim, end) = victim(2);
        sim.device().install_fault_plan(
            &FaultPlan::new(0)
                .at(SimInstant::from_millis(1_500), FaultEvent::RevokeFds)
                .at(SimInstant::from_millis(2_500), FaultEvent::Slumber),
        );
        let result = service.eavesdrop(&mut sim, end).expect("the session survives");
        let d = result.degradation;
        assert!(d.fd_reopens > 0 && d.reservations_reacquired > 0, "both faults fire: {d}");
    });
    assert!(counters["kgsl.open"] > 1, "the revoked fd was reopened: {counters:?}");
    assert_eq!(counters.get("kgsl.handles_open_at_drop"), None, "{counters:?}");
}

#[test]
fn training_closes_what_its_trace_tap_opens() {
    // Training records its traces through `Sampler::open`, `sample_until`
    // and `close` on victim devices of its own.
    let counters = kgsl_counters("kgsl-handles-trace-tap", || {
        let cfg = SimConfig::paper_default(0);
        Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app);
    });
    assert!(counters.get("kgsl.open").is_some_and(|&n| n > 0), "{counters:?}");
    assert_eq!(counters.get("kgsl.close"), counters.get("kgsl.open"), "{counters:?}");
    assert_eq!(counters.get("kgsl.handles_open_at_drop"), None, "{counters:?}");
}

#[test]
fn a_split_session_leaves_no_handle_open() {
    let service = service();
    let counters = kgsl_counters("kgsl-handles-split", || {
        let (mut sim, end) = victim(4);
        run_split_session(&service, &mut sim, end, &LinkPlan::new(4), ExfilConfig::default())
            .expect("a clean link completes");
    });
    assert_eq!(counters.get("kgsl.close"), counters.get("kgsl.open"), "{counters:?}");
    assert_eq!(counters.get("kgsl.handles_open_at_drop"), None, "{counters:?}");
}

#[test]
fn a_heavily_faulted_eavesdrop_accounts_for_every_handle() {
    let service = service();
    let counters = kgsl_counters("kgsl-handles-conservation", || {
        let (mut sim, end) = victim(5);
        sim.device().install_fault_plan(&FaultPlan::with_intensity(
            5,
            0.9,
            SimDuration::from_secs(8),
        ));
        let result = service.eavesdrop(&mut sim, end).expect("the session survives");
        assert!(result.degradation.fd_reopens > 0, "no handle was revoked: {}", result.degradation);
    });
    let n = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert!(
        n("kgsl.fds_revoked") > 0 && n("kgsl.open_failed") > 0,
        "the plan is live: {counters:?}"
    );
    assert_eq!(
        n("kgsl.open") - n("kgsl.open_failed"),
        n("kgsl.close") - n("kgsl.close_failed")
            + n("kgsl.fds_revoked")
            + n("kgsl.handles_open_at_drop"),
        "a handed-out handle is unaccounted for: {counters:?}"
    );
}
