//! End-to-end integration: offline training → victim session → recovery.

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::{SimConfig, UiSimulation};
use gpu_eaves::attack::offline::{ModelStore, Trainer, TrainerConfig};
use gpu_eaves::attack::registry::{encode_model, ModelDigest, Quantization};
use gpu_eaves::attack::service::{AttackService, ServiceConfig};
use input_bot::script::Typist;
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained_store() -> ModelStore {
    let trainer = Trainer::new(TrainerConfig::default());
    let cfg = SimConfig::paper_default(0);
    let model = trainer.train(cfg.device, cfg.keyboard, cfg.app);
    let mut store = ModelStore::new();
    store.add(model);
    store
}

fn type_and_eavesdrop(store: ModelStore, text: &str, seed: u64) -> (String, String) {
    let cfg = SimConfig { system_noise_hz: 0.0, ..SimConfig::paper_default(seed) };
    let mut sim = UiSimulation::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut typist = Typist::new(VOLUNTEERS[1]);
    let plan = typist.type_text(text, SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);

    let service = AttackService::new(store, ServiceConfig::default());
    let result = service.eavesdrop(&mut sim, end).expect("attack must run on stock policy");
    (result.recovered_text, sim.truth().final_text())
}

#[test]
fn recovers_a_lowercase_credential_exactly() {
    let store = trained_store();
    let (recovered, truth) = type_and_eavesdrop(store, "hunter2password", 42);
    assert_eq!(recovered, truth, "clean-session recovery should be exact");
}

#[test]
fn recovers_mixed_class_credentials() {
    let store = trained_store();
    for (seed, text) in [(1u64, "Passw0rd!"), (2, "abc123XYZ"), (3, "q1w2e3r4")] {
        let (recovered, truth) = type_and_eavesdrop(store.clone(), text, seed);
        let dist = gpu_eaves::attack::metrics::edit_distance(&recovered, &truth);
        assert!(
            dist <= 1,
            "expected near-exact recovery of {text:?}: got {recovered:?} vs {truth:?} (dist {dist})"
        );
    }
}

#[test]
fn training_is_deterministic() {
    let trainer = Trainer::new(TrainerConfig::default());
    let cfg = SimConfig::paper_default(0);
    let a = trainer.train(cfg.device, cfg.keyboard, cfg.app);
    let b = trainer.train(cfg.device, cfg.keyboard, cfg.app);
    assert_eq!(a, b);
    let digest = |m| ModelDigest::of(&encode_model(m, Quantization::F64));
    assert_eq!(digest(&a), digest(&b));
}
