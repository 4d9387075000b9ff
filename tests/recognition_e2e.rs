//! Device recognition (§3.2): a store with many configurations must pick
//! the model matching the victim's device from counter changes alone.

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{
    DeviceConfig, KeyboardKind, PhoneModel, SimConfig, TargetApp, UiSimulation,
};
use gpu_eaves::attack::offline::{ModelStore, Trainer, TrainerConfig};
use gpu_eaves::attack::service::{AttackService, ServiceConfig};
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn multi_store() -> ModelStore {
    let trainer = Trainer::new(TrainerConfig::default());
    let mut store = ModelStore::new();
    for phone in [PhoneModel::OnePlus8Pro, PhoneModel::GalaxyS21, PhoneModel::GooglePixel2] {
        for keyboard in [KeyboardKind::Gboard, KeyboardKind::Swift] {
            store.add(trainer.train(DeviceConfig::for_phone(phone), keyboard, TargetApp::Chase));
        }
    }
    store
}

#[test]
fn recognizes_each_configuration_and_recovers_the_text() {
    let store = multi_store();
    for (i, (phone, keyboard)) in [
        (PhoneModel::GalaxyS21, KeyboardKind::Gboard),
        (PhoneModel::OnePlus8Pro, KeyboardKind::Swift),
        (PhoneModel::GooglePixel2, KeyboardKind::Gboard),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = SimConfig {
            device: DeviceConfig::for_phone(phone),
            keyboard,
            system_noise_hz: 0.0,
            ..SimConfig::paper_default(40 + i as u64)
        };
        let mut sim = UiSimulation::new(cfg);
        let mut rng = StdRng::seed_from_u64(40 + i as u64);
        let mut typist = Typist::new(VOLUNTEERS[i % VOLUNTEERS.len()]);
        let plan = typist.type_text("topsecret", SimInstant::from_millis(900), &mut rng);
        let end = plan.end + SimDuration::from_millis(800);
        sim.queue_all(plan.events);

        let service = AttackService::new(store.clone(), ServiceConfig::default());
        let result = service.eavesdrop(&mut sim, end).expect("stock policy");
        assert_eq!(result.model.phone, phone, "device recognition must pick the right phone");
        assert_eq!(result.model.keyboard, keyboard, "and the right keyboard");
        assert_eq!(result.recovered_text, "topsecret");
    }
}

#[test]
fn per_model_wire_size_is_paper_scale() {
    use gpu_eaves::attack::registry::{encode_model, Quantization};

    let store = multi_store();
    // Stores hold the exact f64 registry tier: the paper's 3.59 kB/model
    // plus ~2 kB of field signatures for the peeling step, all at 8-byte
    // precision — just under 8 kB.
    let avg = store.total_wire_bytes() as f64 / store.len() as f64 / 1024.0;
    assert!((5.0..=9.0).contains(&avg), "average model size {avg:.2} kB out of range");
    // The f32 transport tier is the compact one: it must land at paper
    // scale.
    let f32_total: usize =
        store.handles().iter().map(|h| encode_model(h.model(), Quantization::F32).len()).sum();
    let avg_f32 = f32_total as f64 / store.len() as f64 / 1024.0;
    assert!((2.5..=4.5).contains(&avg_f32), "f32 model size {avg_f32:.2} kB out of range");
}
