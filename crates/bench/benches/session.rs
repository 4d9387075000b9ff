//! End-to-end cost of one credential session against a pre-trained model,
//! reported per true keystroke.
//!
//! Each iteration is one Fig 17-style Chase login: build the victim
//! (`UiSimulation::new`), queue a typist's credential, `eavesdrop` it to the
//! end and score the result. The model is trained once, outside the timed
//! loop, as an attacker ships it preloaded. Every layer a real session
//! crosses is in the loop — input events, vsync and window redraws, the GPU
//! render, kgsl reads and the core analysis — so this is the in-workspace
//! counterpart of perfbench's `login` workload.
//!
//! Besides the harness's mean per session, the bench prints ns per true
//! keystroke over every session it ran. In `--test` mode the body runs
//! once; it asserts the attack recovered the credential, so a broken
//! pipeline cannot bench as a fast one.

use std::time::{Duration, Instant};

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::{SimConfig, UiSimulation};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::registry::Registry;
use gpu_sc_attack::service::{AttackService, ServiceConfig};
use input_bot::script::Typist;
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The credential typed in every session (lower-case, as Fig 17's).
const CREDENTIAL: &str = "hunter2password";
const SEED: u64 = 17;

fn bench_chase_login(c: &mut Criterion) {
    let cfg = SimConfig { seed: SEED, ..SimConfig::paper_default(0) };
    let mut store = ModelStore::new();
    store.add_handle(Registry::default().get_or_train(cfg.device, cfg.keyboard, cfg.app));
    let service = AttackService::new(store, ServiceConfig::default());

    let mut rng = StdRng::seed_from_u64(SEED);
    let plan =
        Typist::new(VOLUNTEERS[1]).type_text(CREDENTIAL, SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);

    let (mut sessions, mut keys, mut elapsed) = (0u64, 0u64, Duration::ZERO);
    c.bench_function("chase_login_session", |b| {
        b.iter(|| {
            let start = Instant::now();
            let mut sim = UiSimulation::new(cfg.clone());
            sim.queue_all(plan.events.iter().copied());
            let result = service.eavesdrop(&mut sim, end).expect("stock Android admits the attack");
            let score = result.score(&sim);
            elapsed += start.elapsed();
            sessions += 1;
            keys += score.total_keys as u64;
            assert_eq!(result.recovered_text, CREDENTIAL, "{score:?}");
            black_box(score)
        })
    });
    if keys > 0 {
        println!(
            "{:<40} {:>12.0} ns per true keystroke ({sessions} sessions, {keys} keystrokes)",
            "chase_login_session",
            elapsed.as_nanos() as f64 / keys as f64
        );
    }
}

criterion_group!(benches, bench_chase_login);
criterion_main!(benches);
