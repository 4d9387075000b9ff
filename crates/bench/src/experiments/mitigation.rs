//! Mitigation experiments: Fig 29 (login-screen animation), §9.1 (popup
//! disabling), §9.2 (access control) and §9.3 (OS-level obfuscation).

use adreno_sim::time::SimDuration;
use android_ui::TargetApp;
use gpu_sc_attack::offline::ModelStore;
use input_bot::corpus::CredentialKind;
use kgsl::{AccessPolicy, ObfuscationConfig, SelinuxDomain};

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::{eval_credentials, TrialOptions};

/// Fig 29: the PNC login screen's decorative animation acts as accidental
/// obfuscation, collapsing accuracy (paper: 30.2%).
pub fn fig29(ctx: &Ctx) {
    report::section("Fig 29", "login-screen animation as accidental obfuscation (PNC)");
    let trials = ctx.trials(15);
    // Key centroids depend on the keyboard window only, so the attacker's
    // model comes from a clean training app and is reused against PNC —
    // training on an animated login screen would be hopeless anyway.
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));
    for app in [TargetApp::Chase, TargetApp::Pnc] {
        let mut opts = base.clone();
        opts.sim.app = app;
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 10, trials, 29);
        report::pct_row(
            app.name(),
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
    }
    outln!("(paper: PNC reduces eavesdropping accuracy to 30.2%)");
}

/// §9: the mitigation matrix — what each defence does to the attack.
pub fn mitigation(ctx: &Ctx) {
    report::section("§9", "mitigation matrix");
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));
    let trials = ctx.trials(12);

    // Stock (vulnerable) configuration.
    let agg = eval_credentials(&ctx.pool, &store, &base, CredentialKind::Username, 10, trials, 9);
    report::pct_row(
        "stock (no mitigation)",
        &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
    );

    // §9.1: disable key-press popups. The popup channel dies, but the §5.3
    // length channel (echo ±2) survives — the paper's warning.
    {
        let mut opts = base.clone();
        opts.sim.popups_enabled = false;
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 10, trials, 9);
        report::pct_row(
            "§9.1 popups disabled",
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
        // Demonstrate the residual leak: the attacker still recovers the
        // input length by tracking echo ±2 directly (no popups needed).
        let model =
            ctx.registry.get_or_train(base.sim.device, base.sim.keyboard, base.sim.app).model_arc();
        let mut sim = android_ui::UiSimulation::new(android_ui::SimConfig {
            seed: 91,
            popups_enabled: false,
            system_noise_hz: 0.0,
            ..base.sim.clone()
        });
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(91);
        let mut typist = input_bot::script::Typist::new(input_bot::timing::VOLUNTEERS[2]);
        let plan =
            typist.type_text("secretpass", adreno_sim::SimInstant::from_millis(900), &mut rng);
        let end = plan.end + SimDuration::from_millis(500);
        sim.queue_all(plan.events);
        let mut sampler =
            gpu_sc_attack::Sampler::open(sim.device(), gpu_sc_attack::SamplerConfig::default_8ms())
                .expect("stock policy");
        let trace = sampler.sample_until(&mut sim, end).expect("stock policy");
        sampler.close(sim.device());
        let mut detector = gpu_sc_attack::correction::CorrectionDetector::new(
            model.ambient_signatures().to_vec(),
            gpu_sc_attack::correction::CorrectionConfig::default(),
        );
        for d in gpu_sc_attack::extract_deltas(&trace) {
            detector.observe(&d);
        }
        let adds = detector
            .events()
            .iter()
            .filter(|e| matches!(e, gpu_sc_attack::correction::CorrectionEvent::CharAdded(_)))
            .count();
        report::kv(
            "  residual leak: input length via echo ±2",
            format!("{adds} additions observed for 10 characters typed"),
        );
    }

    // §9.2: access control. DenyAll and fine-grained RBAC both starve the
    // sampler — the service reports a device error / empty trace.
    for (name, policy) in [
        ("§9.2 DenyAll", AccessPolicy::DenyAll),
        ("§9.2 RBAC (profiler only)", AccessPolicy::role_based([SelinuxDomain::GpuProfiler])),
    ] {
        let mut opts = base.clone();
        opts.sim = android_ui::SimConfig { ..opts.sim };
        // Policy applies at the device; run trials manually.
        let mut correct = 0usize;
        let mut total = 0usize;
        for i in 0..trials {
            let text = "hunter2pass";
            let mut sim = android_ui::UiSimulation::new(android_ui::SimConfig {
                seed: 92 + i as u64,
                ..opts.sim.clone()
            });
            sim.device().set_policy(policy.clone());
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(92 + i as u64);
            let mut typist = input_bot::script::Typist::new(input_bot::timing::VOLUNTEERS[0]);
            let plan = typist.type_text(text, adreno_sim::SimInstant::from_millis(900), &mut rng);
            let end = plan.end + SimDuration::from_millis(500);
            sim.queue_all(plan.events);
            let service = gpu_sc_attack::AttackService::new(store.clone(), Default::default());
            total += text.len();
            if let Ok(result) = service.eavesdrop(&mut sim, end) {
                correct +=
                    result.recovered_text.chars().zip(text.chars()).filter(|(a, b)| a == b).count();
            }
        }
        report::pct_row(name, &[("key".into(), correct as f64 / total.max(1) as f64)]);
    }

    // §9.3: OS-level decoy workloads, swept over injection rate. The open
    // question the paper poses: accuracy falls with rate, but so does the
    // GPU-time overhead budget.
    outln!("§9.3 obfuscation sweep (decoy injections/s vs accuracy vs GPU overhead)");
    for rate in [0.0, 5.0, 20.0, 60.0] {
        let mut opts = base.clone();
        opts.sim.obfuscation =
            if rate > 0.0 { Some(ObfuscationConfig::popup_sized(rate)) } else { None };
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 10, trials, 93);
        // Overhead: decoy cycles per second relative to a 60 Hz frame budget.
        let decoy_cycles = 24_000.0 * rate;
        let budget = opts.sim.device.gpu().params().clock_mhz as f64 * 1e6;
        outln!(
            "  rate={rate:>5.0}/s  text={:>5.1}%  key={:>5.1}%  gpu-overhead={:.2}%",
            agg.text_accuracy() * 100.0,
            agg.key_accuracy() * 100.0,
            decoy_cycles / budget * 100.0
        );
    }
}
