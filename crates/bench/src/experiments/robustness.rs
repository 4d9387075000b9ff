//! Robustness experiments: Figs 21 (input speed), 22 (CPU/GPU load) and
//! 23 (sampling interval × refresh rate).

use adreno_sim::time::SimDuration;
use android_ui::RefreshRate;
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::sampler::SamplerConfig;
use input_bot::corpus::CredentialKind;
use input_bot::timing::SpeedClass;

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::{eval_credentials, TrialOptions};

/// Fig 21: the impact of typing speed. Per-key accuracy stays flat; text
/// accuracy falls for slow typists because long sessions accumulate more
/// system-noise insertions (§7.2).
pub fn fig21(ctx: &Ctx) {
    report::section("Fig 21", "impact of user input speed");
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));
    let per_class = ctx.trials(20);
    for class in [SpeedClass::Slow, SpeedClass::Medium, SpeedClass::Fast] {
        let mut opts = base.clone();
        opts.speed = Some(class);
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 12, per_class, 21);
        outln!(
            "{:<8} text={:>5.1}%  key={:>5.1}%  errors/text={:.2}",
            class.name(),
            agg.text_accuracy() * 100.0,
            agg.key_accuracy() * 100.0,
            agg.mean_errors()
        );
    }
    outln!("(paper: slow ≈60% text accuracy at unchanged per-key accuracy, errors <1.3)");

    outln!();
    outln!("Fig 21(c): per character group at each speed");
    for class in [SpeedClass::Fast, SpeedClass::Medium, SpeedClass::Slow] {
        let mut row = Vec::new();
        for (name, kind) in [
            ("lower", CredentialKind::LowerOnly),
            ("upper", CredentialKind::UpperOnly),
            ("number", CredentialKind::NumberOnly),
            ("symbol", CredentialKind::SymbolOnly),
        ] {
            let mut opts = base.clone();
            opts.speed = Some(class);
            let agg = eval_credentials(&ctx.pool, &store, &opts, kind, 10, ctx.trials(8), 0x21C);
            row.push((name.to_owned(), agg.key_accuracy()));
        }
        report::pct_row(class.name(), &row);
    }
}

/// Fig 22: the impact of concurrent CPU and GPU workloads.
pub fn fig22(ctx: &Ctx) {
    report::section("Fig 22", "impact of CPU and GPU workloads");
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));
    let per_point = ctx.trials(15);

    outln!("(a) CPU utilisation sweep");
    for load in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut opts = base.clone();
        opts.sim.cpu_load = load;
        opts.service.sampler = SamplerConfig { cpu_load: load, ..SamplerConfig::default_8ms() };
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 10, per_point, 22);
        report::pct_row(
            &format!("  cpu={:>3.0}%", load * 100.0),
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
    }

    outln!("(b) GPU utilisation sweep");
    for load in [0.0, 0.25, 0.5, 0.75] {
        let mut opts = base.clone();
        opts.sim.gpu_load = load;
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 10, per_point, 22);
        report::pct_row(
            &format!("  gpu={:>3.0}%", load * 100.0),
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
    }
    outln!("(paper: negligible up to 50% CPU / 25% GPU, ~60% text accuracy at 75%)");
}

/// Fig 23: sampling interval vs refresh rate.
pub fn fig23(ctx: &Ctx) {
    report::section("Fig 23", "accuracy with different counter-reading intervals");
    let per_point = ctx.trials(15);
    for refresh in [RefreshRate::Hz60, RefreshRate::Hz120] {
        for interval_ms in [4u64, 8, 12] {
            let mut opts = TrialOptions::paper_default(0);
            opts.sim.device.refresh = refresh;
            opts.service.sampler = SamplerConfig {
                interval: SimDuration::from_millis(interval_ms),
                ..SamplerConfig::default_8ms()
            };
            let store = ModelStore::from(ctx.registry.get_or_train(
                opts.sim.device,
                opts.sim.keyboard,
                opts.sim.app,
            ));
            let agg = eval_credentials(
                &ctx.pool,
                &store,
                &opts,
                CredentialKind::Username,
                10,
                per_point,
                23,
            );
            report::pct_row(
                &format!("{refresh} / {interval_ms}ms"),
                &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
            );
        }
    }
    outln!("(paper: text accuracy drops ~20pp at 12ms; 120Hz needs ≤4ms)");
}
