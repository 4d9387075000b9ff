//! Ablations of the design choices DESIGN.md §4 calls out.

use adreno_sim::counters::{CounterGroup, ALL_TRACKED, NUM_TRACKED};
use gpu_sc_attack::offline::{ModelStore, Trainer, TrainerConfig};
use input_bot::corpus::CredentialKind;

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::{eval_credentials, TrialOptions};

/// Greedy (online) vs full-trace (offline) Algorithm 1 — §5.1's
/// accuracy/timeliness trade-off, measured where splits are common
/// (12 ms sampling).
pub fn ablate_greedy(ctx: &Ctx) {
    report::section("Ablation", "greedy vs full-trace Algorithm 1");
    let trials = ctx.trials(20);
    for (name, full) in [("greedy (online)", false), ("full-trace (offline)", true)] {
        let mut opts = TrialOptions::paper_default(0);
        opts.service.sampler.interval = adreno_sim::SimDuration::from_millis(12);
        opts.service.full_trace = full;
        let store = ModelStore::from(ctx.registry.get_or_train(
            opts.sim.device,
            opts.sim.keyboard,
            opts.sim.app,
        ));
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 12, trials, 0xAB1);
        report::pct_row(
            name,
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
    }
}

/// Counter-subset ablation: why the attack uses all three groups.
pub fn ablate_counters(ctx: &Ctx) {
    report::section("Ablation", "counter subsets (LRZ / RAS / VPC / all)");
    let trials = ctx.trials(15);
    let opts = TrialOptions::paper_default(0);
    let subsets: [(&str, Option<CounterGroup>); 4] = [
        ("all 11 counters", None),
        ("LRZ only", Some(CounterGroup::Lrz)),
        ("RAS only", Some(CounterGroup::Ras)),
        ("VPC only", Some(CounterGroup::Vpc)),
    ];
    for (name, group) in subsets {
        let mask = group.map(|g| {
            let mut m = [false; NUM_TRACKED];
            for c in ALL_TRACKED {
                m[c.index()] = c.id().group == g;
            }
            m
        });
        let trainer =
            Trainer::new(TrainerConfig { counter_mask: mask, ..TrainerConfig::default() });
        let mut store = ModelStore::new();
        store.add(trainer.train(opts.sim.device, opts.sim.keyboard, opts.sim.app));
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 12, trials, 0xAB2);
        report::pct_row(
            name,
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
    }
}

/// Threshold sweep: C_th balances noise rejection against split tolerance.
pub fn ablate_threshold(ctx: &Ctx) {
    report::section("Ablation", "acceptance threshold C_th sweep");
    let trials = ctx.trials(15);
    let opts = TrialOptions::paper_default(0);
    let trained =
        ctx.registry.get_or_train(opts.sim.device, opts.sim.keyboard, opts.sim.app).model_arc();
    for factor in [0.25, 0.5, 1.0, 2.0, 8.0, 64.0] {
        let model = trained.with_threshold(trained.threshold() * factor);
        let mut store = ModelStore::new();
        store.add(model);
        // More ambient noise makes the FP side of the trade-off visible.
        let mut o = opts.clone();
        o.sim.system_noise_hz = 0.4;
        let agg =
            eval_credentials(&ctx.pool, &store, &o, CredentialKind::Username, 12, trials, 0xAB3);
        outln!(
            "C_th x{factor:<5} text={:>5.1}%  key={:>5.1}%  spurious/session={:.2}",
            agg.text_accuracy() * 100.0,
            agg.key_accuracy() * 100.0,
            agg.spurious_keys as f64 / agg.sessions.max(1) as f64
        );
    }
}
