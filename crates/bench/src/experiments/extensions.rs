//! Extension experiments beyond the paper's figures.
//!
//! * `guessing` — quantifies §7.1's remark that "single errors in inference
//!   could be addressed with a small number of guesses": fraction of
//!   credentials recovered exactly, and after a single-edit repair sweep.
//! * `defense-tuning` — attacks §9.3's open question head on: how many
//!   decoy injections per second does the OS need to push the attack below
//!   a target accuracy, and what does that cost in GPU time?

use gpu_sc_attack::offline::ModelStore;
use input_bot::corpus::CredentialKind;
use kgsl::ObfuscationConfig;

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::{eval_credentials, run_credential_trial, trial_plan, TrialOptions};

/// Exact and single-edit recovery over random credentials.
pub fn guessing(ctx: &Ctx) {
    report::section("Extension", "credentials recovered exactly or with one edit (§7.1)");
    let opts = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        opts.sim.device,
        opts.sim.keyboard,
        opts.sim.app,
    ));
    let plan = trial_plan(0x63E5, CredentialKind::Username, 12, ctx.trials(60));
    let outcomes = ctx.pool.par_map(plan, |_, (text, volunteer, seed)| {
        let mut o = opts.clone();
        o.volunteer = volunteer;
        let (_, result) = run_credential_trial(&store, &o, &text, seed).ok()?;
        // These sessions make no corrections, so the typed text is the
        // truth. A single-edit repair sweep (~|Σ|·(len+1) ≈ 1k guesses for
        // the Fig 18 charset) also recovers one missed, extra or wrong press.
        let exact = result.recovered_text == text;
        let one_edit = gpu_sc_attack::metrics::edit_distance(&result.recovered_text, &text) <= 1;
        Some((exact, one_edit))
    });
    let outcomes: Vec<(bool, bool)> = outcomes.into_iter().flatten().collect();
    let share = |n: usize| n as f64 / outcomes.len().max(1) as f64;
    let exact = outcomes.iter().filter(|(exact, _)| *exact).count();
    let one_edit = outcomes.iter().filter(|(_, one_edit)| *one_edit).count();
    report::pct_row("exact recovery", &[("recovered".into(), share(exact))]);
    report::pct_row("single-edit repair (~1k)", &[("recovered".into(), share(one_edit))]);
    outln!("(the repair sweep recovers credentials with one missed, extra or wrong press)");
}

/// Quantifies the echo-corroboration insertion filter: slow typists suffer
/// most from noise insertions (§7.2's stated cause of the slow-typing
/// degradation), so the comparison runs at slow speed and with elevated
/// ambient noise. The caption is computed from the two rows.
pub fn ablate_corroboration(ctx: &Ctx) {
    report::section("Ablation", "echo corroboration (insertion filter, beyond the paper)");
    let trials = ctx.trials(20);
    let mut rows = Vec::with_capacity(2);
    for (name, corroborate) in [("paper pipeline", false), ("with echo corroboration", true)] {
        let mut opts = TrialOptions::paper_default(0);
        opts.sim.system_noise_hz = 0.2; // noisy environment
        opts.speed = Some(input_bot::timing::SpeedClass::Slow);
        opts.service.echo_corroboration = corroborate;
        let store = ModelStore::from(ctx.registry.get_or_train(
            opts.sim.device,
            opts.sim.keyboard,
            opts.sim.app,
        ));
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 12, trials, 0xEC0);
        let row = [agg.text_accuracy() * 100.0, agg.key_accuracy() * 100.0, agg.mean_errors()];
        outln!("{name:<26} text={:>5.1}%  key={:>5.1}%  errors/text={:.2}", row[0], row[1], row[2]);
        rows.push(row);
    }
    // (label, decimals the row prints, unit, whether a rise is better)
    let figures = [
        ("exact text", 1, " pp", true),
        ("key accuracy", 1, " pp", true),
        ("errors/text", 2, "", false),
    ];
    let (mut moves, mut better, mut worse) = (Vec::new(), 0, 0);
    for (i, (label, decimals, unit, rise_is_better)) in figures.into_iter().enumerate() {
        // Compared at the precision the rows print, so the caption never
        // contradicts them.
        let scale = 10f64.powi(decimals);
        let steps = (rows[1][i] * scale).round() - (rows[0][i] * scale).round();
        if steps == 0.0 {
            moves.push(format!("{label} unchanged"));
            continue;
        }
        if (steps > 0.0) == rise_is_better {
            better += 1;
        } else {
            worse += 1;
        }
        let direction = if steps > 0.0 { "rose" } else { "fell" };
        moves.push(format!(
            "{label} {direction} {:.*}{unit}",
            decimals as usize,
            steps.abs() / scale
        ));
    }
    let verdict = match (better > 0, worse > 0) {
        (true, false) => "positive result",
        (false, true) => "negative result",
        (true, true) => "mixed result",
        (false, false) => "no effect",
    };
    outln!(
        "({verdict}: {} — off by default, as the paper's pipeline has no such filter)",
        moves.join(", ")
    );
}

/// Finds the cheapest §9.3 decoy rate that pushes per-key accuracy below a
/// target, by bisection over the injection rate.
pub fn defense_tuning(ctx: &Ctx) {
    report::section("Extension", "tuning the §9.3 obfuscation defence");
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));
    let trials = ctx.trials(10);

    let measure = |rate: f64| -> f64 {
        let mut o = base.clone();
        o.sim.obfuscation =
            if rate > 0.0 { Some(ObfuscationConfig::popup_sized(rate)) } else { None };
        eval_credentials(&ctx.pool, &store, &o, CredentialKind::Username, 10, trials, 0xDEF)
            .key_accuracy()
    };

    let target = 0.5; // push the attacker below coin-flip-per-key territory
    let (mut lo, mut hi) = (0.0f64, 160.0f64);
    let hi_acc = measure(hi);
    report::kv("target per-key accuracy", format!("{:.0}%", target * 100.0));
    if hi_acc > target {
        report::kv("result", format!("even {hi} decoys/s leaves {:.0}% accuracy", hi_acc * 100.0));
        return;
    }
    for _ in 0..6 {
        let mid = (lo + hi) / 2.0;
        let acc = measure(mid);
        outln!("  rate={mid:>6.1}/s  key accuracy={:.1}%", acc * 100.0);
        if acc > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Decoys cost ~24k cycles each; express the found rate as GPU-time
    // overhead on the paper's main device.
    let clock = base.sim.device.gpu().params().clock_mhz as f64 * 1e6;
    report::kv(
        "cheapest sufficient rate",
        format!("≈{hi:.0} decoys/s ({:.3}% GPU time)", 24_000.0 * hi / clock * 100.0),
    );
    outln!("(the paper calls sizing this workload an open question — this is the knee)");
}
