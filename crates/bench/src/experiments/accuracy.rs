//! Headline accuracy experiments: Figs 11, 17, 18, 19 and 20.

use std::collections::HashMap;

use android_ui::apps::FIG19_APPS;
use android_ui::keyboard::ALL_KEYBOARDS;
use gpu_sc_attack::metrics::{per_char_tallies, Aggregate};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::service::{AttackService, ServiceConfig};
use input_bot::corpus::CredentialKind;

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::{eval_credentials, run_credential_trial, trial_plan, victim, TrialOptions};

/// Fig 11 companion (§5.1): the duplication / split / noise census over
/// many key presses (the paper found 633 / 316 / 21 in 3,485 presses).
pub fn fig11(ctx: &Ctx) {
    report::section("Fig 11 / §5.1", "system-factor census over many key presses");
    let opts = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        opts.sim.device,
        opts.sim.keyboard,
        opts.sim.app,
    ));
    let plan = trial_plan(11, CredentialKind::Username, 12, ctx.trials(40));
    let tallies = ctx.pool.par_map(plan, |_, (text, volunteer, seed)| {
        let mut o = opts.clone();
        o.volunteer = volunteer;
        run_credential_trial(&store, &o, &text, seed).ok().map(|(_, result)| {
            (
                text.chars().count(),
                result.stats.duplications_suppressed,
                result.stats.splits_recovered,
                result.stats.noise,
            )
        })
    });
    let (mut presses, mut dup, mut split, mut noise) = (0usize, 0usize, 0usize, 0usize);
    for (p, d, s, n) in tallies.into_iter().flatten() {
        presses += p;
        dup += d;
        split += s;
        noise += n;
    }
    report::kv("key presses emulated", presses);
    report::kv(
        "duplications suppressed",
        format!("{dup} ({:.1}%)", dup as f64 / presses as f64 * 100.0),
    );
    report::kv(
        "splits recombined",
        format!("{split} ({:.1}%)", split as f64 / presses as f64 * 100.0),
    );
    report::kv("noise changes rejected", noise);
    outln!("(paper: 633 dup / 316 split / 21 noise in 3,485 presses ≈ 18% / 9% / 0.6%)");
}

/// Fig 17: text and per-key accuracy vs credential length on Chase.
pub fn fig17(ctx: &Ctx) {
    report::section("Fig 17", "accuracy of inferring text inputs (Chase, lengths 8-16)");
    let opts = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        opts.sim.device,
        opts.sim.keyboard,
        opts.sim.app,
    ));
    let per_len = ctx.trials(25);
    let mut all = Aggregate::default();
    outln!("{:<8} {:>10} {:>10} {:>12}", "length", "text acc", "key acc", "errors/text");
    for len in 8..=16usize {
        let agg = eval_credentials(
            &ctx.pool,
            &store,
            &opts,
            CredentialKind::Username,
            len,
            per_len,
            1_700 + len as u64,
        );
        outln!(
            "{:<8} {:>9.1}% {:>9.1}% {:>12.2}",
            len,
            agg.text_accuracy() * 100.0,
            agg.key_accuracy() * 100.0,
            agg.mean_errors()
        );
        all.merge(&agg);
    }
    report::kv(
        "average text accuracy",
        format!("{:.1}% (paper: 81.3%)", all.text_accuracy() * 100.0),
    );
    report::kv(
        "average key accuracy",
        format!("{:.1}% (paper: 98.3%)", all.key_accuracy() * 100.0),
    );

    outln!();
    outln!("Fig 17(c): accuracy per character group");
    for (name, kind) in [
        ("lower", CredentialKind::LowerOnly),
        ("upper", CredentialKind::UpperOnly),
        ("number", CredentialKind::NumberOnly),
        ("symbol", CredentialKind::SymbolOnly),
    ] {
        let agg = eval_credentials(
            &ctx.pool,
            &store,
            &opts,
            kind,
            10,
            ctx.trials(15),
            0xC0 + name.len() as u64,
        );
        report::pct_row(
            &format!("  {name}"),
            &[("key".into(), agg.key_accuracy()), ("text".into(), agg.text_accuracy())],
        );
    }
}

/// Fig 18: inference accuracy over every individual key.
pub fn fig18(ctx: &Ctx) {
    report::section("Fig 18", "inference accuracy over individual key presses");
    let opts = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        opts.sim.device,
        opts.sim.keyboard,
        opts.sim.app,
    ));
    let plan = trial_plan(18, CredentialKind::Password, 12, ctx.trials(90));
    let per_trial = ctx.pool.par_map(plan, |_, (text, volunteer, seed)| {
        let mut o = opts.clone();
        o.volunteer = volunteer;
        let (mut sim, end) = victim(&o, &text, seed);
        let service = AttackService::new(store.clone(), ServiceConfig::default());
        service.eavesdrop(&mut sim, end).ok().map(|result| {
            per_char_tallies(&sim.truth().keystrokes(), &result.keys_before_corrections)
        })
    });
    let mut tallies: HashMap<char, (usize, usize)> = HashMap::new();
    for per_char in per_trial.into_iter().flatten() {
        for (c, (ok, tot)) in per_char {
            let e = tallies.entry(c).or_insert((0, 0));
            e.0 += ok;
            e.1 += tot;
        }
    }
    let mut rows: Vec<(char, f64, usize)> = tallies
        .into_iter()
        .filter(|(_, (_, tot))| *tot > 0)
        .map(|(c, (ok, tot))| (c, ok as f64 / tot as f64, tot))
        .collect();
    // Tie-break on the character so equal accuracies order identically in
    // every run and process (HashMap iteration order is not stable).
    rows.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    outln!("(worst 12 keys first — the paper's errors concentrate on ';' and '\\'')");
    for (c, acc, tot) in rows.iter().take(12) {
        report::bar(&format!("{c:?} (n={tot})"), *acc, 1.0);
    }
    let overall: f64 = {
        let (ok, tot) = rows
            .iter()
            .fold((0.0, 0usize), |(a, b), (_, acc, tot)| (a + acc * *tot as f64, b + tot));
        ok / tot as f64
    };
    report::kv("overall per-key accuracy", format!("{:.1}%", overall * 100.0));
    let perfect = rows.iter().filter(|(_, acc, _)| *acc >= 0.999).count();
    report::kv("keys at 100%", format!("{perfect}/{}", rows.len()));
}

/// Fig 19: accuracy per target application (apps and Chrome pages).
pub fn fig19(ctx: &Ctx) {
    report::section("Fig 19", "inference accuracy on different target apps");
    let per_app = ctx.trials(25);
    for app in FIG19_APPS {
        let mut opts = TrialOptions::paper_default(0);
        opts.sim.app = app;
        let store =
            ModelStore::from(ctx.registry.get_or_train(opts.sim.device, opts.sim.keyboard, app));
        // Paired design: identical credentials and typing across apps, so
        // differences reflect the apps' screen geometry, not sampling.
        let agg = eval_credentials(
            &ctx.pool,
            &store,
            &opts,
            CredentialKind::Username,
            10,
            per_app,
            1_900,
        );
        report::pct_row(
            app.name(),
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
    }
}

/// Fig 20: accuracy per on-screen keyboard.
pub fn fig20(ctx: &Ctx) {
    report::section("Fig 20", "inference accuracy on different keyboards");
    let per_kb = ctx.trials(25);
    let mut accs = Vec::new();
    for kb in ALL_KEYBOARDS {
        let mut opts = TrialOptions::paper_default(0);
        opts.sim.keyboard = kb;
        let store = ModelStore::from(ctx.registry.get_or_train(opts.sim.device, kb, opts.sim.app));
        // Paired design: identical credentials and typing across keyboards.
        let agg =
            eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 10, per_kb, 2_000);
        accs.push(agg.text_accuracy());
        report::pct_row(
            kb.name(),
            &[("text".into(), agg.text_accuracy()), ("key".into(), agg.key_accuracy())],
        );
    }
    let spread = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - accs.iter().cloned().fold(f64::INFINITY, f64::min);
    report::kv(
        "text-accuracy spread across keyboards",
        format!("{:.1}pp (paper: <5pp)", spread * 100.0),
    );
}
