//! Practical-use experiments (§8): Fig 27 event traces and Fig 28
//! per-volunteer accuracy with app switches and corrections.

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::{SimConfig, UiSimulation};
use android_ui::{TruthKind, UiEvent};
use gpu_sc_attack::metrics::per_char_tallies;
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::service::{AttackService, ServiceConfig};
use input_bot::corpus::{generate, CredentialKind};
use input_bot::script::{practical_session, SessionConfig, Typist};
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::TrialOptions;

fn session_sim(seed: u64, volunteer: usize) -> (UiSimulation, SimInstant) {
    let cfg = SimConfig::paper_default(seed);
    let mut sim = UiSimulation::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut typist = Typist::new(VOLUNTEERS[volunteer]);
    let text = generate(&mut rng, CredentialKind::Username, 12);
    let scfg = SessionConfig::default();
    let plan = practical_session(&mut typist, &text, SimInstant::from_millis(900), &scfg, &mut rng);
    let end = plan.end + SimDuration::from_millis(1_000);
    // Ambient notifications during the session.
    let mut t = SimInstant::from_millis(2_500);
    while t < end {
        if rng.gen::<f64>() < 0.4 {
            sim.queue(android_ui::TimedEvent::new(t, UiEvent::Notification));
        }
        t += SimDuration::from_millis(4_000);
    }
    sim.queue_all(plan.events);
    (sim, end)
}

/// Fig 27: the user-behaviour event traces of the practical sessions.
pub fn fig27(_ctx: &Ctx) {
    report::section("Fig 27", "user behaviour events during practical sessions");
    outln!(
        "legend: k=key press  x=backspace  <=switch away  >=switch back  n=notification  s=shade"
    );
    for v in 0..VOLUNTEERS.len() {
        let (mut sim, end) = session_sim(2_700 + v as u64, v);
        sim.advance_to(end);
        let mut line = String::new();
        for e in sim.truth().events() {
            let c = match e.kind {
                TruthKind::Commit(_) => 'k',
                TruthKind::Backspace => 'x',
                TruthKind::SwitchAway => '<',
                TruthKind::SwitchBack => '>',
                TruthKind::Notification => 'n',
                TruthKind::ShadeView => 's',
                TruthKind::PageChange | TruthKind::SystemNoise | TruthKind::AppLaunch => continue,
            };
            line.push(c);
        }
        outln!("Volunteer {}: {}", v + 1, line);
    }
}

/// Fig 28: trace and character accuracy in practical usage, per volunteer.
pub fn fig28(ctx: &Ctx) {
    report::section("Fig 28", "accuracy in practical usage (switches + corrections)");
    let opts = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        opts.sim.device,
        opts.sim.keyboard,
        opts.sim.app,
    ));
    let runs = ctx.trials(12);
    // Sessions are self-seeded from (volunteer, run), so the whole
    // volunteer × run grid fans out at once and folds back per volunteer.
    let grid: Vec<(usize, usize)> =
        (0..VOLUNTEERS.len()).flat_map(|v| (0..runs).map(move |r| (v, r))).collect();
    let outcomes = ctx.pool.par_map(grid, |_, (v, r)| {
        let (mut sim, end) = session_sim(0x2800 + (v * 131 + r) as u64, v);
        let service = AttackService::new(store.clone(), ServiceConfig::default());
        let result = service.eavesdrop(&mut sim, end).ok()?;
        let exact = result.recovered_text == sim.truth().final_text();
        let (ok, tot) =
            per_char_tallies(&sim.truth().keystrokes(), &result.keys_before_corrections)
                .into_iter()
                .fold((0usize, 0usize), |(a, b), (_, (ok, tot))| (a + ok, b + tot));
        Some((v, exact, ok, tot))
    });
    let mut total_trace = 0.0;
    let mut char_ok = 0usize;
    let mut char_tot = 0usize;
    let mut per_v = vec![(0usize, 0usize, 0usize); VOLUNTEERS.len()];
    for (v, exact, ok, tot) in outcomes.into_iter().flatten() {
        per_v[v].0 += exact as usize;
        per_v[v].1 += ok;
        per_v[v].2 += tot;
    }
    for (v, (exact, v_ok, v_tot)) in per_v.into_iter().enumerate() {
        let trace_acc = exact as f64 / runs as f64;
        let char_acc = if v_tot > 0 { v_ok as f64 / v_tot as f64 } else { 0.0 };
        total_trace += trace_acc;
        char_ok += v_ok;
        char_tot += v_tot;
        report::pct_row(
            &format!("Volunteer {}", v + 1),
            &[("trace".into(), trace_acc), ("char".into(), char_acc)],
        );
    }
    report::kv(
        "averages",
        format!(
            "trace={:.1}% (paper: 78.0%), char={:.1}% (paper: 97.1%)",
            total_trace / VOLUNTEERS.len() as f64 * 100.0,
            char_ok as f64 / char_tot.max(1) as f64 * 100.0
        ),
    );
}
