//! Split exfiltration over the wire: the `wire` crate's resilience budget.
//!
//! Not a paper figure — the paper runs sampler and classifier in one
//! process. This experiment prices the realistic deployment where the
//! counter stream crosses a lossy network to an offsite classifier:
//!
//! 1. **Wire cost** — payload bytes per typed keystroke under a fault-free
//!    link (the delta-of-delta batch codec's compression floor), after
//!    asserting the split session reproduces the in-process pipeline
//!    byte for byte.
//! 2. **Wire latency** — press-to-inference latency as seen *at the
//!    client*, i.e. including batching delay and the transport round trip,
//!    against the in-process `decided_at` baseline the `latency` experiment
//!    measures.
//! 3. **Loss sweep** — accuracy as a function of datagram loss rate. The
//!    retransmit/resequence/reconnect machinery should hold accuracy flat
//!    while retransmissions (the price paid) climb.
//!
//! Telemetry lands in `BENCH_experiments.json` as
//! `bench.exfil.payload_bytes_per_key`,
//! `bench.exfil.press_to_inference_wire_ms`, and
//! `bench.exfil.worst_loss_key_acc_pct`.

use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::{SimConfig, UiSimulation};
use gpu_sc_attack::metrics::{press_latencies_ms, Aggregate};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::service::{AttackService, ServiceError, SessionResult};
use gpu_sc_attack::SessionScore;
use input_bot::corpus::{generate, CredentialKind};
use input_bot::script::Typist;
use input_bot::timing::VOLUNTEERS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wire::{run_split_session, ExfilConfig, LinkPlan, SplitOutcome};

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::TrialOptions;

const CREDENTIAL_LEN: usize = 10;

/// Sessions comfortably fit this horizon; outages scheduled by intensity
/// plans can land anywhere inside one.
const HORIZON: SimDuration = SimDuration::from_secs(8);

/// Histogram edges (ms) for the over-the-wire press-to-inference latency —
/// same grid as the in-process `latency` experiment so the two are directly
/// comparable in `BENCH_experiments.json`.
const WIRE_LATENCY_EDGES_MS: &[u64] = &[10, 20, 40, 80, 160, 320, 640];

/// Ground-truth press instants for wire-latency matching.
type PressTruth = Vec<(SimInstant, char)>;

/// Runs one credential session split across `plan`, returning the outcome
/// plus the ground-truth press times (for wire-latency matching).
///
/// The victim side is seeded exactly like
/// [`crate::trials::run_credential_trial`], so an in-process run with the
/// same `(text, seed)` observes the identical victim.
fn split_trial(
    store: &ModelStore,
    opts: &TrialOptions,
    text: &str,
    seed: u64,
    plan: &LinkPlan,
) -> Result<(SessionScore, SplitOutcome, PressTruth), ServiceError> {
    let _span = spansight::span("bench", "trial");
    let mut sim = UiSimulation::new(SimConfig { seed, ..opts.sim.clone() });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7157);
    let mut typist = Typist::new(opts.volunteer);
    let typed = typist.type_text(text, SimInstant::from_millis(900), &mut rng);
    let end = typed.end + SimDuration::from_millis(800);
    sim.queue_all(typed.events);

    let service = AttackService::new(store.clone(), opts.service.clone());
    let outcome = run_split_session(&service, &mut sim, end, plan, ExfilConfig::default())?;
    let score = outcome.result.score(&sim);
    let truth = sim.truth().keystrokes();
    Ok((score, outcome, truth))
}

/// The same session, in-process (the equivalence baseline).
fn inproc_trial(
    store: &ModelStore,
    opts: &TrialOptions,
    text: &str,
    seed: u64,
) -> Result<SessionResult, ServiceError> {
    let _span = spansight::span("bench", "trial");
    let mut sim = UiSimulation::new(SimConfig { seed, ..opts.sim.clone() });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7157);
    let mut typist = Typist::new(opts.volunteer);
    let typed = typist.type_text(text, SimInstant::from_millis(900), &mut rng);
    let end = typed.end + SimDuration::from_millis(800);
    sim.queue_all(typed.events);
    AttackService::new(store.clone(), opts.service.clone()).eavesdrop(&mut sim, end)
}

/// One loss-rate row of the sweep, folded in trial order.
#[derive(Debug, Default)]
struct LossCell {
    agg: Aggregate,
    completed: usize,
    failed: usize,
    retransmits: u64,
    reconnects: u64,
    bytes_sent: u64,
    finacks: usize,
}

/// Runs `trials` split sessions at one loss rate; deterministic at any
/// worker count (inputs pre-drawn sequentially, folded in trial order).
fn loss_cell(
    ctx: &Ctx,
    store: &ModelStore,
    base: &TrialOptions,
    loss: f64,
    trials: usize,
    seed: u64,
) -> LossCell {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<(String, u64, usize)> = (0..trials)
        .map(|t| (generate(&mut rng, CredentialKind::Password, CREDENTIAL_LEN), rng.gen(), t))
        .collect();
    let outcomes = ctx.pool.par_map(inputs, |_, (text, trial_seed, t)| {
        let mut opts = base.clone();
        opts.volunteer = VOLUNTEERS[t % VOLUNTEERS.len()];
        let plan = LinkPlan::new(trial_seed ^ 0x11E7)
            .with_loss(loss)
            .with_reorder(loss / 2.0)
            .with_duplication(loss / 4.0)
            .with_horizon(HORIZON);
        let truth_len = text.chars().count();
        match split_trial(store, &opts, &text, trial_seed, &plan) {
            Ok((score, outcome, _)) => Ok((score, outcome)),
            Err(e) => Err((truth_len, e)),
        }
    });
    let mut cell = LossCell::default();
    for outcome in outcomes {
        match outcome {
            Ok((score, outcome)) => {
                cell.completed += 1;
                cell.retransmits += outcome.result.link.retransmits;
                cell.reconnects += outcome.result.link.reconnects;
                cell.bytes_sent += outcome.result.link.bytes_sent;
                cell.finacks += usize::from(outcome.completed);
                cell.agg.add(&score);
            }
            Err((lost_keys, _)) => {
                cell.failed += 1;
                cell.agg.add(&SessionScore {
                    correct_keys: 0,
                    total_keys: lost_keys,
                    spurious_keys: 0,
                    text_exact: false,
                    edit_distance: lost_keys,
                });
            }
        }
    }
    cell
}

/// The `exfil` experiment: wire cost, wire latency, and the loss sweep.
pub fn exfil(ctx: &Ctx) {
    report::section("exfil", "split sampler/classifier over a lossy wire");
    let base = TrialOptions::paper_default(0);
    let store = ModelStore::from(ctx.registry.get_or_train(
        base.sim.device,
        base.sim.keyboard,
        base.sim.app,
    ));
    let text =
        generate(&mut StdRng::seed_from_u64(0xE8F1), CredentialKind::Password, CREDENTIAL_LEN);

    // 1. Fault-free link: the split session must reproduce the in-process
    // pipeline exactly (the `link` report being the only difference).
    let clean = LinkPlan::new(0xC1EA).with_horizon(HORIZON);
    let (_, outcome, truth) =
        split_trial(&store, &base, &text, 0xE8F1, &clean).expect("fault-free split session");
    let inproc = inproc_trial(&store, &base, &text, 0xE8F1).expect("in-process baseline");
    let mut delinked = outcome.result.clone();
    delinked.link = Default::default();
    assert_eq!(delinked, inproc, "fault-free split must equal the in-process pipeline");
    assert!(outcome.result.link.is_clean(), "fault-free link report: {}", outcome.result.link);
    assert_eq!(
        outcome.recovered_over_wire.as_deref(),
        Some(inproc.recovered_text.as_str()),
        "the FinAck must carry the recovered credential"
    );
    report::kv("fault-free split == in-process", format!("ok ({:?})", inproc.recovered_text));

    // Wire cost: acked payload bytes per typed keystroke (the batch codec's
    // compression floor), plus total wire bytes including framing and acks.
    let keys = text.chars().count() as u64;
    let bytes_per_key = outcome.result.link.bytes_acked as f64 / keys as f64;
    report::kv(
        "payload bytes per keystroke",
        format!(
            "{bytes_per_key:.0} ({} payload bytes, {} on the wire, {} keystrokes)",
            outcome.result.link.bytes_acked, outcome.result.link.bytes_sent, keys
        ),
    );
    spansight::count("bench.exfil.payload_bytes_per_key", bytes_per_key.round() as u64);

    // 2. Wire latency: press → key streamed back to the client. Includes
    // batching (up to one 32-sample batch, ~256 ms) and the round trip.
    let mut lat = press_latencies_ms(&truth, outcome.key_arrivals.iter().copied());
    lat.sort_unstable();
    for &ms in &lat {
        spansight::record("bench.exfil.press_to_inference_wire_ms", WIRE_LATENCY_EDGES_MS, ms);
    }
    if lat.is_empty() {
        report::kv("press-to-inference over wire", "no matched presses");
    } else {
        let p = |q: f64| lat[((lat.len() - 1) as f64 * q) as usize];
        report::kv(
            "press-to-inference over wire",
            format!(
                "median {} / p95 {} / max {} ms over {} matched presses",
                p(0.5),
                p(0.95),
                lat[lat.len() - 1],
                lat.len()
            ),
        );
    }

    // 3. Loss sweep: accuracy should hold as loss climbs; retransmits and
    // reconnects are what it costs.
    let per_cell = ctx.trials(6);
    outln!();
    outln!(
        "{:<7} {:>12} {:>12} {:>8} {:>10} {:>10} {:>9} {:>7}",
        "loss",
        "text-acc",
        "key-acc",
        "finack",
        "retx/s",
        "reconn/s",
        "KB/s(tx)",
        "failed"
    );
    let mut worst_key_acc = f64::INFINITY;
    for &loss in &[0.0, 0.1, 0.25, 0.5] {
        let cell = loss_cell(ctx, &store, &base, loss, per_cell, 0xE8F11);
        let sessions = (cell.completed + cell.failed).max(1) as f64;
        outln!(
            "{:<7.2} {:>11.1}% {:>11.1}% {:>5}/{:<2} {:>10.1} {:>10.2} {:>9.1} {:>4}/{:<2}",
            loss,
            cell.agg.text_accuracy() * 100.0,
            cell.agg.key_accuracy() * 100.0,
            cell.finacks,
            per_cell,
            cell.retransmits as f64 / sessions,
            cell.reconnects as f64 / sessions,
            cell.bytes_sent as f64 / sessions / 1024.0,
            cell.failed,
            per_cell,
        );
        worst_key_acc = worst_key_acc.min(cell.agg.key_accuracy());
    }
    spansight::count("bench.exfil.worst_loss_key_acc_pct", (worst_key_acc * 100.0).round() as u64);
    outln!("(expected: key accuracy holds across the sweep — the reliability layer absorbs");
    outln!(" loss into retransmissions; only the wire-byte and latency cost should climb)");
}
