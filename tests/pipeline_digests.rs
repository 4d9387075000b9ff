//! Pinned digests of the analysis pipeline, over a fixed matrix of
//! sessions.
//!
//! Each session folds into three FNV-1a-64 values:
//!
//! * the `Debug` text of what [`AttackService::eavesdrop`] returns — the
//!   recovered text, every key with its `decided_at` (after and before
//!   corrections), the Algorithm 1 statistics, the correction events, the
//!   degradation report, or the error. It is the text perfbench's outcome
//!   digest covers;
//! * Algorithm 1's decisions — every accepted key before corrections and
//!   the statistics, hashed field by field (or the error), so that a change
//!   to how a result is represented leaves it alone;
//! * the `(deltas, resets)` that [`extract_deltas_with_resets`] returns for
//!   a [`Sampler::sample_until`] tap of an identically built victim — the
//!   delta stream every downstream stage consumes.
//!
//! The result and tap constants were first computed on a tree that still
//! carried a second, batch analysis driver and a second, columnar delta
//! extractor, after checking there that both drivers returned the same
//! result for every session below. The decisions constants were computed
//! on the tree just before ranked per-key candidate lists were removed
//! from the session result, and that removal left them and the tap
//! constants unchanged. It re-pinned the result constants by construction:
//! each is the digest of the previous tree's text with its
//! `candidates: [...], ` field cut out. The result constants moved once
//! more when the echo decoder learned that a visible-prim count of 2 is the
//! empty field with its cursor hidden: every session gained or lost
//! correction events, and each new text was checked to equal the old one
//! outside its `corrections: [...]` field. A change here is a change to
//! what the pipeline decides or reports, and must be explained rather than
//! re-pinned silently.

mod common;

use std::sync::OnceLock;

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{SimConfig, TimedEvent, UiEvent, UiSimulation};
use gpu_eaves::attack::correction::CorrectionEvent;
use gpu_eaves::attack::offline::{ModelStore, Trainer, TrainerConfig};
use gpu_eaves::attack::online::InferenceStats;
use gpu_eaves::attack::sampler::{Sampler, SamplerConfig};
use gpu_eaves::attack::service::{AttackService, ServiceConfig, ServiceError, SessionResult};
use gpu_eaves::attack::trace::extract_deltas_with_resets;
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use gpu_eaves::kgsl::FaultPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{fnv1a, FNV_BASIS};

/// How one session's victim is built. Everything that feeds the
/// simulation derives from the seed, so two builds observe the same victim.
#[derive(Debug, Clone, Copy)]
enum Victim {
    /// "hunter2pass" on a stock device, optionally under a live fault plan
    /// of the given intensity.
    Credential { seed: u64, faults: Option<f64> },
    /// Another app first, then the target app's cold launch at 3 s and a
    /// credential (as in `tests/launch_e2e.rs`).
    PreLaunch { seed: u64 },
    /// A typo undone with backspace, a hop to another app and back, then
    /// the rest of the credential (as in `tests/practical_e2e.rs`).
    Practical { seed: u64 },
}

impl Victim {
    fn build(self) -> (UiSimulation, SimInstant) {
        match self {
            Victim::Credential { seed, faults } => {
                let mut sim = UiSimulation::new(SimConfig::paper_default(seed));
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
                let mut typist = Typist::new(VOLUNTEERS[seed as usize % VOLUNTEERS.len()]);
                let plan = typist.type_text("hunter2pass", SimInstant::from_millis(900), &mut rng);
                let end = plan.end + SimDuration::from_millis(800);
                sim.queue_all(plan.events);
                if let Some(intensity) = faults {
                    sim.device().install_fault_plan(&FaultPlan::with_intensity(
                        seed ^ 0xFA,
                        intensity,
                        SimDuration::from_secs(8),
                    ));
                }
                (sim, end)
            }
            Victim::PreLaunch { seed } => {
                let cfg = SimConfig {
                    start_in_other: true,
                    system_noise_hz: 0.0,
                    ..SimConfig::paper_default(seed)
                };
                let mut sim = UiSimulation::new(cfg);
                for ms in (400..2_600).step_by(450) {
                    sim.queue(TimedEvent::new(
                        SimInstant::from_millis(ms),
                        UiEvent::OtherAppActivity,
                    ));
                }
                sim.queue(TimedEvent::new(
                    SimInstant::from_millis(3_000),
                    UiEvent::LaunchTargetApp,
                ));
                let mut rng = StdRng::seed_from_u64(seed);
                let plan = Typist::new(VOLUNTEERS[1]).type_text(
                    "openbanking1",
                    SimInstant::from_millis(4_000),
                    &mut rng,
                );
                let end = plan.end + SimDuration::from_millis(800);
                sim.queue_all(plan.events);
                (sim, end)
            }
            Victim::Practical { seed } => {
                let cfg = SimConfig { system_noise_hz: 0.0, ..SimConfig::paper_default(seed) };
                let mut sim = UiSimulation::new(cfg);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut typist = Typist::new(VOLUNTEERS[1]);
                let mut plan = typist.type_text("pasx", SimInstant::from_millis(900), &mut rng);
                plan.extend(typist.backspaces(1, plan.end, &mut rng));
                plan.extend(typist.type_text("s", plan.end, &mut rng));
                let away = plan.end + SimDuration::from_millis(300);
                sim.queue_all(plan.events);
                sim.queue(TimedEvent::new(away, UiEvent::SwitchAway));
                for k in 0..4u64 {
                    sim.queue(TimedEvent::new(
                        away + SimDuration::from_millis(400 + k * 350),
                        UiEvent::OtherAppActivity,
                    ));
                }
                let back = away + SimDuration::from_millis(2_200);
                sim.queue(TimedEvent::new(back, UiEvent::SwitchBack));
                let rest = typist.type_text("word", back + SimDuration::from_millis(900), &mut rng);
                let end = rest.end + SimDuration::from_millis(800);
                sim.queue_all(rest.events);
                (sim, end)
            }
        }
    }
}

/// One session of the matrix: a victim and the service options it runs
/// under.
#[derive(Debug, Clone, Copy)]
struct Case {
    victim: Victim,
    full_trace: bool,
    require_launch: bool,
}

impl Case {
    const fn credential(seed: u64, faults: Option<f64>, full_trace: bool) -> Self {
        Case { victim: Victim::Credential { seed, faults }, full_trace, require_launch: false }
    }
}

/// One trained model shared by every test in this binary.
fn store() -> &'static ModelStore {
    static STORE: OnceLock<ModelStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let cfg = SimConfig::paper_default(0);
        let mut store = ModelStore::new();
        store.add(Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app));
        store
    })
}

/// Runs the victim's session through a service with `config`.
fn run(victim: Victim, config: ServiceConfig) -> Result<SessionResult, ServiceError> {
    let service = AttackService::new(store().clone(), config);
    let (mut sim, end) = victim.build();
    service.eavesdrop(&mut sim, end)
}

/// Runs the case's session through the service.
fn eavesdrop(case: Case) -> Result<SessionResult, ServiceError> {
    let config = ServiceConfig {
        full_trace: case.full_trace,
        require_launch: case.require_launch,
        ..ServiceConfig::default()
    };
    run(case.victim, config)
}

/// Digest of the deltas and resets extracted from a raw trace of the
/// case's victim (or of the sampler's error, if it never read).
fn tap_digest(victim: Victim) -> u64 {
    let (mut sim, end) = victim.build();
    let trace = Sampler::open(sim.device(), SamplerConfig::default()).and_then(|mut sampler| {
        let trace = sampler.sample_until(&mut sim, end);
        sampler.close(sim.device());
        trace
    });
    match trace {
        Ok(trace) => {
            let (deltas, resets) = extract_deltas_with_resets(&trace);
            let mut digest = FNV_BASIS;
            for d in &deltas {
                digest = fnv1a(digest, &d.at.as_nanos().to_le_bytes());
                for value in d.values.as_array() {
                    digest = fnv1a(digest, &value.to_le_bytes());
                }
            }
            fnv1a(digest, &(resets as u64).to_le_bytes())
        }
        Err(err) => fnv1a(FNV_BASIS, format!("{err:?}").as_bytes()),
    }
}

/// Digest of Algorithm 1's decisions in a session: every accepted key
/// before corrections, then the five [`InferenceStats`] counts, or the
/// error. Hashed field by field rather than through `Debug`, so a change to
/// how a result is represented cannot move it.
fn decisions_digest(result: &Result<SessionResult, ServiceError>) -> u64 {
    match result {
        Ok(result) => {
            let mut digest = FNV_BASIS;
            for k in &result.keys_before_corrections {
                digest = fnv1a(digest, &k.at.as_nanos().to_le_bytes());
                digest = fnv1a(digest, &k.decided_at.as_nanos().to_le_bytes());
                digest = fnv1a(digest, &u32::from(k.ch).to_le_bytes());
                digest = fnv1a(digest, &[u8::from(k.via_split)]);
            }
            let InferenceStats { direct, peeled, splits_recovered, duplications_suppressed, noise } =
                result.stats;
            for count in [direct, peeled, splits_recovered, duplications_suppressed, noise] {
                digest = fnv1a(digest, &(count as u64).to_le_bytes());
            }
            digest
        }
        Err(err) => fnv1a(FNV_BASIS, format!("{err:?}").as_bytes()),
    }
}

/// The pinned digests of one case: its result, its decisions and its tap.
type Pinned = (Case, u64, u64, u64);

/// Runs every case, checks its three digests against their pinned values
/// and returns the session results in case order. All mismatches are
/// reported at once, with the digests this tree computed.
fn replay(pinned: &[Pinned]) -> Vec<Result<SessionResult, ServiceError>> {
    let mut results = Vec::with_capacity(pinned.len());
    let mut mismatches = Vec::new();
    for &(case, result_pin, decisions_pin, tap_pin) in pinned {
        let result = eavesdrop(case);
        let digests = (
            fnv1a(FNV_BASIS, format!("{result:?}").as_bytes()),
            decisions_digest(&result),
            tap_digest(case.victim),
        );
        if digests != (result_pin, decisions_pin, tap_pin) {
            let (result_digest, decisions, tap) = digests;
            mismatches.push(format!(
                "{case:?}: result {result_digest:#018x}, decisions {decisions:#018x}, \
                 tap {tap:#018x}"
            ));
        }
        results.push(result);
    }
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
    results
}

#[test]
fn clean_sessions_replay_their_pinned_digests() {
    let pinned = [
        (
            Case::credential(60, None, false),
            0xCAA2_3D4E_E618_9E8D,
            0x96CF_6C49_3418_C854,
            0x3941_20F1_16B9_1267,
        ),
        (
            Case::credential(61, None, false),
            0x0FED_D388_7169_94CB,
            0xE191_F1B0_6683_0500,
            0xB225_8904_392C_96E4,
        ),
        (
            Case::credential(62, None, false),
            0x2839_8407_62E7_F093,
            0x614F_F561_9162_F6A0,
            0x3849_8162_F240_DB0D,
        ),
        (
            Case::credential(60, None, true),
            0xFA10_2242_44C7_0A41,
            0xC5C6_32EC_D4C2_3EBA,
            0x3941_20F1_16B9_1267,
        ),
        (
            Case::credential(61, None, true),
            0x033D_8D7D_7196_466D,
            0x3851_64B8_B825_9AAE,
            0xB225_8904_392C_96E4,
        ),
        (
            Case::credential(62, None, true),
            0x7DD7_D810_82FC_5ECF,
            0x8CB0_07F9_12C8_BF8A,
            0x3849_8162_F240_DB0D,
        ),
    ];
    for ((case, ..), result) in pinned.iter().zip(replay(&pinned)) {
        // Guard against vacuous digests: clean sessions must recognise the
        // device and recover text.
        let result = result.unwrap_or_else(|e| panic!("{case:?} failed: {e}"));
        assert!(!result.recovered_text.is_empty(), "{case:?} recovered nothing");
    }
}

#[test]
fn faulted_sessions_replay_their_pinned_digests() {
    let pinned = [
        (
            Case::credential(70, Some(0.3), false),
            0xE655_432F_F7E2_1926,
            0x09CD_E680_C177_6179,
            0xA134_0B1C_E87C_2D3E,
        ),
        (
            Case::credential(71, Some(0.6), false),
            0xD1BC_6540_1E89_A544,
            0xD2DF_879A_A34E_FE1B,
            0xD5A1_7773_E0B0_E06D,
        ),
        (
            Case::credential(70, Some(0.3), true),
            0x6EA9_D575_5BDA_F488,
            0xF938_D341_89B9_4C81,
            0xA134_0B1C_E87C_2D3E,
        ),
        (
            Case::credential(71, Some(0.6), true),
            0x10DB_5B6A_4147_CA84,
            0x9BA6_8A88_9E93_ED2A,
            0xD5A1_7773_E0B0_E06D,
        ),
    ];
    // A fault plan may legitimately kill a session, but if every session
    // failed the digests would pin nothing but errors.
    let succeeded = replay(&pinned).iter().filter(|r| r.is_ok()).count();
    assert!(succeeded > 0, "at least one faulted session should still recover text");
}

#[test]
fn launch_gated_and_practical_sessions_replay_their_pinned_digests() {
    let pinned = [
        (
            Case {
                victim: Victim::PreLaunch { seed: 60 },
                full_trace: false,
                require_launch: true,
            },
            0x3089_9B83_6867_DE96,
            0xA0B6_25B7_6E6A_969D,
            0x9E73_F427_F211_C071,
        ),
        (
            Case {
                victim: Victim::Practical { seed: 2 },
                full_trace: false,
                require_launch: false,
            },
            0x29C1_6950_DAAE_AD2C,
            0xF619_F978_21A2_1D3B,
            0xD88E_B12E_5675_1B4D,
        ),
    ];
    let results = replay(&pinned);
    let launched = results[0].as_ref().expect("the gated session recognises the launch");
    assert!(launched.launch_at.is_some(), "the gate must arm on the launch burst");
    assert_eq!(launched.recovered_text, "openbanking1");
    let practical = results[1].as_ref().expect("the practical session succeeds");
    assert_eq!(practical.recovered_text, "password", "the deleted 'x' must not appear");
    assert_eq!(practical.switches, 2, "away + back bursts");
    assert!(
        practical.corrections.iter().any(|e| matches!(e, CorrectionEvent::CharDeleted(_))),
        "the backspace must reach the echo stream"
    );
}

#[test]
fn echo_corroboration_keeps_exactly_the_typed_credential() {
    // The filter keeps a press only when a commit echo follows it. These
    // sessions open on the empty field's cursor blink-off, so the filter
    // holds only if the echo decoder reads that count-2 echo as a hidden
    // cursor and still sees the first commit.
    let corroborated = ServiceConfig { echo_corroboration: true, ..ServiceConfig::default() };
    let mut inserted = 0;
    for seed in 60..=71 {
        let victim = Victim::Credential { seed, faults: None };
        let unfiltered = run(victim, ServiceConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed} failed unfiltered: {e}"));
        let filtered = run(victim, corroborated.clone())
            .unwrap_or_else(|e| panic!("seed {seed} failed filtered: {e}"));
        assert_eq!(filtered.recovered_text, "hunter2pass", "seed {seed}");
        assert!(
            filtered.keys.iter().all(|k| unfiltered.keys.contains(k)),
            "seed {seed}: the filter may only remove keys"
        );
        inserted += usize::from(unfiltered.recovered_text != "hunter2pass");
    }
    assert!(inserted > 0, "no unfiltered session inserted a key: the filter went unexercised");
}
