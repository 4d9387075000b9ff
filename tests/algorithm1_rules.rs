//! Algorithm 1's rule boundaries, scripted change by change.
//!
//! The pinned digests in `tests/pipeline_digests.rs` say what the pipeline
//! does on real sessions, but a rule moved by one step — `T_l` at 76 ms, a
//! split window one millisecond wider, a launch tolerance of 0 — flips none
//! of them. Each test here feeds a stage a hand-built change stream whose
//! right answer is known by construction, on both sides of one rule's
//! boundary:
//!
//! * `T_l` (§5.1): a repeat 74 ms after a press is an animation duplicate,
//!   one 75 ms after it is a second press;
//! * split recombination: two fragments of a key 20 ms apart are one press,
//!   21 ms apart they are two noise changes, for both inference variants;
//! * the app-switch filter (§5.2): three switch-sized changes 50 ms apart
//!   are a switch burst; 51 ms apart, or only two, are not;
//! * the launch gate (§3.2): a change within 5 % relative L1 of the launch
//!   signature is the launch, one count further is not.
//!
//! The model is two hand-placed key centroids with unit weights, so every
//! distance can be worked out by hand.

use adreno_sim::counters::{CounterSet, TrackedCounter, NUM_TRACKED};
use adreno_sim::time::SimInstant;
use gpu_eaves::android_ui::{
    AndroidVersion, KeyboardKind, PhoneModel, RefreshRate, Resolution, TargetApp,
};
use gpu_eaves::attack::appswitch::{SwitchEvent, SwitchStage};
use gpu_eaves::attack::classify::{ClassifierModel, KeyCentroid, ModelMeta};
use gpu_eaves::attack::launch::LaunchGate;
use gpu_eaves::attack::online::{InferEvent, InferStage, InferenceStats, InferredKey};
use gpu_eaves::attack::stage::{run_to_vec, Stage};
use gpu_eaves::attack::trace::Delta;

/// Switch-sized changes are at least this large (the model's trained
/// threshold, set by hand here).
const SWITCH_THRESHOLD: u64 = 100_000;

fn set(tiles: u64, prims: u64) -> CounterSet {
    let mut c = CounterSet::ZERO;
    c[TrackedCounter::Ras8x4Tiles] = tiles;
    c[TrackedCounter::VpcPcPrimitives] = prims;
    c
}

fn d(ms: u64, values: CounterSet) -> Delta {
    Delta { at: SimInstant::from_millis(ms), values }
}

/// 'w' at (1000 tiles, 160 prims) and 'n' at (1100, 150), unit weights and
/// `C_th` = 20: a change is a key press only within 20 counts of one.
fn model() -> ClassifierModel {
    let meta = ModelMeta {
        phone: PhoneModel::OnePlus8Pro,
        android: AndroidVersion::V11,
        resolution: Resolution::Fhd,
        refresh: RefreshRate::Hz60,
        keyboard: KeyboardKind::Gboard,
        app: TargetApp::Chase,
    };
    ClassifierModel::new(
        meta,
        vec![
            KeyCentroid { ch: 'w', values: set(1000, 160) },
            KeyCentroid { ch: 'n', values: set(1100, 150) },
        ],
        [1.0; NUM_TRACKED],
        20.0,
        set(800, 120),
        set(8000, 60),
        vec![set(20, 2), set(24, 4)],
        set(9_000, 600),
        SWITCH_THRESHOLD,
    )
}

/// Runs `deltas` through one inference stage: its events and statistics.
fn infer(mut stage: InferStage<'_>, deltas: &[Delta]) -> (Vec<InferEvent>, InferenceStats) {
    let events = run_to_vec(&mut stage, deltas.iter().copied());
    (events, stage.stats())
}

fn key(at_ms: u64, decided_ms: u64, ch: char, via_split: bool) -> InferEvent {
    InferEvent::Key(InferredKey {
        at: SimInstant::from_millis(at_ms),
        decided_at: SimInstant::from_millis(decided_ms),
        ch,
        via_split,
    })
}

#[test]
fn a_repeat_inside_t_l_is_a_duplicate_and_one_at_t_l_is_a_press() {
    let m = model();
    let w = set(1000, 160);

    let (events, stats) = infer(InferStage::greedy(&m), &[d(100, w), d(174, w)]);
    assert_eq!(events, vec![key(100, 100, 'w', false)], "+74 ms is inside T_l");
    assert_eq!((stats.direct, stats.duplications_suppressed), (1, 1));

    let (events, stats) = infer(InferStage::greedy(&m), &[d(100, w), d(175, w)]);
    assert_eq!(
        events,
        vec![key(100, 100, 'w', false), key(175, 175, 'w', false)],
        "+75 ms is a second press"
    );
    assert_eq!((stats.direct, stats.duplications_suppressed), (2, 0));
}

#[test]
fn split_fragments_recombine_up_to_the_split_gap_in_both_variants() {
    let m = model();
    // 60 % and 40 % of 'w': neither is within C_th of a centroid alone.
    let (first, second) = (set(600, 96), set(400, 64));

    let joined = [d(100, first), d(120, second)];
    let apart = [d(100, first), d(121, second)];
    for lookahead in [false, true] {
        let stage = || {
            if lookahead {
                InferStage::lookahead(&m)
            } else {
                InferStage::greedy(&m)
            }
        };

        let (events, stats) = infer(stage(), &joined);
        assert_eq!(
            events,
            vec![key(100, 120, 'w', true)],
            "20 ms apart is one backdated press (lookahead: {lookahead})"
        );
        assert_eq!((stats.splits_recovered, stats.noise), (1, 0));

        let (events, stats) = infer(stage(), &apart);
        assert_eq!(
            events,
            vec![InferEvent::Noise(apart[0]), InferEvent::Noise(apart[1])],
            "21 ms apart is two noise changes (lookahead: {lookahead})"
        );
        assert_eq!((stats.splits_recovered, stats.noise), (0, 2));
    }
}

#[test]
fn three_switch_sized_changes_within_the_burst_gap_toggle_once() {
    let big = set(SWITCH_THRESHOLD, 0);
    let typing = set(1000, 160);
    // Switch-sized changes at the given offsets from 1 s, then one typing
    // change at 2 s: the switch count, and whether the typing change was
    // still taken as in-target.
    let run = |offsets: &[u64]| {
        let mut stage = SwitchStage::new(SWITCH_THRESHOLD);
        let mut deltas: Vec<Delta> = offsets.iter().map(|ms| d(1_000 + ms, big)).collect();
        deltas.push(d(2_000, typing));
        let events = run_to_vec(&mut stage, deltas);
        let typed = events.iter().any(|e| matches!(e, SwitchEvent::Typing(_)));
        (stage.switches_detected(), typed)
    };

    assert_eq!(run(&[0, 50, 100]), (1, false), "three changes 50 ms apart are a switch");
    assert_eq!(run(&[0, 50, 100, 150]), (1, false), "a longer burst still toggles once");
    assert_eq!(run(&[0, 51, 102]), (0, true), "51 ms apart is no burst");
    assert_eq!(run(&[0, 50]), (0, true), "two changes are no burst");
}

#[test]
fn the_launch_gate_fires_within_five_percent_relative_l1() {
    let mut signature = CounterSet::ZERO;
    signature[TrackedCounter::LrzVisiblePixelAfterLrz] = 9_000;
    signature[TrackedCounter::Ras8x4Tiles] = 500;
    signature[TrackedCounter::VpcPcPrimitives] = 100;
    assert_eq!(signature.total(), 9_600);
    // The launch burst `off` counts away from the signature, then a change
    // the gate passes only once it has seen the launch.
    let run = |off: u64| {
        let mut burst = signature;
        burst[TrackedCounter::LrzVisiblePixelAfterLrz] += off;
        let after = d(200, set(1000, 160));
        let mut gate = LaunchGate::armed(signature);
        let mut out = Vec::new();
        gate.push(d(100, burst), &mut out);
        gate.push(after, &mut out);
        gate.finish(&mut out);
        (gate.launch_at(), out == vec![after])
    };

    assert_eq!(run(0), (Some(SimInstant::from_millis(100)), true), "the signature itself");
    assert_eq!(run(480), (Some(SimInstant::from_millis(100)), true), "480/9,600 is 5 %");
    assert_eq!(run(481), (None, false), "481/9,600 is beyond 5 %");
}
