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
//! * the acceptance box: a change on its face is a press at distance
//!   `C_th`, one count beyond it is noise;
//! * peeling (steps 2b and 3b): a key merged with a field redraw in one
//!   read, or split across two reads with the redraw in one of them, is one
//!   press, and the redraw whose residual is closest is the one surfaced as
//!   noise;
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
use gpu_eaves::attack::appswitch::SwitchStage;
use gpu_eaves::attack::classify::{Classification, ClassifierModel, KeyCentroid, ModelMeta};
use gpu_eaves::attack::launch::LaunchGate;
use gpu_eaves::attack::online::{InferEvent, InferStage, InferenceStats, InferredKey};
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
    let mut events = Vec::new();
    for &delta in deltas {
        events.extend(stage.push(delta));
    }
    events.extend(stage.finish());
    (events, stage.stats())
}

/// The lookahead or the greedy inference stage over `m`.
fn variant(m: &ClassifierModel, lookahead: bool) -> InferStage<'_> {
    if lookahead {
        InferStage::lookahead(m)
    } else {
        InferStage::greedy(m)
    }
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
        let (events, stats) = infer(variant(&m, lookahead), &joined);
        assert_eq!(
            events,
            vec![key(100, 120, 'w', true)],
            "20 ms apart is one backdated press (lookahead: {lookahead})"
        );
        assert_eq!((stats.splits_recovered, stats.noise), (1, 0));

        let (events, stats) = infer(variant(&m, lookahead), &apart);
        assert_eq!(
            events,
            vec![InferEvent::Noise(apart[0]), InferEvent::Noise(apart[1])],
            "21 ms apart is two noise changes (lookahead: {lookahead})"
        );
        assert_eq!((stats.splits_recovered, stats.noise), (0, 2));
    }
}

#[test]
fn a_change_on_the_acceptance_box_face_is_a_press_and_one_count_beyond_is_noise() {
    let m = model();
    // 'w' sets the box's upper primitive face: 160 + C_th = 180.
    let (face, beyond) = (set(1000, 180), set(1000, 181));
    assert_eq!(m.classify(&face), Classification::Key { ch: 'w', distance: 20.0 });
    assert_eq!(m.classify(&beyond), Classification::Rejected);

    for lookahead in [false, true] {
        let (events, stats) = infer(variant(&m, lookahead), &[d(100, face)]);
        assert_eq!(events, vec![key(100, 100, 'w', false)], "on the face (lookahead: {lookahead})");
        assert_eq!((stats.direct, stats.noise), (1, 0));

        let (events, stats) = infer(variant(&m, lookahead), &[d(100, beyond)]);
        assert_eq!(
            events,
            vec![InferEvent::Noise(d(100, beyond))],
            "one count beyond the face (lookahead: {lookahead})"
        );
        assert_eq!((stats.direct, stats.noise), (0, 1));
    }
}

#[test]
fn a_field_redraw_merged_into_one_read_is_peeled_off_by_its_closest_residual() {
    let m = model();
    // 'w' plus the (24, 4) field redraw: 24.3 from 'w', rejected directly.
    let merged = set(1024, 164);
    assert_eq!(m.classify(&merged), Classification::Rejected);
    // Peeling (20, 2) instead would leave a residual 4.47 from 'w', also a
    // hit; the exact residual of (24, 4) is closer and wins.
    assert_eq!(
        m.classify(&set(1004, 162)),
        Classification::Key { ch: 'w', distance: 20f64.sqrt() }
    );

    for lookahead in [false, true] {
        let (events, stats) = infer(variant(&m, lookahead), &[d(100, merged)]);
        assert_eq!(
            events,
            vec![key(100, 100, 'w', false), InferEvent::Noise(d(100, set(24, 4)))],
            "one press, and the peeled redraw as noise at the same read (lookahead: {lookahead})"
        );
        assert_eq!((stats.direct, stats.peeled, stats.splits_recovered, stats.noise), (0, 1, 0, 0));
    }
}

#[test]
fn a_split_whose_sum_carries_a_field_redraw_is_peeled_after_recombining() {
    let m = model();
    // The merged read above, cut 600/96 + 424/68 across two reads 8 ms
    // apart: neither fragment is near a key, and neither is peelable, so
    // only step 3b, peeling the recombined sum, finds the press.
    let fragments = [d(100, set(600, 96)), d(108, set(424, 68))];
    for lookahead in [false, true] {
        let (events, stats) = infer(variant(&m, lookahead), &fragments);
        assert_eq!(
            events,
            vec![key(100, 108, 'w', true), InferEvent::Noise(d(108, set(24, 4)))],
            "one press dated at the first fragment, decided at the second (lookahead: {lookahead})"
        );
        assert_eq!((stats.direct, stats.peeled, stats.splits_recovered, stats.noise), (0, 1, 1, 0));
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
        let mut typed = false;
        for delta in deltas {
            typed |= stage.push(delta).1.is_some();
        }
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
        let out: Vec<Delta> =
            [d(100, burst), after].into_iter().filter_map(|delta| gate.push(delta)).collect();
        (gate.launch_at(), out == vec![after])
    };

    assert_eq!(run(0), (Some(SimInstant::from_millis(100)), true), "the signature itself");
    assert_eq!(run(480), (Some(SimInstant::from_millis(100)), true), "480/9,600 is 5 %");
    assert_eq!(run(481), (None, false), "481/9,600 is beyond 5 %");
}
