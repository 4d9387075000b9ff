//! Property-based coverage of the GPMR registry encoder: the content digest
//! is deterministic at both tiers, and at the bit-exact `f64` tier two
//! models that differ in any one part never share a blob, so wire v2's
//! digest pin never names two models.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use android_ui::keyboard::ALL_KEYBOARDS;
use android_ui::screen::ALL_PHONES;
use android_ui::{AndroidVersion, RefreshRate, Resolution, TargetApp};
use gpu_sc_attack::classify::{ClassifierModel, KeyCentroid, ModelMeta};
use gpu_sc_attack::registry::{encode_model, ModelDigest, Quantization};
use proptest::prelude::*;

const ANDROIDS: [AndroidVersion; 4] =
    [AndroidVersion::V8_1, AndroidVersion::V9, AndroidVersion::V10, AndroidVersion::V11];
const RESOLUTIONS: [Resolution; 2] = [Resolution::Fhd, Resolution::Qhd];
const REFRESHES: [RefreshRate; 2] = [RefreshRate::Hz60, RefreshRate::Hz120];
const APPS: [TargetApp; 13] = [
    TargetApp::Chase,
    TargetApp::Amex,
    TargetApp::Fidelity,
    TargetApp::Schwab,
    TargetApp::MyFico,
    TargetApp::Experian,
    TargetApp::ChromeChase,
    TargetApp::ChromeSchwab,
    TargetApp::ChromeExperian,
    TargetApp::Pnc,
    TargetApp::Gedit,
    TargetApp::GmailWeb,
    TargetApp::DropboxClient,
];

/// An arbitrary trained-for configuration: every enum code path in the
/// GPMR header gets exercised.
fn arb_meta() -> impl Strategy<Value = ModelMeta> {
    (0usize..6, 0usize..4, 0usize..2, 0usize..2, 0usize..6, 0usize..13).prop_map(
        |(phone, android, resolution, refresh, keyboard, app)| ModelMeta {
            phone: ALL_PHONES[phone],
            android: ANDROIDS[android],
            resolution: RESOLUTIONS[resolution],
            refresh: REFRESHES[refresh],
            keyboard: ALL_KEYBOARDS[keyboard],
            app: APPS[app],
        },
    )
}

fn arb_set(max: u64) -> impl Strategy<Value = CounterSet> {
    prop::collection::vec(0..max, NUM_TRACKED)
        .prop_map(|v| CounterSet::from_array(v.try_into().unwrap()))
}

/// An arbitrary well-formed model (the shape `core_proptests.rs` uses), with
/// non-trivial whitening weights — the encoder writes those exactly at
/// both quantization tiers.
fn arb_model() -> impl Strategy<Value = ClassifierModel> {
    (
        (arb_meta(), prop::collection::vec(1u64..64, NUM_TRACKED)),
        prop::collection::btree_map(
            prop::char::range('a', 'z'),
            arb_set(2_000_000).prop_filter("nonzero centroid", |s| s.total() > 0),
            1..12,
        ),
        0.1f64..200.0,
        arb_set(1_000_000),
        arb_set(60_000),
        prop::collection::vec(arb_set(60_000), 0..6),
        arb_set(3_000_000),
        1u64..2_000_000,
    )
        .prop_map(|((meta, weights), centroids, threshold, kb, app, sigs, launch, switch)| {
            let centroids: Vec<KeyCentroid> =
                centroids.into_iter().map(|(ch, values)| KeyCentroid { ch, values }).collect();
            let weights: [f64; NUM_TRACKED] =
                weights.iter().map(|&w| 1.0 / w as f64).collect::<Vec<_>>().try_into().unwrap();
            ClassifierModel::new(meta, centroids, weights, threshold, kb, app, sigs, launch, switch)
        })
}

/// Every part of a model that `encode_model` writes, as
/// `ClassifierModel::new` takes them.
struct Parts {
    meta: ModelMeta,
    centroids: Vec<KeyCentroid>,
    weights: [f64; NUM_TRACKED],
    threshold: f64,
    kb_signature: CounterSet,
    app_signature: CounterSet,
    field_signatures: Vec<CounterSet>,
    launch_signature: CounterSet,
    switch_threshold: u64,
}

impl Parts {
    fn of(m: &ClassifierModel) -> Parts {
        Parts {
            meta: *m.meta(),
            centroids: m.centroids().to_vec(),
            weights: *m.weights(),
            threshold: m.threshold(),
            kb_signature: *m.kb_signature(),
            app_signature: *m.app_signature(),
            field_signatures: m.ambient_signatures().into(),
            launch_signature: *m.launch_signature(),
            switch_threshold: m.switch_threshold(),
        }
    }

    fn build(self) -> ClassifierModel {
        ClassifierModel::new(
            self.meta,
            self.centroids,
            self.weights,
            self.threshold,
            self.kb_signature,
            self.app_signature,
            self.field_signatures,
            self.launch_signature,
            self.switch_threshold,
        )
    }
}

/// The variant after `v` in `all`, wrapping around.
fn next<T: Copy + PartialEq>(all: &[T], v: T) -> T {
    all[(all.iter().position(|&x| x == v).unwrap() + 1) % all.len()]
}

/// The float one ulp away (its lowest mantissa bit flipped).
fn ulp(x: f64) -> f64 {
    f64::from_bits(x.to_bits() ^ 1)
}

fn bump(set: &mut CounterSet, i: usize) {
    let mut a = *set.as_array();
    a[i] += 1;
    *set = CounterSet::from_array(a);
}

/// The parts `change_part` changes, by number.
const PARTS: [&str; 16] = [
    "meta.phone",
    "meta.android",
    "meta.resolution",
    "meta.refresh",
    "meta.keyboard",
    "meta.app",
    "threshold",
    "a weight",
    "kb_signature",
    "app_signature",
    "launch_signature",
    "switch_threshold",
    "the field-signature count",
    "a field signature",
    "a centroid's char",
    "a centroid's counter",
];

/// Changes part number `part` of `p` by the least step its type allows;
/// `pick` chooses which weight, counter, field signature and centroid.
fn change_part(p: &mut Parts, part: usize, pick: usize) {
    let i = pick % NUM_TRACKED;
    match part {
        0 => p.meta.phone = next(&ALL_PHONES, p.meta.phone),
        1 => p.meta.android = next(&ANDROIDS, p.meta.android),
        2 => p.meta.resolution = next(&RESOLUTIONS, p.meta.resolution),
        3 => p.meta.refresh = next(&REFRESHES, p.meta.refresh),
        4 => p.meta.keyboard = next(&ALL_KEYBOARDS, p.meta.keyboard),
        5 => p.meta.app = next(&APPS, p.meta.app),
        6 => p.threshold = ulp(p.threshold),
        7 => p.weights[i] = ulp(p.weights[i]),
        8 => bump(&mut p.kb_signature, i),
        9 => bump(&mut p.app_signature, i),
        10 => bump(&mut p.launch_signature, i),
        11 => p.switch_threshold += 1,
        12 => p.field_signatures.push(CounterSet::ZERO),
        13 => {
            let n = p.field_signatures.len().max(1);
            match p.field_signatures.get_mut(pick % n) {
                Some(sig) => bump(sig, i),
                None => p.field_signatures.push(CounterSet::ZERO),
            }
        }
        14 => {
            // The generated chars are all lower case.
            let n = p.centroids.len();
            p.centroids[pick % n].ch = 'A';
        }
        15 => {
            let n = p.centroids.len();
            bump(&mut p.centroids[pick % n].values, i);
        }
        _ => unreachable!("part {part} out of range"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Distinct canonical encodings get distinct addresses; identical
    /// models always agree (determinism of the encoder + hash).
    #[test]
    fn digest_is_deterministic_per_tier(model in arb_model()) {
        for q in Quantization::ALL {
            let a = ModelDigest::of(&encode_model(&model, q));
            let b = ModelDigest::of(&encode_model(&model, q));
            prop_assert_eq!(a, b);
            prop_assert!(!a.is_zero());
        }
    }

    /// The `f64` blob is injective: changing any one part of a model — the
    /// meta, the threshold, a weight, a signature, `switch_threshold`, the
    /// field-signature list, a centroid's char or counter — changes the
    /// blob, and so the digest. Only the `f64` tier promises this: `f32`
    /// may merge nearby centroid values.
    #[test]
    fn changing_any_one_part_changes_the_f64_blob(model in arb_model(), pick in 0usize..1_000) {
        let blob = encode_model(&model, Quantization::F64);
        for (part, name) in PARTS.iter().enumerate() {
            let mut parts = Parts::of(&model);
            change_part(&mut parts, part, pick);
            let other = encode_model(&parts.build(), Quantization::F64);
            prop_assert!(other != blob, "changing {} left the f64 blob unchanged", name);
            prop_assert!(ModelDigest::of(&other) != ModelDigest::of(&blob));
        }
    }
}
