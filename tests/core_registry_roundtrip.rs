//! Property-based coverage of the GPMR registry codec: the `f64` tier
//! round-trips bit-exactly, the `f32` tier stays inside its documented
//! error bound, decode→re-encode is idempotent at both tiers (so content
//! digests are stable), and truncated blobs never panic.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use android_ui::keyboard::ALL_KEYBOARDS;
use android_ui::screen::ALL_PHONES;
use android_ui::{AndroidVersion, RefreshRate, Resolution, TargetApp};
use gpu_sc_attack::classify::{ClassifierModel, KeyCentroid, ModelMeta};
use gpu_sc_attack::registry::{decode_model, encode_model, ModelDigest, Quantization};
use proptest::prelude::*;

/// An arbitrary trained-for configuration: every enum code path in the
/// GPMR header gets exercised.
fn arb_meta() -> impl Strategy<Value = ModelMeta> {
    (0usize..6, 0usize..4, 0usize..2, 0usize..2, 0usize..6, 0usize..13).prop_map(
        |(phone, android, resolution, refresh, keyboard, app)| ModelMeta {
            phone: ALL_PHONES[phone],
            android: [
                AndroidVersion::V8_1,
                AndroidVersion::V9,
                AndroidVersion::V10,
                AndroidVersion::V11,
            ][android],
            resolution: [Resolution::Fhd, Resolution::Qhd][resolution],
            refresh: [RefreshRate::Hz60, RefreshRate::Hz120][refresh],
            keyboard: ALL_KEYBOARDS[keyboard],
            app: [
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
            ][app],
        },
    )
}

fn arb_set(max: u64) -> impl Strategy<Value = CounterSet> {
    prop::collection::vec(0..max, NUM_TRACKED)
        .prop_map(|v| CounterSet::from_array(v.try_into().unwrap()))
}

/// An arbitrary well-formed model (the shape `core_proptests.rs` uses), with
/// non-trivial whitening weights — the codec must keep those exact at
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

/// Everything the codec promises to keep exact at *any* tier.
fn assert_exact_parts(back: &ClassifierModel, model: &ClassifierModel) {
    assert_eq!(back.meta(), model.meta());
    assert_eq!(back.weights(), model.weights());
    assert_eq!(back.threshold().to_bits(), model.threshold().to_bits());
    assert_eq!(back.kb_signature(), model.kb_signature());
    assert_eq!(back.app_signature(), model.app_signature());
    assert_eq!(back.ambient_signatures(), model.ambient_signatures());
    assert_eq!(back.launch_signature(), model.launch_signature());
    assert_eq!(back.switch_threshold(), model.switch_threshold());
    assert_eq!(back.centroids().len(), model.centroids().len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `f64` tier is the identity: every field — centroid values
    /// included — survives bit-exactly.
    #[test]
    fn f64_round_trip_is_bit_exact(model in arb_model()) {
        let blob = encode_model(&model, Quantization::F64);
        let back = decode_model(&blob).unwrap();
        assert_exact_parts(&back, &model);
        prop_assert_eq!(back.centroids(), model.centroids());
    }

    /// The `f32` tier honours its documented bound: per centroid value `v`,
    /// `|dec − v| ≤ v / 2²³ + 1`.
    #[test]
    fn f32_round_trip_is_within_documented_bound(model in arb_model()) {
        let back = decode_model(&encode_model(&model, Quantization::F32)).unwrap();
        assert_exact_parts(&back, &model);
        for (b, m) in back.centroids().iter().zip(model.centroids()) {
            prop_assert_eq!(b.ch, m.ch);
            for (&dec, &v) in b.values.as_array().iter().zip(m.values.as_array()) {
                let bound = v as f64 / f64::from(1u32 << 23) + 1.0;
                prop_assert!(
                    dec.abs_diff(v) as f64 <= bound,
                    "f32 tier: |{dec} − {v}| exceeds {bound}"
                );
            }
        }
    }

    /// Decode→re-encode is idempotent at both tiers, so the content digest
    /// is stable: re-serving a decoded model keeps its address.
    #[test]
    fn digest_is_stable_across_reencode(model in arb_model()) {
        for q in Quantization::ALL {
            let blob = encode_model(&model, q);
            let digest = ModelDigest::of(&blob);
            let back = decode_model(&blob).unwrap();
            let again = encode_model(&back, q);
            prop_assert_eq!(&again, &blob, "{} re-encode changed bytes", q.name());
            prop_assert_eq!(ModelDigest::of(&again), digest);
        }
    }

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

    /// Truncated GPMR blobs never panic: every cut is `Ok` only at full
    /// length, a typed error everywhere else.
    #[test]
    fn truncated_blobs_never_panic(model in arb_model(), cut in 0usize..200) {
        for q in Quantization::ALL {
            let blob = encode_model(&model, q);
            let cut = cut.min(blob.len());
            let result = decode_model(&blob[..blob.len() - cut]);
            if cut == 0 {
                prop_assert!(result.is_ok());
            }
        }
    }
}
