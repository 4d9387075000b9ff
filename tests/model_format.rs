//! The GPMR model format, pinned: the paper-default model (OnePlus 8 Pro /
//! GBoard / Chase) must encode to the same bytes — and so the same content
//! digest — at both tiers. Wire v2's pinned `Hello` and every stored model
//! name depend on these digests; the round-trip proptests would pass for
//! any self-consistent format, so only a pin notices a changed byte.

use gpu_eaves::android_ui::SimConfig;
use gpu_eaves::attack::offline::{ModelStore, Trainer, TrainerConfig};
use gpu_eaves::attack::registry::{
    decode_model, encode_model, ModelDecodeError, ModelDigest, ModelHandle, Quantization,
};

#[test]
fn paper_default_model_encodes_to_the_pinned_digests() {
    let cfg = SimConfig::paper_default(0);
    let model = Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app);
    for (q, digest, len) in [
        (
            Quantization::F64,
            "34b4e70e0d7eeccabb9fdf22db987f237a7929295927cfa88f29d94bd9a645a1",
            8_054,
        ),
        (
            Quantization::F32,
            "118490c067d63e0424b2328db8e060537340b27d8a6a4bb1beb57e15bfa22fc0",
            4_534,
        ),
    ] {
        let blob = encode_model(&model, q);
        assert_eq!(blob.len(), len, "{} blob length", q.name());
        assert_eq!(ModelDigest::of(&blob).to_string(), digest, "{} digest", q.name());
    }

    // Tier code 2 (the retired i16 tier) is a typed error on both decode
    // paths, never a panic.
    let mut retired = encode_model(&model, Quantization::F32).to_vec();
    retired[5] = 2;
    let expected = Err(ModelDecodeError::BadField("quantization"));
    assert_eq!(decode_model(&retired).map(|_| ()), expected);
    assert_eq!(ModelHandle::from_blob(retired).map(|_| ()), expected);
}

/// The store container, pinned: a `u32` model count, then each model as a
/// `u32` length and its GPMR blob. Round trips alone would pass for any
/// self-consistent framing.
#[test]
fn model_store_container_encodes_to_the_pinned_digest() {
    let cfg = SimConfig::paper_default(0);
    let model = Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app);
    let mut store = ModelStore::new();
    store.add(model.clone());
    store.add(model);
    let bytes = store.to_bytes();
    assert_eq!(bytes.len(), 4 + 2 * (4 + 8_054));
    assert_eq!(
        ModelDigest::of(&bytes).to_string(),
        "c924277f03cf31f36cc8ad3dd52961220648d128759694e997330f2c8661d446"
    );
}
