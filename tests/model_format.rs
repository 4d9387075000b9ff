//! The GPMR model format, pinned: the paper-default model (OnePlus 8 Pro /
//! GBoard / Chase) must encode to the same bytes — and so the same content
//! digest — at both tiers. Wire v2's pinned `Hello` and every model name
//! depend on these digests; the injectivity property in
//! `core_registry_roundtrip.rs` would pass for any injective format, so
//! only a pin notices a changed byte.

use gpu_eaves::android_ui::SimConfig;
use gpu_eaves::attack::offline::{Trainer, TrainerConfig};
use gpu_eaves::attack::registry::{encode_model, ModelDigest, Quantization};

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
}
