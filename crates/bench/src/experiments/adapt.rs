//! Adaptability experiments: Fig 24 (devices, resolutions, phones, OS
//! versions) and the §7.6 model-size accounting.

use android_ui::screen::{AndroidVersion, Resolution, ALL_PHONES};
use android_ui::{DeviceConfig, PhoneModel};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::registry::{encode_model, Quantization};
use input_bot::corpus::CredentialKind;

use crate::experiments::Ctx;
use crate::outln;
use crate::report;
use crate::trials::{eval_credentials, TrialOptions};

fn eval_device(ctx: &Ctx, device: DeviceConfig, trials: usize, seed: u64) -> (f64, f64) {
    let mut opts = TrialOptions::paper_default(0);
    opts.sim.device = device;
    let store =
        ModelStore::from(ctx.registry.get_or_train(device, opts.sim.keyboard, opts.sim.app));
    let agg =
        eval_credentials(&ctx.pool, &store, &opts, CredentialKind::Username, 10, trials, seed);
    (agg.text_accuracy(), agg.key_accuracy())
}

/// Fig 24: the attack adapts across GPU models, resolutions, phone models
/// and Android versions because each configuration carries its own trained
/// model.
pub fn fig24(ctx: &Ctx) {
    report::section("Fig 24", "adaptability of the attack");
    let trials = ctx.trials(12);

    outln!("(a) GPU models");
    for phone in [
        PhoneModel::LgV30Plus,   // Adreno 540
        PhoneModel::OnePlus7Pro, // Adreno 640
        PhoneModel::OnePlus8Pro, // Adreno 650
        PhoneModel::OnePlus9,    // Adreno 660
    ] {
        let device = DeviceConfig::for_phone(phone);
        let (text, key) = eval_device(ctx, device, trials, 24);
        report::pct_row(
            &format!("  {}", phone.gpu().name()),
            &[("text".into(), text), ("key".into(), key)],
        );
    }

    outln!("(b) screen resolutions (OnePlus 8 Pro)");
    for resolution in [Resolution::Fhd, Resolution::Qhd] {
        let device = DeviceConfig { resolution, ..DeviceConfig::oneplus8pro() };
        let (text, key) = eval_device(ctx, device, trials, 24);
        report::pct_row(&format!("  {resolution}"), &[("text".into(), text), ("key".into(), key)]);
    }

    outln!("(c) phone models sharing a GPU");
    for phone in ALL_PHONES {
        let device = DeviceConfig::for_phone(phone);
        let (text, key) = eval_device(ctx, device, trials, 24);
        report::pct_row(
            &format!("  {} ({})", phone.name(), phone.gpu().name()),
            &[("text".into(), text), ("key".into(), key)],
        );
    }

    outln!("(d) Android OS versions (OnePlus 8 Pro hardware)");
    for android in
        [AndroidVersion::V8_1, AndroidVersion::V9, AndroidVersion::V10, AndroidVersion::V11]
    {
        let device = DeviceConfig { android, ..DeviceConfig::oneplus8pro() };
        let (text, key) = eval_device(ctx, device, trials, 24);
        report::pct_row(
            &format!("  Android {android}"),
            &[("text".into(), text), ("key".into(), key)],
        );
    }
}

/// §7.6: model wire size and the projected size of a fully-stocked
/// attacking app.
pub fn modelsize(ctx: &Ctx) {
    report::section("§7.6", "classifier model sizes");
    let opts = TrialOptions::paper_default(0);
    let handle = ctx.registry.get_or_train(opts.sim.device, opts.sim.keyboard, opts.sim.app);
    for q in Quantization::ALL {
        report::kv(
            &format!("one model (GPMR registry, {})", q.name()),
            format!("{:.2} kB", encode_model(handle.model(), q).len() as f64 / 1024.0),
        );
    }

    // A store covering a few real configurations, served straight from the
    // registry's encoded blobs.
    let mut store = ModelStore::new();
    for phone in [PhoneModel::OnePlus8Pro, PhoneModel::OnePlus9] {
        for kb in [android_ui::KeyboardKind::Gboard, android_ui::KeyboardKind::Swift] {
            store.add_handle(ctx.registry.get_or_train(
                DeviceConfig::for_phone(phone),
                kb,
                opts.sim.app,
            ));
        }
    }
    report::kv(
        "store with 4 configurations",
        format!("{:.2} kB", store.total_wire_bytes() as f64 / 1024.0),
    );
    let projected = encode_model(handle.model(), Quantization::F32).len() * 3_000;
    report::kv(
        "projected 3,000-model app payload",
        format!("{:.2} MB at f32 (paper: ≤13.40 MB)", projected as f64 / (1024.0 * 1024.0)),
    );
}
