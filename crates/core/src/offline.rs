//! The offline phase: training classification models (§3.2, §6).
//!
//! The attacker owns devices identical to the victims'. A bot emulates
//! every key press while the sampler records counter changes; the labelled
//! changes become per-key centroids, the unlabelled ones become the noise
//! exemplars that calibrate the acceptance threshold `C_th` ("decided
//! accordingly to eliminate any false positives", §5.1).
//!
//! One [`ClassifierModel`] is trained per `(phone, OS, resolution, refresh,
//! keyboard)` configuration; the [`ModelStore`] holds them all, as the
//! paper's attacking app ships them (§7.6: ≈3.6 kB each), and recognises
//! which one matches the victim device at run time from the keyboard's
//! base-redraw fingerprint.

use std::collections::HashMap;
use std::sync::Arc;

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use adreno_sim::font::FIG18_CHARSET;
use adreno_sim::pipeline::render;
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::apps::LoginScreen;
use android_ui::compositor::KeyboardWindow;
use android_ui::sim::{SimConfig, UiSimulation};
use android_ui::{DeviceConfig, KeyboardKind, TargetApp};

use crate::classify::{ClassifierModel, KeyCentroid, ModelMeta};
use crate::registry::{ModelDigest, ModelHandle};
use crate::sampler::{Sampler, SamplerConfig};
use crate::trace::{extract_deltas, Delta};

/// Maximum relative-L1 distance between an observed change and a model's
/// keyboard-redraw fingerprint for recognition (§3.2) to accept the match.
///
/// A true fingerprint is a deterministic re-render of the trained keyboard
/// base frame, so it scores at zero — or within a few tenths of a percent
/// when a dropped read merged it with a blink/echo frame. The closest
/// impostor observed is the keyboard *show* burst, which lands near (but
/// above) 0.005 against the wrong configuration's fingerprint. The
/// threshold sits between the two so that the first matching change can
/// decide on its own — which is what lets recognition commit mid-stream
/// instead of scanning the whole session.
const RECOGNITION_THRESHOLD: f64 = 0.005;

/// Trainer configuration.
#[derive(Debug, Clone, Default)]
pub struct TrainerConfig {
    /// Optional counter mask for the counter-subset ablation: masked-out
    /// counters get zero weight in the distance metric before `C_th`
    /// calibration. `None` keeps all eleven counters.
    pub counter_mask: Option<[bool; NUM_TRACKED]>,
}

/// Repetitions per key during calibration (more reps → the modal sample
/// wins over occasional split-corrupted ones).
const CALIBRATION_REPS: usize = 5;

/// Safety factor applied below the closest noise exemplar when fixing
/// `C_th`.
const THRESHOLD_MARGIN: f64 = 0.6;

/// How long after a press the popup change may arrive (vsync + read
/// latency).
const POPUP_WINDOW: SimDuration = SimDuration::from_millis(35);
/// Changes within this window of a press are press-related (popup, split
/// fragments, duplicated animation frames) and excluded from the noise
/// exemplars.
const PRESS_EXCLUSION: SimDuration = SimDuration::from_millis(95);

/// The offline trainer.
#[derive(Debug, Default)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer { config }
    }

    /// Trains a model for one device/keyboard/app configuration by driving
    /// the calibration bot through the full Fig 18 character set, sampled
    /// at the online default of 8 ms so that the deltas align.
    ///
    /// # Panics
    ///
    /// Panics if calibration produces no labelled sample for some character
    /// (which would mean the substrate lost popup frames entirely).
    pub fn train(
        &self,
        device: DeviceConfig,
        keyboard: KeyboardKind,
        app: TargetApp,
    ) -> ClassifierModel {
        let _span = spansight::span("core", "offline.train");
        spansight::count("core.offline.models_trained", 1);
        let sim_config = SimConfig {
            device,
            keyboard,
            app,
            seed: 0xCA11B,
            gpu_load: 0.0,
            system_noise_hz: 0.0,
            popups_enabled: true,
            start_in_other: false,
            obfuscation: None,
        };
        let mut sim = UiSimulation::new(sim_config);
        let plan = input_bot::script::calibration_taps(
            FIG18_CHARSET.chars(),
            CALIBRATION_REPS,
            SimInstant::from_millis(800),
        );
        let end = plan.end + SimDuration::from_millis(800);
        sim.queue_all(plan.events);

        let sampler_cfg = SamplerConfig { seed: 1, ..SamplerConfig::default_8ms() };
        let mut sampler =
            Sampler::open(sim.device(), sampler_cfg).expect("stock policy allows sampling");
        let trace = sampler.sample_until(&mut sim, end).expect("stock policy allows reads");
        sampler.close(sim.device());
        let deltas = extract_deltas(&trace);
        let presses = sim.truth().keystrokes();

        // Label: the first change within (t, t+POPUP_WINDOW] of each press.
        let mut samples: HashMap<char, Vec<CounterSet>> = HashMap::new();
        for &(t, c) in &presses {
            if let Some(d) =
                deltas.iter().find(|d| d.at > t && d.at.saturating_since(t) <= POPUP_WINDOW)
            {
                samples.entry(c).or_default().push(d.values);
            }
        }

        let mut centroids: Vec<KeyCentroid> = Vec::with_capacity(samples.len());
        for c in FIG18_CHARSET.chars() {
            if c == ' ' {
                continue; // space has no popup; it is tracked via echoes
            }
            let vals = samples
                .get(&c)
                .unwrap_or_else(|| panic!("no calibration sample captured for {c:?}"));
            centroids.push(KeyCentroid { ch: c, values: modal(vals) });
        }

        // Whitening weights from inter-centroid spread (optionally masked
        // to a counter subset for the ablation study).
        let mut weights = whitening_weights(&centroids);
        if let Some(mask) = self.config.counter_mask {
            for (w, keep) in weights.iter_mut().zip(mask) {
                if !keep {
                    *w = 0.0;
                }
            }
        }

        // Signatures computed from the attacker's own (identical) hardware.
        // These draw lists are identical across every training run for the
        // same configuration, so after the first run their layers all come
        // from the render's layer cache.
        let params = device.gpu().params();
        let kb_signature = KeyboardWindow::new(keyboard, &device, true).draw();
        let kb_signature = render(&kb_signature, &params).totals;
        let login = LoginScreen::new(app, &device);
        // Field-region redraw signatures for every anticipated input
        // length, cursor off and on. They drive the §5.3 correction
        // detector and the ambient-signature peeling step; text cells cross
        // supertile boundaries, so each length is rendered exactly rather
        // than extrapolated.
        let max_len = 22.min(login.max_cells());
        let mut field_signatures = Vec::with_capacity((max_len + 1) * 2);
        for len in 0..=max_len {
            field_signatures.push(render(&login.draw_field_update(len, false), &params).totals);
            field_signatures.push(render(&login.draw_field_update(len, true), &params).totals);
        }
        let app_signature = render(&login.draw_field_update(0, true), &params).totals;
        // Cold launch renders the full login screen, the keyboard and the
        // status bar on one vsync: their merged delta is the launch burst.
        let launch_signature = render(&login.draw(0, true, 0.0), &params).totals
            + kb_signature
            + render(&android_ui::StatusBar::new(&device).draw(), &params).totals;
        // App-switch bursts dwarf any window redraw; three keyboard frames
        // is a robust floor.
        let switch_threshold = kb_signature.total() * 3;

        // C_th from the closest noise exemplar.
        let provisional = ClassifierModel::new(
            ModelMeta {
                phone: device.phone,
                android: device.android,
                resolution: device.resolution,
                refresh: device.refresh,
                keyboard,
                app,
            },
            centroids.clone(),
            weights,
            1.0, // placeholder threshold; replaced below
            kb_signature,
            app_signature,
            field_signatures.clone(),
            launch_signature,
            switch_threshold,
        );
        let mut min_noise = f64::INFINITY;
        'noise: for d in &deltas {
            for &(t, _) in &presses {
                if d.at > t && d.at.saturating_since(t) <= PRESS_EXCLUSION {
                    continue 'noise; // press-related, not noise
                }
            }
            let (_, dist) = provisional.nearest(&d.values);
            if dist < min_noise {
                min_noise = dist;
            }
        }
        let threshold =
            if min_noise.is_finite() { (min_noise * THRESHOLD_MARGIN).max(1e-6) } else { 1.0 };

        ClassifierModel::new(
            *provisional.meta(),
            centroids,
            weights,
            threshold,
            kb_signature,
            app_signature,
            field_signatures,
            launch_signature,
            switch_threshold,
        )
    }
}

/// Picks the best centroid estimate from repeated samples of one key.
///
/// The genuine popup frame repeats *exactly* across repetitions, while the
/// two corruption modes do not: a split read observes a partial frame whose
/// size depends on the read phase, and an animation overlay (e.g. PNC's
/// login animation) adds a phase-dependent extra cost. So the value with
/// the most exact duplicates is the true frame. If nothing repeats, fall
/// back to the largest-total sample (splits are always smaller than the
/// frame they truncate).
fn modal(vals: &[CounterSet]) -> CounterSet {
    // The largest value that repeats exactly. Split fragments can repeat
    // (the read phase recurs at the calibration cadence) but are strict
    // subsets of the frame they truncate, so the full frame — which repeats
    // whenever at least two repetitions are clean — always has the larger
    // total. Animation-contaminated samples are larger but phase-dependent
    // and never repeat.
    let repeating = vals
        .iter()
        .filter(|v| vals.iter().filter(|o| o == v).count() >= 2)
        .max_by_key(|v| v.total());
    match repeating {
        Some(v) => *v,
        // Nothing repeats: fall back to the largest sample (splits are
        // always smaller than the frame they truncate).
        None => *vals.iter().max_by_key(|v| v.total()).expect("non-empty"),
    }
}

/// Per-counter whitening weights: `1 / max(spread, 1)` where spread is the
/// standard deviation of that counter across centroids.
fn whitening_weights(centroids: &[KeyCentroid]) -> [f64; NUM_TRACKED] {
    let n = centroids.len().max(1) as f64;
    let mut mean = [0.0f64; NUM_TRACKED];
    for c in centroids {
        for (i, v) in c.values.as_array().iter().enumerate() {
            mean[i] += *v as f64 / n;
        }
    }
    let mut var = [0.0f64; NUM_TRACKED];
    for c in centroids {
        for (i, v) in c.values.as_array().iter().enumerate() {
            let d = *v as f64 - mean[i];
            var[i] += d * d / n;
        }
    }
    let mut w = [0.0f64; NUM_TRACKED];
    for i in 0..NUM_TRACKED {
        w[i] = 1.0 / var[i].sqrt().max(1.0);
    }
    w
}

/// The preloaded collection of per-configuration models (§7.6 discusses
/// shipping thousands of them in a 13 MB app).
///
/// The store is a list of [`ModelHandle`]s: each entry carries its content
/// digest, its encoded length and the model. Cloning a store (e.g. to hand
/// one to each of many concurrent attack services) shares the models
/// instead of copying them. Equality is digest equality (handles compare by
/// content address).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelStore {
    models: Vec<ModelHandle>,
}

impl ModelStore {
    /// An empty store.
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Adds a trained model, wrapping it in a bit-exact (`f64`) handle.
    pub fn add(&mut self, model: ClassifierModel) {
        self.models.push(ModelHandle::from_arc(Arc::new(model)));
    }

    /// Adds a registry handle directly — the fleet path: hub and shards
    /// share one handle, and so one model `Arc`, instead of cloning models.
    pub fn add_handle(&mut self, handle: ModelHandle) {
        self.models.push(handle);
    }

    /// The model handles.
    pub fn handles(&self) -> &[ModelHandle] {
        &self.models
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Total GPMR-encoded size of all models, in bytes, summed from the
    /// lengths the handles record at insert time.
    pub fn total_wire_bytes(&self) -> usize {
        self.models.iter().map(ModelHandle::encoded_len).sum()
    }

    /// Scores one observed change against every model's keyboard-redraw
    /// fingerprint: the best `(model, relative-L1 score)` pair, ties going
    /// to the earlier model. `None` only when the store is empty.
    fn score_change(&self, delta: &Delta) -> Option<(&ClassifierModel, f64)> {
        let mut best: Option<(&ClassifierModel, f64)> = None;
        for m in self.models.iter().map(ModelHandle::model) {
            let sig = m.kb_signature();
            let sig_norm = sig.total().max(1) as f64;
            let mut l1 = 0.0;
            for (a, b) in delta.values.as_array().iter().zip(sig.as_array()) {
                l1 += (*a as f64 - *b as f64).abs();
            }
            let score = l1 / sig_norm;
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((m, score));
            }
        }
        best
    }

    /// Finds the handle whose content digest matches — how the wire server
    /// resolves a `Hello`-pinned model. `None` is a digest mismatch, which
    /// surfaces as a typed error rather than a misclassification.
    pub fn find_digest(&self, digest: &ModelDigest) -> Option<&ModelHandle> {
        self.models.iter().find(|h| h.digest() == *digest)
    }
}

impl From<ModelHandle> for ModelStore {
    /// A one-model store sharing the handle's model.
    fn from(handle: ModelHandle) -> Self {
        ModelStore { models: vec![handle] }
    }
}

/// Streaming device recognition (§3.2): buffers the warm-up prefix of the
/// change stream until some change lands within the recognition threshold
/// of a model's keyboard-redraw fingerprint, then hands the whole prefix
/// back with the model it named (recognition only *names* the
/// configuration — the prefix still carries the launch burst and any early
/// presses). The stage's work ends there: every later change goes straight
/// to the stages the model configures.
///
/// A session that ends before any change matched is
/// [`crate::service::ServiceError::UnrecognisedDevice`].
#[derive(Debug)]
pub struct RecognizeStage<'s> {
    store: &'s ModelStore,
    warmup: Vec<Delta>,
}

impl<'s> RecognizeStage<'s> {
    /// A fresh recognizer over a preloaded store.
    pub fn new(store: &'s ModelStore) -> Self {
        RecognizeStage { store, warmup: Vec::new() }
    }

    /// Pushes one change. Returns nothing while the warm-up prefix is
    /// buffered; on the change that matches a fingerprint, the model and
    /// the whole prefix ending with that change, which frees the buffer.
    pub fn push(&mut self, input: Delta) -> Option<(&'s ClassifierModel, Vec<Delta>)> {
        let matched =
            self.store.score_change(&input).filter(|&(_, score)| score < RECOGNITION_THRESHOLD);
        self.warmup.push(input);
        let (model, _) = matched?;
        Some((model, std::mem::take(&mut self.warmup)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::TrackedCounter;

    // Full training runs live in the integration tests (they are slower);
    // unit tests cover the pure helpers and an empty store.

    fn set(v: u64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::Ras8x4Tiles] = v;
        c
    }

    #[test]
    fn modal_prefers_largest_repeating_value() {
        let vals = [set(100), set(101), set(100), set(100), set(101)];
        assert_eq!(modal(&vals), set(101), "both repeat; the larger is the full frame");
    }

    #[test]
    fn modal_resists_repeating_split_fragments() {
        // A fragment that repeats three times must not outvote the full
        // frame repeating twice: the full frame is strictly larger.
        let vals = [set(60), set(100), set(60), set(100), set(60)];
        assert_eq!(modal(&vals), set(100));
    }

    #[test]
    fn modal_ignores_split_fragments_even_in_the_majority() {
        // Three split-corrupted samples (smaller totals, all distinct) must
        // not outvote the two genuine, identical full frames.
        let vals = [set(40), set(100), set(55), set(100), set(61)];
        assert_eq!(modal(&vals), set(100));
    }

    #[test]
    fn modal_ignores_animation_contaminated_samples() {
        // Animation overlays make contaminated samples *larger* but
        // phase-dependent (distinct); the repeating clean frame wins.
        let vals = [set(160), set(100), set(149), set(100), set(171)];
        assert_eq!(modal(&vals), set(100));
    }

    #[test]
    fn modal_falls_back_to_largest_when_nothing_repeats() {
        let vals = [set(40), set(90), set(71)];
        assert_eq!(modal(&vals), set(90));
    }

    #[test]
    fn modal_singleton() {
        assert_eq!(modal(&[set(7)]), set(7));
    }

    #[test]
    fn whitening_weights_shrink_high_variance_dims() {
        let centroids = vec![
            KeyCentroid { ch: 'a', values: set(100) },
            KeyCentroid { ch: 'b', values: set(300) },
        ];
        let w = whitening_weights(&centroids);
        let i = TrackedCounter::Ras8x4Tiles.index();
        assert!(w[i] < 0.02, "spread 100 → weight 1/100");
        // Zero-variance dims get weight 1.
        let j = TrackedCounter::VpcPcPrimitives.index();
        assert_eq!(w[j], 1.0);
    }

    #[test]
    fn empty_store_recognizes_nothing() {
        let store = ModelStore::new();
        assert!(store.is_empty());
        let mut stage = RecognizeStage::new(&store);
        assert!(stage.push(Delta { at: SimInstant::ZERO, values: set(7) }).is_none());
    }
}
