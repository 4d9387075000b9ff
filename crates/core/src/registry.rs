//! Content-addressed model registry: every trained [`ClassifierModel`] the
//! process uses, trained once per configuration and named by its digest.
//!
//! The paper's attacker preloads one compact model per phone × keyboard
//! configuration and picks it by device recognition (§3.2, §7.6). This
//! reproduction trains each model in-process instead, and only ever
//! writes the format:
//!
//! * **GPMR format** — the one binary encoding of a [`ClassifierModel`]
//!   ([`encode_model`]), with centroid rows stored at a [`Quantization`]
//!   tier: `f64` (bit-exact) or `f32`. Whitening weights and the
//!   acceptance threshold are always kept exact (full `f64` bits) — they
//!   define the distance space, and perturbing them would shift every
//!   decision boundary at once. §7.6's model sizes are encoded lengths.
//! * **Content addressing** — a [`ModelDigest`] (SHA-256 over the GPMR
//!   blob) names each model; wire v2's `Hello` pins a model by it.
//! * **[`ModelHandle`]** — a cheaply clonable handle owning the digest, the
//!   encoded length and the model.
//! * **[`Registry`]** — train-once-per-key cells.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use android_ui::{
    AndroidVersion, DeviceConfig, KeyboardKind, PhoneModel, RefreshRate, Resolution, TargetApp,
};

use crate::classify::ClassifierModel;
use crate::offline::{Trainer, TrainerConfig};
use crate::varint;

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), self-contained. The registry is content-addressed
// and the digest crosses the wire, so it must be a real collision-resistant
// hash with a stable reference definition — not a homegrown mixer.

mod sha256 {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h: [u32; 8] = [
            0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
            0x5be0cd19,
        ];
        // Padded message: data ‖ 0x80 ‖ zeros ‖ bit length (64-bit BE).
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut padded = Vec::with_capacity(data.len() + 72);
        padded.extend_from_slice(data);
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());

        let mut w = [0u32; 64];
        for block in padded.chunks_exact(64) {
            for (i, word) in w.iter_mut().take(16).enumerate() {
                *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
                *slot = slot.wrapping_add(v);
            }
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Digest

/// Content address of an encoded model: SHA-256 over the canonical GPMR
/// blob. Two models with the same digest encode to the same bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelDigest([u8; 32]);

impl ModelDigest {
    /// The all-zero digest: "no model pinned". The wire protocol uses it in
    /// `Hello` to mean *recognise the device from the traffic* (the legacy
    /// §3.2 path) rather than resolving a specific model.
    pub const ZERO: ModelDigest = ModelDigest([0; 32]);

    /// Computes the digest of an encoded blob.
    pub fn of(blob: &[u8]) -> ModelDigest {
        ModelDigest(sha256::digest(blob))
    }

    /// Wraps raw digest bytes (e.g. received over the wire).
    pub const fn from_bytes(bytes: [u8; 32]) -> ModelDigest {
        ModelDigest(bytes)
    }

    /// The raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Whether this is [`ModelDigest::ZERO`] (no model pinned).
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 32]
    }

    /// The first eight hex digits — enough to tell models apart in reports.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Display for ModelDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ModelDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ModelDigest({}…)", self.short())
    }
}

// ---------------------------------------------------------------------------
// GPMR codec

/// Centroid-row quantization tier of the GPMR encoding.
///
/// Only centroid rows are quantized. Whitening weights, the threshold and
/// the recognition/launch/ambient signatures stay exact: the signatures are
/// matched with *relative* tolerances against raw traffic and the weights
/// define the whitened distance space itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantization {
    /// Centroid rows as full `f64` bits — exact for every counter below
    /// 2⁵³ (the paper's counters are tile/primitive/pixel counts ≤ 2²⁵
    /// per frame).
    F64,
    /// Centroid rows as `f32` bits — 4 bytes per value, ~2⁻²³ relative error.
    F32,
}

impl Quantization {
    /// Both tiers, in increasing compression order.
    pub const ALL: [Quantization; 2] = [Quantization::F64, Quantization::F32];

    /// Human-readable tier name (`"f64"`, `"f32"`).
    pub fn name(&self) -> &'static str {
        match self {
            Quantization::F64 => "f64",
            Quantization::F32 => "f32",
        }
    }

    fn code(self) -> u8 {
        match self {
            Quantization::F64 => 0,
            Quantization::F32 => 1,
        }
    }
}

// The one-byte codes GPMR stores each configuration enum as.

fn phone_code(phone: PhoneModel) -> u8 {
    match phone {
        PhoneModel::LgV30Plus => 0,
        PhoneModel::GooglePixel2 => 1,
        PhoneModel::OnePlus7Pro => 2,
        PhoneModel::OnePlus8Pro => 3,
        PhoneModel::OnePlus9 => 4,
        PhoneModel::GalaxyS21 => 5,
    }
}

fn android_code(android: AndroidVersion) -> u8 {
    match android {
        AndroidVersion::V8_1 => 0,
        AndroidVersion::V9 => 1,
        AndroidVersion::V10 => 2,
        AndroidVersion::V11 => 3,
    }
}

fn resolution_code(resolution: Resolution) -> u8 {
    match resolution {
        Resolution::Fhd => 0,
        Resolution::Qhd => 1,
    }
}

fn refresh_code(refresh: RefreshRate) -> u8 {
    match refresh {
        RefreshRate::Hz60 => 0,
        RefreshRate::Hz120 => 1,
    }
}

fn keyboard_code(keyboard: KeyboardKind) -> u8 {
    match keyboard {
        KeyboardKind::Gboard => 0,
        KeyboardKind::Swift => 1,
        KeyboardKind::Sogou => 2,
        KeyboardKind::GooglePinyin => 3,
        KeyboardKind::Go => 4,
        KeyboardKind::Grammarly => 5,
    }
}

fn app_code(app: TargetApp) -> u8 {
    match app {
        TargetApp::Chase => 0,
        TargetApp::Amex => 1,
        TargetApp::Fidelity => 2,
        TargetApp::Schwab => 3,
        TargetApp::MyFico => 4,
        TargetApp::Experian => 5,
        TargetApp::ChromeChase => 6,
        TargetApp::ChromeSchwab => 7,
        TargetApp::ChromeExperian => 8,
        TargetApp::Pnc => 9,
        TargetApp::Gedit => 10,
        TargetApp::GmailWeb => 11,
        TargetApp::DropboxClient => 12,
    }
}

fn put_set_varint(b: &mut Vec<u8>, set: &CounterSet) {
    for &v in set.as_array() {
        varint::write_u64(b, v);
    }
}

fn encode_row(b: &mut Vec<u8>, row: &CounterSet, q: Quantization) {
    match q {
        Quantization::F64 => {
            for &v in row.as_array() {
                b.extend_from_slice(&(v as f64).to_be_bytes());
            }
        }
        Quantization::F32 => {
            for &v in row.as_array() {
                b.extend_from_slice(&(v as f32).to_be_bytes());
            }
        }
    }
}

/// Serialises a model into the registry's canonical GPMR format at the
/// given quantization tier. The digest of the returned bytes is the model's
/// content address.
///
/// Layout (all multi-byte scalars big-endian, counters LEB128 varints):
///
/// ```text
/// "GPMR" | ver=1 | tier | phone android res refresh kb app (1 byte each)
/// threshold f64 | weights 11×f64               (exact — never quantized)
/// kb_signature, app_signature                  (11 varints each)
/// n_sigs varint | field_signatures             (n × 11 varints)
/// launch_signature | switch_threshold varint
/// centroid count u16
/// per centroid: char varint + row              (row format per tier)
/// ```
pub fn encode_model(model: &ClassifierModel, q: Quantization) -> Vec<u8> {
    let meta = model.meta();
    let mut b = Vec::with_capacity(160 + model.centroids().len() * (2 + NUM_TRACKED * 8));
    b.extend_from_slice(b"GPMR");
    b.extend_from_slice(&[
        1, // version
        q.code(),
        phone_code(meta.phone),
        android_code(meta.android),
        resolution_code(meta.resolution),
        refresh_code(meta.refresh),
        keyboard_code(meta.keyboard),
        app_code(meta.app),
    ]);
    b.extend_from_slice(&model.threshold().to_be_bytes());
    for w in model.weights() {
        b.extend_from_slice(&w.to_be_bytes());
    }
    put_set_varint(&mut b, model.kb_signature());
    put_set_varint(&mut b, model.app_signature());
    varint::write_u64(&mut b, model.ambient_signatures().len() as u64);
    for sig in model.ambient_signatures() {
        put_set_varint(&mut b, sig);
    }
    put_set_varint(&mut b, model.launch_signature());
    varint::write_u64(&mut b, model.switch_threshold());
    b.extend_from_slice(&(model.centroids().len() as u16).to_be_bytes());
    for c in model.centroids() {
        varint::write_u64(&mut b, u64::from(u32::from(c.ch)));
        encode_row(&mut b, &c.values, q);
    }
    b
}

// ---------------------------------------------------------------------------
// ModelHandle

struct HandleInner {
    digest: ModelDigest,
    encoded_len: usize,
    model: Arc<ClassifierModel>,
}

/// A cheaply clonable handle to one model: its content digest, the length
/// of its GPMR encoding and the model itself, shared by every clone.
#[derive(Clone)]
pub struct ModelHandle {
    inner: Arc<HandleInner>,
}

impl ModelHandle {
    /// Wraps an already-trained model: encodes it at the bit-exact `f64`
    /// tier, digests the encoding and keeps its length. Clones share the
    /// given `Arc`.
    pub fn from_arc(model: Arc<ClassifierModel>) -> ModelHandle {
        let blob = encode_model(&model, Quantization::F64);
        let digest = ModelDigest::of(&blob);
        ModelHandle { inner: Arc::new(HandleInner { digest, encoded_len: blob.len(), model }) }
    }

    /// The model's content address.
    pub fn digest(&self) -> ModelDigest {
        self.inner.digest
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.inner.encoded_len
    }

    /// The model.
    pub fn model(&self) -> &ClassifierModel {
        &self.inner.model
    }

    /// The model as a shared `Arc` (cloned).
    pub fn model_arc(&self) -> Arc<ClassifierModel> {
        Arc::clone(&self.inner.model)
    }
}

impl fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelHandle")
            .field("digest", &self.inner.digest)
            .field("encoded_len", &self.inner.encoded_len)
            .finish()
    }
}

impl PartialEq for ModelHandle {
    fn eq(&self, other: &Self) -> bool {
        self.inner.digest == other.inner.digest
    }
}

impl Eq for ModelHandle {}

// ---------------------------------------------------------------------------
// Registry

/// The configuration a model is trained for: the victim device, keyboard
/// and target app. A key holds exactly the model's `ModelMeta`, which GPMR
/// writes into its header, so distinct keys give distinct blobs.
type ModelKey = (DeviceConfig, KeyboardKind, TargetApp);

/// The registry lock is never held across anything that can panic
/// (training runs with it released), so a poisoned lock is a bug.
const POISONED: &str = "registry lock poisoned";

/// Counters snapshot from [`Registry::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Distinct models (digests) held: one per trained key.
    pub models: usize,
    /// Total encoded bytes of those models.
    pub total_bytes: usize,
}

/// The content-addressed model registry: each configuration's model is
/// trained once and held once.
#[derive(Default)]
pub struct Registry {
    /// Train-once-per-key cells: concurrent `get_or_train` calls for one
    /// key block on one `OnceLock` and share the single trained model.
    /// Training runs with the lock released.
    cells: Mutex<HashMap<ModelKey, Arc<OnceLock<ModelHandle>>>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry").field("stats", &self.stats()).finish()
    }
}

impl Registry {
    /// Returns the configuration's model, training it with the default
    /// [`TrainerConfig`] exactly once on first miss. Concurrent callers for
    /// one configuration share a single training run.
    pub fn get_or_train(
        &self,
        device: DeviceConfig,
        keyboard: KeyboardKind,
        app: TargetApp,
    ) -> ModelHandle {
        spansight::count("core.registry.lookups", 1);
        let cell = {
            let mut cells = self.cells.lock().expect(POISONED);
            Arc::clone(cells.entry((device, keyboard, app)).or_default())
        };
        cell.get_or_init(|| {
            spansight::count("core.registry.trainings", 1);
            let model = Trainer::new(TrainerConfig::default()).train(device, keyboard, app);
            ModelHandle::from_arc(Arc::new(model))
        })
        .clone()
    }

    /// Snapshot of the registry's occupancy. Each filled cell is one
    /// distinct model.
    pub fn stats(&self) -> RegistryStats {
        let cells = self.cells.lock().expect(POISONED);
        let mut stats = RegistryStats::default();
        for handle in cells.values().filter_map(|cell| cell.get()) {
            stats.models += 1;
            stats.total_bytes += handle.encoded_len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use android_ui::SimConfig;

    #[test]
    fn train_once_per_key() {
        let registry = Registry::default();
        let cfg = SimConfig::paper_default(3);
        let a = registry.get_or_train(cfg.device, cfg.keyboard, cfg.app);
        let b = registry.get_or_train(cfg.device, cfg.keyboard, cfg.app);
        assert_eq!(a.digest(), b.digest());
        assert!(std::ptr::eq(a.model(), b.model()), "handles share one model");
        let stats = registry.stats();
        assert_eq!(stats.models, 1);
        assert_eq!(stats.total_bytes, a.encoded_len());
    }

    #[test]
    fn concurrent_get_or_train_trains_once() {
        let registry = Arc::new(Registry::default());
        let cfg = SimConfig::paper_default(3);
        let pool = minipool::Pool::new(4);
        let handles = pool
            .par_map(vec![0u8; 8], |_, _| registry.get_or_train(cfg.device, cfg.keyboard, cfg.app));
        assert!(handles.windows(2).all(|w| w[0] == w[1]));
        // A key given two cells would train two models.
        let first = handles[0].model();
        assert!(handles.iter().all(|h| std::ptr::eq(h.model(), first)), "handles share one model");
    }

    #[test]
    fn sha256_matches_reference_vectors() {
        // FIPS 180-4 test vectors.
        let empty = ModelDigest::of(b"");
        assert_eq!(
            empty.to_string(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        let abc = ModelDigest::of(b"abc");
        assert_eq!(
            abc.to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // One full block + spill (448-bit message).
        let two = ModelDigest::of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(
            two.to_string(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }
}
