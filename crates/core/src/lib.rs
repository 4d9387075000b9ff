//! # gpu-sc-attack — the GPU performance-counter keystroke side channel
//!
//! Reproduction of the primary contribution of *"Eavesdropping User
//! Credentials via GPU Side Channels on Smartphones"* (ASPLOS 2022) on the
//! simulated substrate crates (`adreno-sim`, `kgsl`, `android-ui`,
//! `input-bot`):
//!
//! * [`sampler`] — reading the eleven Table-1 counters through the device
//!   file every few milliseconds (§4);
//! * [`trace`] — turning raw reads into counter *changes*;
//! * [`classify`] — per-configuration nearest-centroid models with the
//!   false-positive-free threshold `C_th` (§5.1, Fig 12);
//! * [`online`] — Algorithm 1: duplication suppression, split
//!   recombination, noise rejection (§5.1);
//! * [`appswitch`] — burst detection of app switches (§5.2, Fig 13);
//! * [`correction`] — backspace/length tracking from echo frames (§5.3,
//!   Fig 14);
//! * [`offline`] — the training pipeline and the preloaded [`offline::ModelStore`]
//!   with device recognition (§3.2, §6);
//! * [`registry`] — the content-addressed model registry: the GPMR model
//!   format, SHA-256 digests and train-once-per-key;
//! * [`varint`] — the LEB128 codec GPMR and the wire protocol share;
//! * [`service`] — the end-to-end background service: the streaming
//!   pipeline that pushes each counter change through the stages above by
//!   direct calls;
//! * [`fleet`] — fleet-scale orchestration: thousands of concurrent
//!   sessions as cooperative tasks over a bounded worker set, each stepping
//!   the service's burst loop;
//! * [`metrics`] — the accuracy metrics of §7.
//!
//! This library exists for research and defensive evaluation: it runs only
//! against the bundled simulator and implements the paper's §9 mitigations
//! alongside the attack so they can be tested.
//!
//! ## End to end
//!
//! ```no_run
//! use adreno_sim::time::SimInstant;
//! use android_ui::{SimConfig, UiSimulation};
//! use gpu_sc_attack::offline::ModelStore;
//! use gpu_sc_attack::registry::Registry;
//! use gpu_sc_attack::service::{AttackService, ServiceConfig};
//!
//! // Offline phase: train a model for the victim configuration, once,
//! // through the content-addressed registry.
//! let registry = Registry::default();
//! let cfg = SimConfig::paper_default(7);
//! let handle = registry.get_or_train(cfg.device, cfg.keyboard, cfg.app);
//! let mut store = ModelStore::new();
//! store.add_handle(handle);
//!
//! // Online phase: eavesdrop a victim session.
//! let service = AttackService::new(store, ServiceConfig::default());
//! let mut victim = UiSimulation::new(cfg);
//! // … queue the victim's typing via input-bot …
//! let result = service.eavesdrop(&mut victim, SimInstant::from_millis(10_000)).unwrap();
//! println!("recovered: {}", result.recovered_text);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod appswitch;
pub mod classify;
pub mod correction;
pub mod fleet;
pub mod launch;
pub mod metrics;
pub mod offline;
pub mod online;
pub mod registry;
pub mod sampler;
pub mod service;
pub mod trace;
pub mod varint;

pub use classify::{Classification, ClassifierModel, KeyCentroid, ModelMeta};
pub use fleet::{FleetConfig, FleetSession, Session, SessionOutcome, SessionStats};
pub use metrics::{Aggregate, SessionScore};
pub use offline::{ModelStore, Trainer, TrainerConfig};
pub use online::{InferenceStats, InferredKey};
pub use registry::{ModelDigest, ModelHandle, Quantization, Registry, RegistryStats};
pub use sampler::{Sampler, SamplerConfig, SamplerReport};
pub use service::{
    AttackService, DegradationReport, LinkDegradationReport, ServiceConfig, ServiceError,
    SessionResult, StreamingSession,
};
pub use trace::{extract_deltas, extract_deltas_with_resets, Delta, Sample, Trace};
