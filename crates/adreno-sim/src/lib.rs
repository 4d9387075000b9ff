//! # adreno-sim — a tile-based mobile-GPU simulator with performance counters
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Eavesdropping User Credentials via GPU Side Channels on Smartphones"*
//! (ASPLOS 2022). It models the parts of a Qualcomm Adreno GPU that the
//! attack observes:
//!
//! * a **layered, back-to-front renderer** where opaque upper layers occlude
//!   content below (GPU *overdraw*, §2.1 of the paper);
//! * a **Low-Resolution-Z (LRZ) pre-pass** discarding occluded work at
//!   8×8-pixel tile granularity;
//! * **rasterisation (RAS)** and **vertex-cache (VPC)** accounting;
//! * the eleven **performance counters** of the paper's Table 1, free-running
//!   and cumulative, with mid-frame reads observing partial deltas.
//!
//! The renderer is deterministic: identical draw lists produce identical
//! counter increments, which is precisely the hardware property the side
//! channel exploits.
//!
//! ## Quick example
//!
//! ```
//! use adreno_sim::counters::TrackedCounter;
//! use adreno_sim::geom::Rect;
//! use adreno_sim::gpu::Gpu;
//! use adreno_sim::model::GpuModel;
//! use adreno_sim::scene::DrawList;
//! use adreno_sim::time::SimInstant;
//!
//! let mut gpu = Gpu::new(GpuModel::Adreno650);
//!
//! // A keyboard frame without a popup...
//! let mut base = DrawList::new(1080, 800);
//! base.layer("keyboard").quad(Rect::from_xywh(0, 0, 1080, 800), true);
//!
//! // ...and the same frame with the popup of key 'w' on top.
//! let mut popup = base.clone();
//! popup.layer("popup").glyph('w', Rect::from_xywh(200, 100, 90, 110), 8);
//!
//! let f0 = gpu.submit(&base, SimInstant::ZERO);
//! let f1 = gpu.submit(&popup, f0.end);
//! assert!(f1.totals[TrackedCounter::VpcPcPrimitives]
//!     > f0.totals[TrackedCounter::VpcPcPrimitives]);
//! ```

pub mod catalog;
pub mod counters;
pub mod font;
pub mod geom;
pub mod gpu;
pub mod incremental;
pub mod memo;
pub mod model;
pub mod pipeline;
pub mod scene;
pub mod time;

pub use counters::{CounterGroup, CounterId, CounterSet, TrackedCounter, ALL_TRACKED, NUM_TRACKED};
pub use gpu::{FrameStats, Gpu};
pub use incremental::IncrementalStats;
pub use model::{GpuModel, GpuParams, ALL_MODELS};
pub use scene::{DrawList, Layer, Primitive};
pub use time::{SimDuration, SimInstant};
