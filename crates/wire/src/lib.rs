//! Resilient exfiltration wire protocol for the split sampler/classifier.
//!
//! The paper's attack runs sampler and classifier in one process; a real
//! deployment exfiltrates the counter stream from the victim device to an
//! offsite classifier over a network that drops, duplicates, reorders,
//! truncates, and delays. This crate is that link, end to end, in
//! deterministic sim-time:
//!
//! * [`varint`] / [`crc`] / [`frame`] — the encoding floor: LEB128 varints
//!   (the codec GPMR uses too, re-exported from `gpu_sc_attack`), CRC-32
//!   integrity, and the versioned length-prefixed frame envelope every
//!   datagram travels in ([`frame::encode`], [`frame::decode_in_place`]).
//! * [`message`] — the protocol: a versioned [`Message`] enum whose
//!   [`Message::Read`] carries one counter read, its instant and its
//!   eleven cumulative counters as varints. The client ships only the
//!   reads the analysis can use: the first, then each that differs from
//!   the read before it.
//! * [`transport`] — [`SimTransport`], a seeded hostile link driven by a
//!   [`LinkPlan`] in the same deterministic-plan idiom as
//!   [`kgsl::FaultPlan`].
//! * [`session`] — the resilience: [`ExfilClient`] (send window,
//!   ack/retransmit with capped backoff, fast retransmit on duplicate
//!   Acks) and
//!   [`ClassifierServer`] (resequencing, dedup, incremental inference,
//!   streamed-back presses), plus [`run_split_session`] which runs a whole
//!   eavesdropping session split across the wire and folds a
//!   [`LinkDegradationReport`](gpu_sc_attack::service::LinkDegradationReport)
//!   into the [`SessionResult`](gpu_sc_attack::service::SessionResult).
//!
//! The invariant the whole crate is built around: over a fault-free plan
//! the split session reproduces the in-process streaming pipeline exactly,
//! and over any seeded lossy plan it still *completes*, reporting the
//! damage instead of failing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod error;
pub mod frame;
pub mod message;
pub mod session;
pub mod transport;

pub use gpu_sc_attack::varint;

pub use error::{WireError, WireResult};
pub use frame::{MAGIC, WIRE_VERSION};
pub use message::Message;
pub use session::{
    run_split_session, ClassifierServer, ExfilClient, ExfilConfig, ResequenceStage, SplitDriver,
    SplitOutcome, SplitSessionOutcome, SplitSessionTask, CONTROL_SEQ,
};
pub use transport::{Direction, LinkPlan, SimTransport, TransportStats};
