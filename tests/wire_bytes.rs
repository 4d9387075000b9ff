//! The bytes a split session puts on the link, pinned to constants.
//!
//! `tests/wire_split_e2e.rs` checks that a split session recovers what the
//! in-process pipeline recovers, but it compares runs with each other and
//! zeroes the link report, so a change to the bytes on the wire passes it
//! unnoticed. This file pins them: every datagram of one recorded victim's
//! session, and the traffic tallies of a lossy split session. It also
//! checks that the client's frame boundaries do not depend on how the
//! sampler's bursts are sliced, and that a declared payload length near
//! `u64::MAX` is a typed error rather than an overflow.

mod common;

use adreno_sim::time::{SimDuration, SimInstant};
use gpu_eaves::android_ui::{SimConfig, UiSimulation};
use gpu_eaves::attack::offline::ModelStore;
use gpu_eaves::attack::registry::{ModelDigest, Registry};
use gpu_eaves::attack::sampler::{Sampler, SamplerConfig, SamplerReport};
use gpu_eaves::attack::service::{AttackService, ServiceConfig};
use gpu_eaves::attack::trace::Sample;
use gpu_eaves::input_bot::script::Typist;
use gpu_eaves::input_bot::timing::VOLUNTEERS;
use gpu_eaves::wire::{
    run_split_session, varint, Direction, ExfilClient, ExfilConfig, Frame, LinkPlan, Message,
    SampleBatch, SimTransport, WireError, CONTROL_SEQ, MAGIC, WIRE_VERSION,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use common::{fnv1a, FNV_BASIS};

/// The victim both pinned tests use: the `wire_split_e2e` lossy-matrix
/// session.
const SEED: u64 = 90;
const CREDENTIAL: &str = "hunter2pass";
/// Samples per batch frame at the default [`ExfilConfig`].
const BATCH: usize = 32;

fn service() -> AttackService {
    let cfg = SimConfig::paper_default(0);
    let mut store = ModelStore::new();
    store.add_handle(Registry::default().get_or_train(cfg.device, cfg.keyboard, cfg.app));
    AttackService::new(store, ServiceConfig::default())
}

/// A Chase victim typing [`CREDENTIAL`], and when to stop sampling it.
fn victim(seed: u64) -> (UiSimulation, SimInstant) {
    let mut sim = UiSimulation::new(SimConfig::paper_default(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut typist = Typist::new(VOLUNTEERS[seed as usize % VOLUNTEERS.len()]);
    let plan = typist.type_text(CREDENTIAL, SimInstant::from_millis(900), &mut rng);
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);
    (sim, end)
}

/// The victim's whole counter stream, read with `Sampler::sample_until`,
/// and the sampler's report.
fn record(seed: u64) -> (Vec<Sample>, SamplerReport) {
    let (mut sim, end) = victim(seed);
    let mut sampler =
        Sampler::open(sim.device(), SamplerConfig::default()).expect("stock Android admits reads");
    let trace = sampler.sample_until(&mut sim, end).expect("a fault-free device reads");
    let report = sampler.report();
    sampler.close(sim.device());
    (trace.iter().collect(), report)
}

/// `samples` framed as the client's data stream: one `SampleBatch` frame
/// per [`BATCH`] samples, then the Fin carrying `report`.
fn data_frames(samples: &[Sample], report: SamplerReport) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = samples
        .chunks(BATCH)
        .zip(0..)
        .map(|(chunk, seq)| {
            let payload = Message::SampleBatch(SampleBatch::from_samples(chunk)).encode();
            Frame::new(seq, payload).encode()
        })
        .collect();
    let fin_seq = frames.len() as u64;
    frames.push(Frame::new(fin_seq, Message::Fin { report }.encode()).encode());
    frames
}

#[test]
fn split_datagrams_replay_the_pinned_digest() {
    // Computed by this test body before batches were encoded straight from
    // the sampler's burst. A change here is a change to the wire format and
    // must be explained, not re-pinned silently.
    const PINNED: u64 = 0x1E4B_C6D7_8B17_E058;

    let service = service();
    let (samples, report) = record(SEED);
    let mut session = service.streaming_session();
    session.push_samples(&samples);
    let result = session.finish(&report).expect("the recorded session analyses");
    assert_eq!(result.recovered_text, CREDENTIAL, "vacuous pin: the credential was not recovered");

    let hello = Message::Hello {
        session_id: SEED,
        resume_from: 0,
        model_digest: ModelDigest::from_bytes(*b"pinned wire digest, 32 bytes ..."),
    };
    let mut datagrams = vec![Frame::new(CONTROL_SEQ, hello.encode()).encode()];
    let data = data_frames(&samples, report);
    let ack = Message::Ack { next_expected: data.len() as u64 };
    datagrams.extend(data);
    datagrams.push(Frame::new(CONTROL_SEQ, ack.encode()).encode());
    let keys = Message::InferredKeys { keys: result.keys.clone() };
    datagrams.push(Frame::new(0, keys.encode()).encode());
    let finack = Message::FinAck { recovered: result.recovered_text.clone() };
    datagrams.push(Frame::new(1, finack.encode()).encode());

    let mut digest = FNV_BASIS;
    for datagram in &datagrams {
        digest = fnv1a(digest, &(datagram.len() as u64).to_le_bytes());
        digest = fnv1a(digest, datagram);
    }
    assert_eq!(digest, PINNED, "digest {digest:#018X} over {} datagrams", datagrams.len());
}

#[test]
fn lossy_split_session_sends_the_pinned_traffic() {
    let service = service();
    let (mut sim, end) = victim(SEED);
    let plan = LinkPlan::with_intensity(12, 0.5, SimDuration::from_secs(8));
    let outcome = run_split_session(&service, &mut sim, end, &plan, ExfilConfig::default())
        .expect("a lossy link degrades a session, never fails it");
    assert!(outcome.completed, "the everything-0.5 plan finishes its handshake");
    assert_eq!(outcome.result.recovered_text, CREDENTIAL);
    // Pinned with the digest above. The link plan draws each datagram's
    // fate in send order, so a change to framing, batching or the
    // retransmit clock moves these.
    let link = outcome.result.link;
    assert_eq!(
        (link.frames_sent, link.bytes_sent, link.bytes_acked),
        (57, 12_484, 9_005),
        "frames_sent, bytes_sent, bytes_acked: {link}"
    );
}

/// The datagrams an [`ExfilClient`] fed by `feed` hands a perfect link
/// once sampling ends, with a send window wide enough for all of them.
fn datagrams_sent(report: &SamplerReport, feed: impl FnOnce(&mut ExfilClient)) -> Vec<Vec<u8>> {
    let config = ExfilConfig { window: usize::MAX, ..ExfilConfig::default() };
    let mut client = ExfilClient::new(config, 1);
    feed(&mut client);
    client.finish_sampling(report);
    let mut transport = SimTransport::new(&LinkPlan::new(1));
    let now = SimInstant::from_millis(1);
    client.pump(&mut transport, now);
    transport.recv(Direction::ToServer, now + SimDuration::from_secs(1))
}

#[test]
fn frame_boundaries_do_not_depend_on_burst_slicing() {
    assert_eq!(ExfilConfig::default().batch_samples, BATCH);
    let (samples, report) = record(SEED);
    let expected = data_frames(&samples, report);
    let whole = datagrams_sent(&report, |client| client.push_samples(&samples));
    assert_eq!(whole, expected, "one slice: one frame per {BATCH} samples, then the Fin");
    let one_at_a_time =
        datagrams_sent(&report, |client| samples.iter().for_each(|&s| client.push_sample(s)));
    assert_eq!(one_at_a_time, expected, "one sample at a time changed the datagrams");
    for size in [7, 31, 33, 100] {
        let sliced = datagrams_sent(&report, |client| {
            samples.chunks(size).for_each(|burst| client.push_samples(burst))
        });
        assert_eq!(sliced, expected, "bursts of {size} changed the datagrams");
    }
}

#[test]
fn frame_decoder_rejects_lengths_that_overflow_the_crc_offset() {
    for len in u64::MAX - 24..=u64::MAX {
        let mut datagram = MAGIC.to_vec();
        datagram.push(WIRE_VERSION);
        varint::write_u64(&mut datagram, 0);
        varint::write_u64(&mut datagram, len);
        // The header, the declared payload and the 4-byte CRC must fit in a
        // `usize` before the decoder can compare them with the datagram.
        let end = datagram.len() as u128 + u128::from(len) + 4;
        let expected =
            if end > usize::MAX as u128 { WireError::LengthMismatch } else { WireError::Truncated };
        assert_eq!(Frame::decode(&datagram), Err(expected), "declared length {len:#x}");
    }
}
