//! The resilient split session: [`ExfilClient`] on the victim device,
//! [`ClassifierServer`] offsite, and [`run_split_session`] driving both over
//! a [`SimTransport`].
//!
//! # Reliability model
//!
//! The client owns a reliable byte-free *frame* stream: every frame it
//! sends ([`Message::Hello`], [`Message::Read`], [`Message::Fin`]) carries
//! a dense sequence number starting at 0. The server acknowledges
//! cumulatively ([`Message::Ack`] carries the next sequence number it is
//! missing) and resequences out-of-order arrivals in a buffer bounded by
//! the client's send window.
//!
//! The client retransmits the way TCP does. It measures the link's round
//! trip from its Acks, as RFC 6298 does: a smoothed round trip (SRTT) and
//! its variation (RTTVAR), sampled only from Acks that retire no
//! retransmitted frame (Karn's rule). Each frame's first retransmit
//! timeout is SRTT + max(1 ms, 4·RTTVAR) at its first transmission (30 ms
//! before the first sample), doubling per timed retransmit to at most
//! 500 ms. A duplicate Ack, one that retires nothing, shows that the
//! server acknowledged something sent after the oldest unacked frame
//! without holding it: if that frame was last sent at least one SRTT ago,
//! the Ack retransmits it at once (RFC 5681's fast retransmit), without
//! doubling its backoff. Through an outage the oldest frame keeps
//! retransmitting, its backoff doubling up to the cap, and the first copy
//! to get through draws the server's cumulative Ack like any other
//! arrival.
//!
//! A session opens one way, as TCP's does with the SYN: the client's
//! [`Message::Hello`], carrying the model digest, is frame 0. The server
//! opens the session when the resequencer releases it, which is always
//! first and exactly once, so data that overtakes a delayed or lost Hello
//! waits in the buffer for it. Each [`ClassifierServer`] lives exactly as
//! long as its session, so there is no session to re-open.
//!
//! Only the server's Acks travel *outside* the data sequence space, under
//! [`CONTROL_SEQ`]: they are idempotent and applied on arrival.
//!
//! Server → client traffic ([`Message::InferredKeys`] as presses commit,
//! [`Message::FinAck`] with the recovered credential) uses the server's own
//! data sequence space; the client discards duplicates by sequence number.
//! `InferredKeys` frames are fire-and-forget (a lost one costs a latency
//! datapoint, nothing else), while the `FinAck` is re-sent every time a
//! retransmitted `Fin` arrives. A cumulative Ack retires every frame it
//! covers except the `Fin`, which stays pending — and keeps retransmitting
//! — until its `FinAck` lands, so a lost `FinAck` is always asked for again
//! and the handshake terminates whenever the link does.

use adreno_sim::counters::CounterSet;
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::UiSimulation;
use gpu_sc_attack::online::InferredKey;
use gpu_sc_attack::registry::ModelDigest;
use gpu_sc_attack::sampler::{Sampler, SamplerReport};
use gpu_sc_attack::service::{
    AttackService, LinkDegradationReport, ServiceError, SessionResult, StreamingSession,
};
use gpu_sc_attack::trace::Sample;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::frame;
use crate::message::{encode_inferred_keys, Message};
use crate::transport::{Direction, LinkPlan, SimTransport, TransportStats};

/// The sequence number reserved for the server's Acks, which live outside
/// the resequenced data stream.
pub const CONTROL_SEQ: u64 = u64::MAX;

/// A wake instant no pump reaches: nothing is waiting on a timer.
const NEVER: SimInstant = SimInstant::from_nanos(u64::MAX);

/// Reads per quantum of a streaming [`SplitDriver`]. The quantum only sets
/// how often the driver yields: both ends pump at the instants something
/// is due for them, wherever those fall among the reads.
const READS_PER_QUANTUM: usize = 32;

/// Edges (ms) of the `wire.session.drain_ms` histogram: a clean link's
/// drain is one round trip, a lossy one's runs through retransmit
/// backoffs, and a salvaged one's is the whole `drain_timeout`.
const DRAIN_EDGES_MS: &[u64] =
    &[4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384];

/// A frame's first retransmit timeout until the client has measured the
/// link's round trip; each timed retransmit of the frame doubles it.
const INITIAL_RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_millis(30);

/// Floor on a measured timeout's variation term (RFC 6298's clock
/// granularity G): a link whose round trip never varies still gets a
/// margin.
const MIN_RTT_VARIATION_TERM: SimDuration = SimDuration::from_millis(1);

/// Ceiling on the per-frame retransmit backoff, and on a measured timeout.
const MAX_RETRANSMIT_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// Tuning for the client side of the split session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExfilConfig {
    /// Maximum unacknowledged data frames in flight; further frames queue
    /// locally (backpressure) until acks open the window.
    pub window: usize,
    /// How long past the end of sampling the driver keeps pumping the link
    /// waiting for the final handshake.
    pub drain_timeout: SimDuration,
}

impl Default for ExfilConfig {
    fn default() -> Self {
        ExfilConfig { window: 8, drain_timeout: SimDuration::from_secs(30) }
    }
}

/// Restores sequence order over a lossy arrival stream of decoded
/// `(seq, message)` data frames: messages are released strictly in
/// sequence, duplicates are discarded, and early arrivals wait in a
/// buffer. The client's send window bounds it: no frame more than
/// [`ExfilConfig::window`] past the oldest unacknowledged one is ever
/// sent, whether that one is a lost read or the Hello at frame 0. Feeds
/// the receive side of [`ClassifierServer`]. Frames still gapped when the
/// session ends are lost for good: the buffer is never flushed out of
/// order.
#[derive(Debug, Default)]
pub struct ResequenceStage {
    next_expected: u64,
    buffer: BTreeMap<u64, Message>,
    /// Duplicate frames discarded by sequence number.
    pub duplicates_discarded: u64,
    /// Frames that arrived ahead of sequence and were buffered.
    pub reorders_observed: u64,
}

impl ResequenceStage {
    /// The next sequence number the stage is waiting for (the cumulative
    /// ack value).
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Pushes one arrived data frame, appending to `out` every message it
    /// releases, in sequence order.
    pub fn push(&mut self, (seq, msg): (u64, Message), out: &mut Vec<Message>) {
        if seq < self.next_expected || self.buffer.contains_key(&seq) {
            self.duplicates_discarded += 1;
            return;
        }
        if seq > self.next_expected {
            self.reorders_observed += 1;
            self.buffer.insert(seq, msg);
            return;
        }
        self.next_expected += 1;
        out.push(msg);
        while let Some(msg) = self.buffer.remove(&self.next_expected) {
            self.next_expected += 1;
            out.push(msg);
        }
    }
}

/// The link's round trip as RFC 6298 smooths it, in integer ns: SRTT with
/// gain 1/8 and RTTVAR with gain 1/4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RttEstimate {
    srtt: u64,
    rttvar: u64,
}

impl RttEstimate {
    /// `estimate` with one more round-trip sample folded in. The first
    /// sample sets SRTT to itself and RTTVAR to half of it.
    fn fold(estimate: Option<RttEstimate>, sample: SimDuration) -> RttEstimate {
        let r = sample.as_nanos();
        match estimate {
            None => RttEstimate { srtt: r, rttvar: r / 2 },
            Some(RttEstimate { srtt, rttvar }) => RttEstimate {
                srtt: (7 * srtt + r) / 8,
                rttvar: (3 * rttvar + srtt.abs_diff(r)) / 4,
            },
        }
    }

    fn srtt(self) -> SimDuration {
        SimDuration::from_nanos(self.srtt)
    }

    /// The retransmit timeout, SRTT + max(G, K·RTTVAR) with K = 4, capped
    /// at [`MAX_RETRANSMIT_BACKOFF`].
    fn rto(self) -> SimDuration {
        let variation = SimDuration::from_nanos(4 * self.rttvar).max(MIN_RTT_VARIATION_TERM);
        (self.srtt() + variation).min(MAX_RETRANSMIT_BACKOFF)
    }
}

#[derive(Debug)]
struct PendingFrame {
    seq: u64,
    datagram: Vec<u8>,
    payload_len: u64,
    /// The session's last frame: retired by the FinAck, not by an Ack.
    fin: bool,
    /// `None` until first transmission (backpressure keeps it queued).
    last_sent: Option<SimInstant>,
    /// The current transmission's timeout: the client's retransmit timeout
    /// at the first, doubled by each timed retransmit.
    backoff: SimDuration,
    /// Whether the frame was ever retransmitted, so that an Ack retiring
    /// it times no round trip (Karn's rule).
    resent: bool,
}

impl PendingFrame {
    /// Puts the frame on the link at `now`, counting it in `link`.
    fn transmit(
        &mut self,
        transport: &mut SimTransport,
        link: &mut LinkDegradationReport,
        now: SimInstant,
    ) {
        self.last_sent = Some(now);
        link.frames_sent += 1;
        link.bytes_sent += self.datagram.len() as u64;
        transport.send(Direction::ToServer, now, self.datagram.clone());
    }

    /// Puts the frame on the link again at `now`, restarting its timer.
    fn retransmit(
        &mut self,
        transport: &mut SimTransport,
        link: &mut LinkDegradationReport,
        now: SimInstant,
    ) {
        self.resent = true;
        link.retransmits += 1;
        self.transmit(transport, link, now);
    }
}

/// The on-device half: frames every changed counter read, keeps the
/// reliable stream's send window, and retransmits what the link loses.
#[derive(Debug)]
pub struct ExfilClient {
    config: ExfilConfig,
    /// Counter values of the last read pushed; `None` before the first.
    last_values: Option<CounterSet>,
    /// The payload being framed, reused by every frame the client sends.
    payload: Vec<u8>,
    /// Datagrams received and not yet absorbed, reused by every pump.
    inbox: Vec<Vec<u8>>,
    pending: VecDeque<PendingFrame>,
    /// Before this instant no retransmit is due: the earliest
    /// `last_sent + backoff` over the transmitted pending frames, as of the
    /// last full pump. Queuing a frame resets it to zero: the next pump
    /// sends it, whatever its instant.
    wake: SimInstant,
    /// The link's measured round trip; `None` until the first sample, and
    /// with it no fast retransmit: without a round trip, a duplicate Ack
    /// cannot show that it answers a datagram sent after the oldest frame.
    rtt: Option<RttEstimate>,
    /// The instant of the last pump; pumps run at non-decreasing instants.
    last_pump: SimInstant,
    next_seq: u64,
    /// Lowest data seq not yet acknowledged by the server.
    acked_to: u64,
    finished: bool,
    done: bool,
    recovered: Option<String>,
    server_seen: BTreeSet<u64>,
    key_arrivals: Vec<(InferredKey, SimInstant)>,
    link: LinkDegradationReport,
}

impl ExfilClient {
    /// A client for one session. Its Hello carries [`ModelDigest::ZERO`]:
    /// the server falls back to device recognition. Use
    /// [`ExfilClient::with_model`] to pin a registry model by content
    /// address.
    pub fn new(config: ExfilConfig) -> Self {
        ExfilClient::with_model(config, ModelDigest::ZERO)
    }

    /// A client whose Hello pins the server-side model by content address.
    /// The Hello is queued as frame 0, so the first pump sends it and reads
    /// start at frame 1.
    pub fn with_model(config: ExfilConfig, model_digest: ModelDigest) -> Self {
        let mut client = ExfilClient {
            config,
            last_values: None,
            payload: Vec::new(),
            inbox: Vec::new(),
            pending: VecDeque::new(),
            wake: NEVER,
            rtt: None,
            last_pump: SimInstant::ZERO,
            next_seq: 0,
            acked_to: 0,
            finished: false,
            done: false,
            recovered: None,
            server_seen: BTreeSet::new(),
            key_arrivals: Vec::new(),
            link: LinkDegradationReport::default(),
        };
        Message::Hello { model_digest }.encode_into(&mut client.payload);
        client.enqueue(false);
        client
    }

    /// Stages a burst of counter reads for exfiltration. The session's first
    /// read and every read whose counters differ from the read before it
    /// (a counter reset included) each become one [`Message::Read`] frame;
    /// an unchanged read, which the analysis would skip, ships nothing. The
    /// comparison carries across calls, so any split of a read sequence
    /// into bursts, down to one read each, produces the same frames.
    /// [`SplitDriver`] hands over each read as it lands.
    pub fn push_samples(&mut self, samples: &[Sample]) {
        for read in samples {
            if self.last_values == Some(read.values) {
                continue;
            }
            self.last_values = Some(read.values);
            self.payload.clear();
            Message::Read(*read).encode_into(&mut self.payload);
            self.enqueue(false);
        }
    }

    /// Ends sampling: queues the Fin frame carrying the sampler's report.
    pub fn finish_sampling(&mut self, report: &SamplerReport) {
        assert!(!self.finished, "finish_sampling called twice");
        self.finished = true;
        self.payload.clear();
        Message::Fin { report: *report }.encode_into(&mut self.payload);
        self.enqueue(true);
    }

    /// Whether the final handshake completed (FinAck received).
    pub fn done(&self) -> bool {
        self.done
    }

    /// The credential text the server reported back, once done.
    pub fn recovered(&self) -> Option<&str> {
        self.recovered.as_deref()
    }

    /// Presses streamed back by the server, stamped with their sim-time of
    /// arrival at the client — the end-to-end press-to-inference latency
    /// source.
    pub fn key_arrivals(&self) -> &[(InferredKey, SimInstant)] {
        &self.key_arrivals
    }

    /// The client's half of the link degradation tally.
    pub fn link_report(&self) -> LinkDegradationReport {
        self.link
    }

    /// Frames the payload under the next data sequence number and queues
    /// the datagram behind the ones already pending.
    fn enqueue(&mut self, fin: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(PendingFrame {
            seq,
            datagram: frame::encode(seq, &self.payload),
            payload_len: self.payload.len() as u64,
            fin,
            last_sent: None,
            backoff: SimDuration::ZERO,
            resent: false,
        });
        // The next pump transmits it.
        self.wake = SimInstant::ZERO;
    }

    /// One scheduling round: absorb server traffic, transmit what the
    /// window allows, and retransmit what timed out. Call at non-decreasing
    /// `now`, whenever a datagram lands on the client's lane, a frame was
    /// queued, or a retransmit falls due; [`SplitDriver`] calls it at each
    /// instant something is due for either end.
    ///
    /// A round that receives nothing, with no frame queued since the last
    /// full round and `now` before the earliest retransmit deadline, has
    /// nothing to do and returns at once: only an arrival can open the send
    /// window or start a fast retransmit, and only a deadline can start a
    /// timed retransmit.
    pub fn pump(&mut self, transport: &mut SimTransport, now: SimInstant) {
        debug_assert!(now >= self.last_pump, "client pumped at {now:?} after {:?}", self.last_pump);
        self.last_pump = now;
        transport.recv_into(Direction::ToClient, now, &mut self.inbox);
        if self.inbox.is_empty() && now < self.wake {
            return;
        }
        let mut inbox = std::mem::take(&mut self.inbox);
        for datagram in inbox.drain(..) {
            self.absorb(transport, &datagram, now);
        }
        self.inbox = inbox;
        if self.done {
            return;
        }
        // First transmissions, bounded by the send window.
        let rto = self.rtt.map_or(INITIAL_RETRANSMIT_TIMEOUT, RttEstimate::rto);
        let in_flight = self.pending.iter().filter(|p| p.last_sent.is_some()).count();
        let mut budget = self.config.window.saturating_sub(in_flight);
        for p in self.pending.iter_mut() {
            if budget == 0 {
                break;
            }
            if p.last_sent.is_none() {
                p.backoff = rto;
                p.transmit(transport, &mut self.link, now);
                budget -= 1;
            }
        }
        // Timed retransmissions on capped exponential backoff.
        let mut wake = NEVER;
        for p in self.pending.iter_mut() {
            let Some(mut sent_at) = p.last_sent else { continue };
            if now.saturating_since(sent_at) >= p.backoff {
                sent_at = now;
                p.backoff = (p.backoff * 2).min(MAX_RETRANSMIT_BACKOFF);
                p.retransmit(transport, &mut self.link, now);
            }
            wake = wake.min(sent_at + p.backoff);
        }
        self.wake = wake;
    }

    /// Answers a duplicate Ack, one that retires nothing. If the oldest
    /// pending frame was last sent at least one SRTT ago, the Ack answers a
    /// datagram sent after it, so the frame is taken as lost and goes again
    /// now. A fast retransmit restarts the frame's timer but keeps its
    /// backoff: Acks are arriving.
    fn fast_retransmit(&mut self, transport: &mut SimTransport, now: SimInstant) {
        let (Some(rtt), Some(p)) = (self.rtt, self.pending.front_mut()) else { return };
        if p.last_sent.is_some_and(|sent| now.saturating_since(sent) >= rtt.srtt()) {
            p.retransmit(transport, &mut self.link, now);
        }
    }

    fn absorb(&mut self, transport: &mut SimTransport, datagram: &[u8], now: SimInstant) {
        let decoded = frame::decode_in_place(datagram)
            .and_then(|(seq, payload)| Message::decode(payload).map(|msg| (seq, msg)));
        let Ok((seq, msg)) = decoded else {
            self.link.frames_corrupt += 1;
            return;
        };
        if seq != CONTROL_SEQ {
            // Server data frame: dedup by seq.
            if !self.server_seen.insert(seq) {
                self.link.duplicates_discarded += 1;
                return;
            }
        }
        match msg {
            Message::Ack { next_expected } => {
                if next_expected > self.acked_to {
                    self.acked_to = next_expected;
                }
                // The Fin outlives the Ack that covers it: should the FinAck
                // ahead of this Ack have been lost, the Fin's retransmit is
                // what asks the server for it again.
                let (mut retired, mut resent, mut newest_sent) = (false, false, None);
                while self.pending.front().is_some_and(|p| p.seq < self.acked_to && !p.fin) {
                    let p = self.pending.pop_front().expect("checked front");
                    self.link.bytes_acked += p.payload_len;
                    retired = true;
                    resent |= p.resent;
                    if p.seq + 1 == next_expected {
                        newest_sent = p.last_sent;
                    }
                }
                if !retired {
                    self.fast_retransmit(transport, now);
                } else if let (false, Some(sent)) = (resent, newest_sent) {
                    // The Ack answers frame `next_expected - 1`, and no frame
                    // it retires was sent twice (Karn's rule): it times one
                    // round trip.
                    self.rtt = Some(RttEstimate::fold(self.rtt, now.saturating_since(sent)));
                }
            }
            Message::InferredKeys { keys } => {
                for key in keys {
                    self.key_arrivals.push((key, now));
                }
            }
            Message::FinAck { recovered } => {
                // The server releases frames strictly in order, so its
                // FinAck proves it holds every frame up to the Fin, whether
                // or not the Acks that cover them arrived: each pending
                // frame's payload counts now, once.
                self.link.bytes_acked += self.pending.iter().map(|p| p.payload_len).sum::<u64>();
                self.recovered = Some(recovered);
                self.done = true;
                self.pending.clear();
            }
            // Client-bound messages only; anything else is a peer bug, not
            // link damage — drop it.
            Message::Hello { .. } | Message::Read(_) | Message::Fin { .. } => {}
        }
    }
}

/// The offsite half: applies each read off the wire, in sequence, to the
/// incremental pipeline, streams presses back as they commit, and finishes
/// the session when Fin arrives.
pub struct ClassifierServer<'s> {
    service: &'s AttackService,
    session: Option<StreamingSession<'s>>,
    resequencer: ResequenceStage,
    /// Datagrams received and not yet handled, reused by every pump.
    datagrams: Vec<Vec<u8>>,
    /// The payload being framed, reused by every frame the server sends.
    payload: Vec<u8>,
    inbox: Vec<Message>,
    next_out_seq: u64,
    finack: Option<Vec<u8>>,
    result: Option<Result<SessionResult, ServiceError>>,
    link: LinkDegradationReport,
    /// The instant of the last pump; pumps run at non-decreasing instants.
    last_pump: SimInstant,
}

impl<'s> ClassifierServer<'s> {
    /// A server analysing one session with `service`'s models and config.
    pub fn new(service: &'s AttackService) -> Self {
        ClassifierServer {
            service,
            session: None,
            resequencer: ResequenceStage::default(),
            datagrams: Vec::new(),
            payload: Vec::new(),
            inbox: Vec::new(),
            next_out_seq: 0,
            finack: None,
            result: None,
            link: LinkDegradationReport::default(),
            last_pump: SimInstant::ZERO,
        }
    }

    /// The finished session result, once Fin has been processed.
    pub fn result(&self) -> Option<&Result<SessionResult, ServiceError>> {
        self.result.as_ref()
    }

    /// The server's half of the link degradation tally.
    pub fn link_report(&self) -> LinkDegradationReport {
        let mut link = self.link;
        link.duplicates_discarded += self.resequencer.duplicates_discarded;
        link.reorders_observed += self.resequencer.reorders_observed;
        link
    }

    /// Receives everything due on the transport and answers it. Returns at
    /// once when nothing is due. Call at non-decreasing `now`.
    pub fn pump(&mut self, transport: &mut SimTransport, now: SimInstant) {
        debug_assert!(now >= self.last_pump, "server pumped at {now:?} after {:?}", self.last_pump);
        self.last_pump = now;
        transport.recv_into(Direction::ToServer, now, &mut self.datagrams);
        if self.datagrams.is_empty() {
            return;
        }
        let mut datagrams = std::mem::take(&mut self.datagrams);
        for datagram in datagrams.drain(..) {
            self.handle(&datagram, transport, now);
        }
        self.datagrams = datagrams;
    }

    fn send(&mut self, transport: &mut SimTransport, now: SimInstant, datagram: Vec<u8>) {
        self.link.frames_sent += 1;
        self.link.bytes_sent += datagram.len() as u64;
        transport.send(Direction::ToClient, now, datagram);
    }

    /// Frames the payload under the next server sequence number.
    fn frame_data(&mut self) -> Vec<u8> {
        let seq = self.next_out_seq;
        self.next_out_seq += 1;
        frame::encode(seq, &self.payload)
    }

    fn send_ack(&mut self, transport: &mut SimTransport, now: SimInstant) {
        self.payload.clear();
        Message::Ack { next_expected: self.resequencer.next_expected() }
            .encode_into(&mut self.payload);
        let datagram = frame::encode(CONTROL_SEQ, &self.payload);
        self.send(transport, now, datagram);
    }

    fn handle(&mut self, datagram: &[u8], transport: &mut SimTransport, now: SimInstant) {
        // Every datagram is validated in full before it touches any state,
        // and decoded this once, in place: the resequencer takes the
        // message.
        let decoded = frame::decode_in_place(datagram)
            .and_then(|(seq, payload)| Message::decode(payload).map(|msg| (seq, msg)));
        let Ok((seq, msg)) = decoded else {
            self.link.frames_corrupt += 1;
            return;
        };
        if seq == CONTROL_SEQ {
            // Only the server sends control frames; one from the client is
            // a peer bug, not link damage — drop it.
            return;
        }
        let before = self.resequencer.next_expected();
        let was_duplicate_fin = seq < before && self.finack.is_some();
        let mut inbox = std::mem::take(&mut self.inbox);
        self.resequencer.push((seq, msg), &mut inbox);
        for msg in inbox.drain(..) {
            self.apply(msg, transport, now);
        }
        self.inbox = inbox;
        self.send_ack(transport, now);
        if was_duplicate_fin {
            // A retransmitted Fin means our FinAck was lost: re-send the
            // exact same frame (the client dedups it by seq).
            if let Some(datagram) = self.finack.clone() {
                self.send(transport, now, datagram);
            }
        }
    }

    fn apply(&mut self, msg: Message, transport: &mut SimTransport, now: SimInstant) {
        match msg {
            // Frame 0: the resequencer releases it first and exactly once,
            // so the session opens on the model it names before any read.
            // A zero digest requests device recognition. A pinned digest
            // the store does not hold is this session's final (typed)
            // result: reads are dropped and the Fin still draws an empty
            // FinAck, so the client's handshake terminates.
            Message::Hello { model_digest } if self.session.is_none() && self.result.is_none() => {
                let opened = if model_digest.is_zero() {
                    Ok(self.service.streaming_session())
                } else {
                    self.service.streaming_session_for(&model_digest)
                };
                match opened {
                    Ok(session) => self.session = Some(session),
                    Err(err) => {
                        spansight::count("wire.session.digest_mismatches", 1);
                        self.result = Some(Err(err));
                    }
                }
            }
            Message::Read(read) => {
                let Some(session) = self.session.as_mut() else { return };
                session.push_samples(std::slice::from_ref(&read));
                let keys = session.new_keys();
                if !keys.is_empty() {
                    self.payload.clear();
                    encode_inferred_keys(&mut self.payload, keys);
                    let datagram = self.frame_data();
                    self.send(transport, now, datagram);
                }
            }
            Message::Fin { report } => {
                let recovered = match self.session.take() {
                    Some(session) => {
                        let result = session.finish(&report);
                        let recovered = match &result {
                            Ok(r) => r.recovered_text.clone(),
                            Err(_) => String::new(),
                        };
                        self.result = Some(result);
                        recovered
                    }
                    // No session: the Hello's digest mismatch already
                    // decided the result (data reaches here only after the
                    // Hello). Still FinAck — the client's handshake must
                    // terminate either way.
                    None => String::new(),
                };
                self.payload.clear();
                Message::FinAck { recovered }.encode_into(&mut self.payload);
                let datagram = self.frame_data();
                self.finack = Some(datagram.clone());
                self.send(transport, now, datagram);
            }
            // Server-bound messages only, and one Hello per session; the
            // rest are peer bugs — drop them.
            Message::Hello { .. }
            | Message::Ack { .. }
            | Message::InferredKeys { .. }
            | Message::FinAck { .. } => {}
        }
    }
}

/// Everything a split session produced, beyond the [`SessionResult`] itself.
#[derive(Debug, PartialEq)]
pub struct SplitOutcome {
    /// The server-side session result with the folded
    /// [`LinkDegradationReport`] (client + server + transport tallies).
    pub result: SessionResult,
    /// The credential text that actually crossed the wire in the FinAck
    /// (None when the final handshake never completed).
    pub recovered_over_wire: Option<String>,
    /// Presses streamed back to the client, with client-side arrival times.
    pub key_arrivals: Vec<(InferredKey, SimInstant)>,
    /// Raw transport tallies.
    pub transport: TransportStats,
    /// Whether the client saw the FinAck before the drain deadline.
    pub completed: bool,
    /// Sim time from the Fin being queued to the FinAck landing, or the
    /// whole `drain_timeout` when it never did.
    pub drain: SimDuration,
}

/// Folds the client, server, and transport tallies into one report.
fn fold_link(
    client: LinkDegradationReport,
    server: LinkDegradationReport,
    transport: TransportStats,
) -> LinkDegradationReport {
    LinkDegradationReport {
        frames_sent: client.frames_sent + server.frames_sent,
        retransmits: client.retransmits + server.retransmits,
        frames_dropped: transport.dropped,
        frames_corrupt: client.frames_corrupt + server.frames_corrupt,
        duplicates_discarded: client.duplicates_discarded + server.duplicates_discarded,
        reorders_observed: client.reorders_observed + server.reorders_observed,
        bytes_sent: client.bytes_sent + server.bytes_sent,
        bytes_acked: client.bytes_acked,
    }
}

/// Where a [`SplitDriver`] stands in the session lifecycle.
enum SplitPhase {
    /// Counter sampling still running; each step hands the client up to
    /// [`READS_PER_QUANTUM`] reads.
    Streaming,
    /// Sampling is over and the Fin is queued; the next step runs the link
    /// from event to event until the final handshake lands or the deadline
    /// passes.
    Draining {
        /// When the Fin was queued; the drain ends `drain_timeout` later
        /// at the latest.
        since: SimInstant,
    },
    /// Outcome already produced; the driver must not be stepped again.
    Done,
}

/// A split session as an incremental state machine: one [`SplitDriver::step`]
/// call runs one *quantum* (32 reads while sampling, then the whole drain)
/// and yields. [`run_split_session`] drives it in a tight loop for the
/// one-session case; the fleet orchestrator steps many drivers interleaved
/// on the same workers via [`SplitSessionTask`].
///
/// The link is event-driven: both ends pump at each instant something is
/// due for either of them, a datagram's arrival on a lane or the client's
/// retransmit deadline, in time order, and at no other instant. Before a
/// read is handed to the client, every event before the read's instant
/// runs, so a changed read's frame leaves at that instant and a press
/// streams back one round trip after the server decides it. Where a
/// quantum ends moves only the quanta count, never an outcome.
pub struct SplitDriver<'s> {
    service: &'s AttackService,
    config: ExfilConfig,
    transport: SimTransport,
    client: ExfilClient,
    server: ClassifierServer<'s>,
    /// The link's clock: the instant of the last pump, or of the last read
    /// handed to the client if later. No pump runs before it.
    clock: SimInstant,
    /// The sampler and its stream, `Some` while streaming; both end at the
    /// streaming → draining transition, where the sampler closes its fd.
    sampling: Option<(Sampler, gpu_sc_attack::sampler::SampleStream)>,
    /// What the sampler survived; final once streaming ends.
    report: SamplerReport,
    phase: SplitPhase,
    _span: spansight::Span,
}

impl<'s> SplitDriver<'s> {
    /// Opens a split session against `sim`'s device over a fresh transport
    /// running `plan`, sampling until `until`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Device`] when the device file refuses to open.
    pub fn new(
        service: &'s AttackService,
        sim: &mut UiSimulation,
        until: SimInstant,
        plan: &LinkPlan,
        config: ExfilConfig,
    ) -> Result<Self, ServiceError> {
        let mut span = spansight::span("wire", "session.split");
        span.sim_range(sim.now().as_nanos(), until.as_nanos());
        let transport = SimTransport::new(plan);
        // When the service carries exactly one model, pin it by digest: the
        // server resolves the content address instead of re-running device
        // recognition, and a store mismatch becomes a typed error.
        let digest = match service.store().handles() {
            [only] => only.digest(),
            _ => ModelDigest::ZERO,
        };
        let client = ExfilClient::with_model(config, digest);
        let server = ClassifierServer::new(service);
        let mut sampler = Sampler::open(sim.device(), service.config().sampler)?;
        let stream = sampler.start_stream(sim, until);
        Ok(SplitDriver {
            service,
            config,
            transport,
            client,
            server,
            clock: sim.now(),
            sampling: Some((sampler, stream)),
            report: SamplerReport::default(),
            phase: SplitPhase::Streaming,
            _span: span,
        })
    }

    /// Runs one quantum. `Some` = session finished (success or error),
    /// `None` = more to do; call again. Must not be called after it
    /// returned `Some`.
    pub fn step(&mut self, sim: &mut UiSimulation) -> Option<Result<SplitOutcome, ServiceError>> {
        match self.phase {
            SplitPhase::Streaming => {
                for _ in 0..READS_PER_QUANTUM {
                    let (sampler, stream) =
                        self.sampling.as_mut().expect("streaming phase owns the sampler");
                    let Some(read) = sampler.next_sample(stream, sim) else {
                        return self.end_stream(sim);
                    };
                    self.run_until(read.at);
                    self.client.push_samples(std::slice::from_ref(&read));
                }
                None
            }
            SplitPhase::Draining { since } => {
                // Nothing observes the victim once sampling is over, so it
                // stays where sampling ended; only the link's clock moves.
                let deadline = since + self.config.drain_timeout;
                while !self.client.done() {
                    let at = self.next_event();
                    if at > deadline {
                        break;
                    }
                    self.pump(at);
                }
                let drain = if self.client.done() {
                    self.clock.saturating_since(since)
                } else {
                    self.config.drain_timeout
                };
                spansight::record("wire.session.drain_ms", DRAIN_EDGES_MS, drain.as_millis());
                self.phase = SplitPhase::Done;
                Some(self.finalise(drain))
            }
            SplitPhase::Done => unreachable!("a finished split driver must not be stepped"),
        }
    }

    /// The next instant something is due at either end: the first arrival
    /// on either lane or the client's retransmit deadline. A wake before
    /// the clock means a frame is queued, which is due at once.
    fn next_event(&self) -> SimInstant {
        [Direction::ToServer, Direction::ToClient]
            .into_iter()
            .filter_map(|dir| self.transport.next_arrival(dir))
            .fold(self.client.wake.max(self.clock), SimInstant::min)
    }

    /// Pumps both ends at `at`; the end with nothing due returns at once.
    fn pump(&mut self, at: SimInstant) {
        self.clock = at;
        self.client.pump(&mut self.transport, at);
        self.server.pump(&mut self.transport, at);
    }

    /// Runs the link through every event before `until`, in time order,
    /// then moves its clock to `until`.
    fn run_until(&mut self, until: SimInstant) {
        loop {
            let at = self.next_event();
            if at >= until {
                break;
            }
            self.pump(at);
        }
        self.clock = self.clock.max(until);
    }

    /// Ends streaming once the sampler's stream has run out: the link runs
    /// up to the stream's end, the sampler closes, and the client queues
    /// its Fin. `Some` only when the session acquired nothing.
    fn end_stream(&mut self, sim: &mut UiSimulation) -> Option<Result<SplitOutcome, ServiceError>> {
        self.run_until(sim.now());
        let (mut sampler, stream) = self.sampling.take().expect("streaming phase owns the sampler");
        let finished = sampler.finish_stream(stream);
        self.report = sampler.report();
        sampler.close(sim.device());
        if let Err(err) = finished {
            self.phase = SplitPhase::Done;
            return Some(Err(ServiceError::Device(err)));
        }
        self.client.finish_sampling(&self.report);
        self.phase = SplitPhase::Draining { since: self.clock };
        None
    }

    /// Assembles the outcome once draining ends (handshake done or budget
    /// exhausted), salvaging the server session if the Fin never arrived.
    fn finalise(&mut self, drain: SimDuration) -> Result<SplitOutcome, ServiceError> {
        let completed = self.client.done();
        if !completed {
            spansight::count("wire.session.drain_timeouts", 1);
        }
        let result = match self.server.result.take() {
            Some(result) => result,
            // The Fin never got through even after the drain budget — the
            // link was effectively one-way-dead. Salvage the session from
            // whatever samples did arrive rather than erroring out. The
            // Hello leaves a session or a result behind, so neither means it
            // never got through, and the salvage recognises the device.
            None => match self.server.session.take() {
                Some(session) => session.finish(&self.report),
                None => self.service.streaming_session().finish(&self.report),
            },
        };
        let mut result = result?;
        result.link =
            fold_link(self.client.link_report(), self.server.link_report(), self.transport.stats());
        spansight::count("wire.session.frames_sent", result.link.frames_sent);
        spansight::count("wire.session.retransmits", result.link.retransmits);
        Ok(SplitOutcome {
            result,
            recovered_over_wire: self.client.recovered.clone(),
            key_arrivals: std::mem::take(&mut self.client.key_arrivals),
            transport: self.transport.stats(),
            completed,
            drain,
        })
    }
}

/// Runs one eavesdropping session split across the wire: the sampler and
/// [`ExfilClient`] on the device side, the [`ClassifierServer`] behind the
/// transport, both pumped at each instant something is due for them.
///
/// Under a fault-free [`LinkPlan`] the returned [`SessionResult`] is
/// identical to [`AttackService::eavesdrop`] on the same seed, except for
/// the populated `link` field. Under a lossy plan the session still
/// completes — retransmits and resequencing absorb the damage
/// and the `link` report says how much there was.
///
/// This is [`SplitDriver`] driven to completion in a tight loop; fleets
/// step many drivers interleaved instead (see [`SplitSessionTask`]).
///
/// # Errors
///
/// Exactly the in-process contract: [`ServiceError::Device`] when sampling
/// never acquired anything, [`ServiceError::UnrecognisedDevice`] /
/// [`ServiceError::LaunchNotDetected`] from the analysis half. Link damage
/// is *never* an error.
pub fn run_split_session(
    service: &AttackService,
    sim: &mut UiSimulation,
    until: SimInstant,
    plan: &LinkPlan,
    config: ExfilConfig,
) -> Result<SplitOutcome, ServiceError> {
    let mut driver = SplitDriver::new(service, sim, until, plan, config)?;
    loop {
        if let Some(outcome) = driver.step(sim) {
            return outcome;
        }
    }
}

/// What one fleet-scheduled split session produced.
#[derive(Debug, PartialEq)]
pub struct SplitSessionOutcome {
    /// Which shard ran the session.
    pub shard: usize,
    /// The split outcome, or why the session failed. Failures are carried
    /// here — a failed session never stalls its shard.
    pub outcome: Result<SplitOutcome, ServiceError>,
    /// Accuracy against the victim simulation's ground truth (`None` when
    /// the session failed).
    pub score: Option<gpu_sc_attack::metrics::SessionScore>,
    /// The true keystrokes, kept so callers can measure per-key latency
    /// after the simulation itself is dropped.
    pub truth: Vec<(SimInstant, char)>,
    /// Quanta the scheduler spent on this session.
    pub quanta: u64,
}

/// A split session as a cooperative fleet task: owns its victim
/// [`UiSimulation`] and steps its [`SplitDriver`] one quantum at a time
/// under [`gpu_sc_attack::fleet::run_sessions`], so hundreds of split
/// sessions (each with its own [`SimTransport`] drawn from its own
/// [`LinkPlan`]) interleave on a bounded worker set. A session degraded by
/// its link is salvaged and reported exactly as in [`run_split_session`];
/// it slows only itself down, never its shard.
pub struct SplitSessionTask<'s> {
    sim: UiSimulation,
    shard: usize,
    driver: Option<SplitDriver<'s>>,
    /// Construction failure, surfaced by the first step.
    failed: Option<ServiceError>,
    quanta: u64,
}

impl<'s> SplitSessionTask<'s> {
    /// Prepares a split session on `shard`'s service over its own fresh
    /// transport running `plan`. Device faults at open time don't panic or
    /// stall — they surface as an error outcome on the first step.
    pub fn new(
        shard: usize,
        service: &'s AttackService,
        mut sim: UiSimulation,
        until: SimInstant,
        plan: &LinkPlan,
        config: ExfilConfig,
    ) -> Self {
        let (driver, failed) = match SplitDriver::new(service, &mut sim, until, plan, config) {
            Ok(driver) => (Some(driver), None),
            Err(err) => (None, Some(err)),
        };
        SplitSessionTask { sim, shard, driver, failed, quanta: 0 }
    }

    fn outcome(&mut self, outcome: Result<SplitOutcome, ServiceError>) -> SplitSessionOutcome {
        self.driver = None;
        let score = outcome.as_ref().ok().map(|o| o.result.score(&self.sim));
        SplitSessionOutcome {
            shard: self.shard,
            outcome,
            score,
            truth: self.sim.truth().keystrokes(),
            quanta: self.quanta,
        }
    }
}

impl gpu_sc_attack::fleet::Session for SplitSessionTask<'_> {
    type Outcome = SplitSessionOutcome;

    fn step(&mut self) -> Option<SplitSessionOutcome> {
        self.quanta += 1;
        if let Some(err) = self.failed.take() {
            return Some(self.outcome(Err(err)));
        }
        let step =
            self.driver.as_mut().expect("an unfinished task owns a driver").step(&mut self.sim);
        step.map(|res| self.outcome(res))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sc_attack::offline::ModelStore;
    use gpu_sc_attack::service::ServiceConfig;

    fn sample(ms: u64, base: u64) -> Sample {
        let mut values = [0u64; adreno_sim::counters::NUM_TRACKED];
        for (i, v) in values.iter_mut().enumerate() {
            *v = base + i as u64;
        }
        Sample { at: SimInstant::from_millis(ms), values: CounterSet::from_array(values) }
    }

    #[test]
    fn resequencer_restores_order_and_counts() {
        let frame = |seq: u64| (seq, Message::Ack { next_expected: seq });
        let mut stage = ResequenceStage::default();
        let mut out = Vec::new();
        stage.push(frame(1), &mut out); // early: buffered
        assert!(out.is_empty());
        stage.push(frame(0), &mut out); // releases 0 then 1
        assert_eq!(out.len(), 2);
        stage.push(frame(0), &mut out); // duplicate
        assert_eq!(stage.duplicates_discarded, 1);
        assert_eq!(stage.reorders_observed, 1);
        assert_eq!(stage.next_expected(), 2);
    }

    #[test]
    fn client_retransmits_on_backoff_through_silence() {
        // A plan whose outage swallows the first transmissions.
        let plan = LinkPlan::new(5);
        let mut transport = SimTransport::new(&plan);
        let mut client = ExfilClient::new(ExfilConfig::default());
        client.push_samples(&[sample(0, 10)]);
        let t0 = SimInstant::from_millis(0);
        client.pump(&mut transport, t0);
        // Discard everything the transport carries so no acks ever return,
        // then let the retransmit clock run through the frame's first four
        // backoffs, pumping twice per first timeout.
        let silence = (0..4).fold(SimDuration::ZERO, |total, k| {
            total + (INITIAL_RETRANSMIT_TIMEOUT * (1 << k)).min(MAX_RETRANSMIT_BACKOFF)
        });
        let mut now = t0;
        while now <= t0 + silence {
            now += INITIAL_RETRANSMIT_TIMEOUT / 2;
            transport.recv(Direction::ToServer, now).clear();
            client.pump(&mut transport, now);
        }
        let link = client.link_report();
        assert!(link.retransmits >= 2, "{link}");
    }

    /// The `next_expected` of every Ack due on the client's lane by `now`,
    /// in arrival order.
    fn acks_received(transport: &mut SimTransport, now: SimInstant) -> Vec<u64> {
        transport
            .recv(Direction::ToClient, now)
            .iter()
            .filter_map(|datagram| {
                match frame::decode_in_place(datagram).map(|(_, p)| Message::decode(p)) {
                    Ok(Ok(Message::Ack { next_expected })) => Some(next_expected),
                    _ => None,
                }
            })
            .collect()
    }

    #[test]
    fn data_that_overtakes_its_hello_waits_for_the_pinned_model() {
        // A read at frame 1 reaches the server before the Hello at frame 0
        // that pins a model the server lacks. Had the read opened a
        // session, the pin would go unheeded and the mismatch unreported.
        let service = AttackService::new(ModelStore::new(), ServiceConfig::default());
        let mut server = ClassifierServer::new(&service);
        let mut transport = SimTransport::new(&LinkPlan::new(1));
        let pinned = ModelDigest::of(b"a model the server does not hold");
        let hello = frame::encode(0, &Message::Hello { model_digest: pinned }.encode());
        let read = frame::encode(1, &Message::Read(sample(0, 10)).encode());
        let fin = frame::encode(2, &Message::Fin { report: SamplerReport::default() }.encode());
        let mut now = SimInstant::ZERO;
        let mut acks = Vec::new();
        for datagram in [read, hello, fin] {
            transport.send(Direction::ToServer, now, datagram);
            now += SimDuration::from_millis(10);
            server.pump(&mut transport, now);
            acks.push(acks_received(&mut transport, now + SimDuration::from_secs(1)));
        }
        assert_eq!(
            acks,
            [[0], [2], [3]],
            "the read waits for its Hello, and both are acked once the Hello lands"
        );
        assert!(
            matches!(server.result(), Some(Err(ServiceError::ModelDigestMismatch(d))) if *d == pinned),
            "{:?}",
            server.result()
        );
    }

    #[test]
    fn the_estimator_gives_rfc_6298_timeouts() {
        let ms = SimDuration::from_millis;
        let mut estimate = None;
        let mut rtos = Vec::new();
        for sample in [ms(4), ms(4), ms(8), ms(2)] {
            estimate = Some(RttEstimate::fold(estimate, sample));
            rtos.push(estimate.expect("folded").rto());
        }
        // SRTT 4 / 4 / 4.5 / 4.1875 ms and RTTVAR 2 / 1.5 / 2.125 /
        // 2.21875 ms: RTO = SRTT + 4·RTTVAR.
        assert_eq!(rtos, [ms(12), ms(10), ms(13), SimDuration::from_nanos(13_062_500)]);
        // A steady round trip leaves SRTT plus the 1 ms floor.
        let steady = (0..20).fold(None, |estimate, _| Some(RttEstimate::fold(estimate, ms(4))));
        assert_eq!(steady.expect("folded").rto(), ms(5));
        // A slow first sample is capped with the backoff.
        assert_eq!(RttEstimate::fold(None, ms(400)).rto(), MAX_RETRANSMIT_BACKOFF);
    }

    /// An Ack frame as the server sends it.
    fn ack(next_expected: u64) -> Vec<u8> {
        frame::encode(CONTROL_SEQ, &Message::Ack { next_expected }.encode())
    }

    /// The sequence numbers of the frames the client put on the link since
    /// the last call, taking them off it as a loss would.
    fn data_sent(transport: &mut SimTransport) -> Vec<u64> {
        let sent = transport.recv(Direction::ToServer, SimInstant::from_millis(3_600_000));
        sent.iter()
            .filter_map(|datagram| frame::decode_in_place(datagram).ok())
            .map(|(seq, _)| seq)
            .collect()
    }

    /// A client whose Hello and first read, frames 0 and 1, left at t = 0
    /// over `transport` and were acked one 4 ms round trip later: SRTT
    /// 4 ms, RTTVAR 2 ms. Returns it with the instant the Ack landed.
    fn measured_client(transport: &mut SimTransport) -> (ExfilClient, SimInstant) {
        let mut client = ExfilClient::new(ExfilConfig::default());
        let t0 = SimInstant::ZERO;
        client.push_samples(&[sample(0, 10)]);
        client.pump(transport, t0);
        assert_eq!(data_sent(transport), [0, 1]);
        // Their Ack, from the server 2 ms away.
        let at = t0 + SimDuration::from_millis(2);
        transport.send(Direction::ToClient, at, ack(2));
        let now = at + SimDuration::from_millis(2);
        client.pump(transport, now);
        assert_eq!(client.rtt, Some(RttEstimate { srtt: 4_000_000, rttvar: 2_000_000 }));
        (client, now)
    }

    #[test]
    fn a_duplicate_ack_before_any_round_trip_retransmits_nothing() {
        let mut transport = SimTransport::new(&LinkPlan::new(3));
        let mut client = ExfilClient::new(ExfilConfig::default());
        let ms = SimDuration::from_millis;
        client.push_samples(&[sample(0, 10)]);
        client.pump(&mut transport, SimInstant::ZERO);
        // Frame 0, the Hello, is lost and frame 1 is delivered: the server
        // holds the read and answers Ack(0).
        assert_eq!(data_sent(&mut transport), [0, 1]);
        transport.send(Direction::ToClient, SimInstant::ZERO + ms(2), ack(0));
        client.pump(&mut transport, SimInstant::ZERO + ms(4));
        // The Ack retires nothing, and with no round trip measured it
        // cannot show that it answers something sent after the Hello.
        assert_eq!(client.rtt, None);
        assert_eq!(data_sent(&mut transport), [] as [u64; 0]);
        assert_eq!(client.link_report().retransmits, 0);
    }

    #[test]
    fn a_retransmitted_frame_times_no_round_trip() {
        let mut transport = SimTransport::new(&LinkPlan::new(4));
        let (mut client, t1) = measured_client(&mut transport);
        let before = client.rtt;
        client.push_samples(&[sample(10, 20)]);
        client.pump(&mut transport, t1);
        // Frame 2 is lost; its timer fires after the measured 12 ms RTO and
        // the retransmit gets through.
        assert_eq!(data_sent(&mut transport), [2]);
        let t2 = t1 + SimDuration::from_millis(12);
        client.pump(&mut transport, t2);
        assert_eq!(data_sent(&mut transport), [2]);
        // Its Ack lands a fast 1 ms later: had it been taken as a sample of
        // the retransmit, or of the first send, the estimate would move.
        transport.send(Direction::ToClient, t2 - SimDuration::from_millis(1), ack(3));
        client.pump(&mut transport, t2 + SimDuration::from_millis(1));
        assert!(client.pending.is_empty(), "the Ack retires frame 2");
        assert_eq!(client.rtt, before, "Karn's rule: no sample from a retransmitted frame");
    }

    #[test]
    fn a_duplicate_ack_retransmits_the_lost_head_at_once() {
        let mut transport = SimTransport::new(&LinkPlan::new(5));
        let (mut client, t1) = measured_client(&mut transport);
        client.push_samples(&[sample(10, 20)]);
        client.push_samples(&[sample(11, 30)]);
        client.pump(&mut transport, t1);
        // Frame 2 is lost and frame 3 arrives: the server answers Ack(2).
        assert_eq!(data_sent(&mut transport), [2, 3]);
        let ms = SimDuration::from_millis;
        transport.send(Direction::ToClient, t1 + ms(2), ack(2));
        client.pump(&mut transport, t1 + ms(4));
        // The Ack lands one SRTT after frame 2 left, 8 ms before its timer.
        assert_eq!(data_sent(&mut transport), [2], "the duplicate Ack resends the head");
        let head = client.pending.front().expect("frame 2 is pending");
        assert_eq!((head.seq, head.last_sent), (2, Some(t1 + ms(4))), "the timer restarts");
        assert_eq!(head.backoff, ms(12), "a fast retransmit keeps the backoff");
        assert_eq!(client.link_report().retransmits, 1);
        // Frame 3's timer, still running from t1, fires at its own instant.
        client.pump(&mut transport, t1 + ms(12));
        assert_eq!(data_sent(&mut transport), [3]);
    }

    #[test]
    fn a_duplicate_ack_within_one_srtt_of_the_heads_send_waits() {
        let mut transport = SimTransport::new(&LinkPlan::new(6));
        let (mut client, t1) = measured_client(&mut transport);
        client.push_samples(&[sample(10, 20)]);
        client.push_samples(&[sample(11, 30)]);
        client.pump(&mut transport, t1);
        assert_eq!(data_sent(&mut transport), [2, 3]);
        let ms = SimDuration::from_millis;
        // A duplicate Ack 3 ms after frame 2 left can answer something
        // sent before it: no retransmit.
        transport.send(Direction::ToClient, t1 + ms(1), ack(2));
        client.pump(&mut transport, t1 + ms(3));
        assert_eq!(data_sent(&mut transport), [] as [u64; 0]);
        // The next, a full SRTT after, cannot.
        transport.send(Direction::ToClient, t1 + ms(2), ack(2));
        client.pump(&mut transport, t1 + ms(4));
        assert_eq!(data_sent(&mut transport), [2]);
    }

    #[test]
    fn a_lost_hello_is_retransmitted_on_its_own_timer() {
        // Two perfect links joined by a relay that drops the first Hello
        // and forwards every other datagram. The read is queued 20 ms
        // after the Hello left, so its own timer would fire 20 ms after
        // the Hello's.
        let service = AttackService::new(ModelStore::new(), ServiceConfig::default());
        let mut server = ClassifierServer::new(&service);
        let mut client_side = SimTransport::new(&LinkPlan::new(1));
        let mut server_side = SimTransport::new(&LinkPlan::new(2));
        let mut client = ExfilClient::new(ExfilConfig::default());
        let read_at = SimInstant::from_millis(20);
        let mut relayed = Vec::new();
        let mut now = SimInstant::ZERO;
        while now <= SimInstant::from_millis(200) {
            if now == read_at {
                client.push_samples(&[sample(20, 10)]);
            }
            client.pump(&mut client_side, now);
            for datagram in client_side.recv(Direction::ToServer, now) {
                let (seq, _) = frame::decode_in_place(&datagram).expect("a perfect link");
                relayed.push(seq);
                if relayed != [0] {
                    server_side.send(Direction::ToServer, now, datagram);
                }
            }
            server.pump(&mut server_side, now);
            for datagram in server_side.recv(Direction::ToClient, now) {
                client_side.send(Direction::ToClient, now, datagram);
            }
            now += SimDuration::from_millis(1);
        }
        // The server holds the read and answers it with a duplicate Ack(0),
        // which retransmits nothing before a round trip is measured. The
        // Hello's timer fires at 30 ms, and the Ack its copy draws covers
        // the read too.
        assert_eq!(relayed, [0, 1, 0], "only the Hello goes twice");
        assert_eq!(client.link_report().retransmits, 1);
        assert!(client.pending.is_empty(), "the Hello's Ack retires the read");
    }
}
