//! Fleet-scale session orchestration: many concurrent eavesdropping
//! sessions multiplexed over a bounded worker set.
//!
//! The paper's threat model is app-store scale — a tiny sampler shipped to
//! millions of phones, each feeding a classifier — so the interesting unit
//! is not one session but a *fleet* of them in flight at once. This module
//! supplies the orchestration layer:
//!
//! * [`Session`] — a cooperative task: one `step` runs one *quantum* of a
//!   session (a bounded burst of sampling plus a bounded burst of
//!   classification) and yields. [`run_sessions`] gives each dequeued
//!   session a *turn* of up to four consecutive quanta, so a session's
//!   working set stays in cache across the quanta of its turn instead of
//!   being evicted by every other resident session between each two.
//!   [`minipool::Pool::par_drive`] requeues a session FIFO on a
//!   ring-shaped run queue after its turn, so turns of different sessions
//!   interleave on the same workers and one degraded session can pin at
//!   most one worker while every other session keeps flowing.
//! * [`FleetSession`] — the in-process implementation: it owns its victim
//!   [`UiSimulation`] and drives [`Sampler::next_sample`] into a
//!   [`StreamingSession`] through a bounded sample queue, with
//!   backpressure: when the classifier side falls behind, the queue fills,
//!   the sampler yields instead of buffering, and sampler memory stays
//!   bounded at the queue capacity (counted in
//!   [`SessionStats::sampler_stalls`]).
//! * [`Fleet`] — shard bookkeeping: each shard is one [`AttackService`]
//!   (its own `ModelStore`, typically sharing trained `ClassifierModel`s
//!   by `Arc` — the hub/clients split), and sessions are assigned
//!   round-robin.
//!
//! Sessions are fully independent (each owns its simulation and its sample
//! queue), so outcomes are byte-identical at any worker count; the `fleet`
//! experiment in `crates/bench` pins that at 1000+ sessions.
//!
//! Degraded sessions never stall a shard: a `FaultPlan` installed on a
//! session's device degrades *that session's* coverage (or fails it with a
//! [`ServiceError`] carried in its [`SessionOutcome`]), while the FIFO ring
//! keeps stepping everyone else. The wire layer adds a split-session task
//! on the same [`Session`] trait for remote fleets over lossy links.

use std::collections::VecDeque;

use adreno_sim::time::SimInstant;
use android_ui::UiSimulation;
use minipool::Pool;

use crate::metrics::SessionScore;
use crate::sampler::{SampleStream, Sampler};
use crate::service::{AttackService, ServiceError, SessionResult, StreamingSession};
use crate::trace::Sample;

/// A cooperative fleet task.
///
/// `step` runs one quantum and returns `Some(outcome)` when the session is
/// finished, `None` to yield. The scheduler ([`run_sessions`]) steps a
/// dequeued session for one *turn* — up to `TURN_QUANTA` (4) quanta back
/// to back, fewer if it finishes — and then requeues it FIFO, so with `k`
/// live sessions each is stepped again within `k` dequeues of at most four
/// quanta each, regardless of how long any single session takes — the
/// starvation-freedom property the fleet leans on. A task is never stepped
/// again after it returns `Some`.
pub trait Session {
    /// What a finished session yields.
    type Outcome;

    /// Runs one quantum. `Some` = finished, `None` = not yet: the next
    /// quantum runs later in this turn, or after the session is requeued.
    fn step(&mut self) -> Option<Self::Outcome>;
}

/// Quanta a session runs back to back each time the ring dequeues it. A
/// session's live heap (~16–29 KiB) is evicted from a core's L2 by the
/// thousands of other resident sessions between two dequeues, so a turn
/// pays that re-warming once per four quanta instead of once per quantum.
/// A turn is only consecutive ordinary `step`s, so outcomes and
/// per-session quanta counts do not depend on its length.
const TURN_QUANTA: usize = 4;

/// Drives every session to completion over the pool's cooperative ring
/// run queue, returning outcomes in session order.
///
/// Each dequeue runs one turn of the session (see [`Session`]); the ring
/// itself is [`minipool::Pool::par_drive`], which sees a turn as one step.
/// Sessions must be independent of each other (each [`FleetSession`] owns
/// its simulation, sampler, and sample queue), which makes the outcome
/// vector byte-identical at any `Pool` worker count.
pub fn run_sessions<S>(pool: &Pool, sessions: Vec<S>) -> Vec<S::Outcome>
where
    S: Session + Send,
    S::Outcome: Send,
{
    spansight::count("core.fleet.sessions", sessions.len() as u64);
    pool.par_drive(sessions, |_, s| (0..TURN_QUANTA).find_map(|_| s.step()))
}

/// Tuning knobs for [`FleetSession`] quanta and backpressure.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of shards ([`AttackService`] instances) sessions are
    /// assigned to round-robin. Purely bookkeeping for [`Fleet`]; a
    /// hand-built session carries its own shard id.
    pub shards: usize,
    /// Capacity of the per-session sample queue between sampling and
    /// classification, rounded up to a power of two — the backpressure
    /// bound: the sampler can never run more than this many samples ahead
    /// of the classifier.
    pub ring_capacity: usize,
    /// Upper bound on samples acquired per quantum (the sampling burst).
    pub sample_quantum: usize,
    /// Upper bound on samples drained and classified per quantum. Setting
    /// this below `sample_quantum` models a classifier slower than the
    /// sampler; the queue then fills and sampling stalls instead of
    /// buffering unboundedly.
    pub classify_quantum: usize,
}

impl Default for FleetConfig {
    /// One shard; queue and both quanta sized to the same 64-sample burst
    /// the single-session driver uses (`SAMPLE_BURST`), so a lone fleet
    /// session does the same work per visit as
    /// [`AttackService::eavesdrop`] does per burst.
    fn default() -> Self {
        FleetConfig { shards: 1, ring_capacity: 64, sample_quantum: 64, classify_quantum: 64 }
    }
}

/// Per-session scheduler statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Quanta the scheduler spent on this session (steps taken).
    pub quanta: u64,
    /// Times the sampling burst hit a full queue and yielded early — each
    /// one is backpressure doing its job.
    pub sampler_stalls: u64,
    /// Most samples ever resident in the queue; never exceeds the queue
    /// capacity by construction.
    pub max_ring_occupancy: u64,
}

/// What one fleet session produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Which shard ran the session.
    pub shard: usize,
    /// The session result, or why it failed. Failures are carried here —
    /// a failed session never stalls its shard.
    pub result: Result<SessionResult, ServiceError>,
    /// Accuracy against the victim simulation's ground truth (`None` when
    /// the session failed).
    pub score: Option<SessionScore>,
    /// The true keystrokes, kept so callers can measure per-key latency
    /// after the simulation itself is dropped.
    pub truth: Vec<(SimInstant, char)>,
    /// Scheduler statistics for this session.
    pub stats: SessionStats,
}

/// The live half of a [`FleetSession`] that exists only until the session
/// finishes or fails.
enum State<'s> {
    /// Session construction failed (e.g. the device refused to open); the
    /// error is surfaced by the first `step`.
    Failed(ServiceError),
    /// Sampling and/or classification still in flight. Boxed so the
    /// per-quantum state swap moves one pointer, not ~2 KB of sampler.
    Running(Box<Live<'s>>),
    /// Outcome already produced; `step` must not be called again.
    Finished,
}

/// The in-flight sampler/stream/pipeline trio of a running session.
struct Live<'s> {
    sampler: Sampler,
    stream: SampleStream,
    session: StreamingSession<'s>,
    /// The sample stream has ended; only draining remains.
    sampling_done: bool,
}

/// One in-process eavesdropping session as a cooperative fleet task.
///
/// Owns its victim [`UiSimulation`] end to end. Each [`Session::step`]
/// runs one quantum: acquire up to [`FleetConfig::sample_quantum`] samples
/// into the sample queue (stopping early — a *stall* — if the queue fills),
/// then drain up to [`FleetConfig::classify_quantum`] of them into the
/// [`StreamingSession`] stage pipeline. The outcome is identical to
/// running [`AttackService::eavesdrop`] on the same seeded simulation;
/// only the interleaving with other sessions differs.
///
/// Because the session owns its simulation — and the simulation owns its
/// GPU — each session also owns its GPU's frame tally, while the layers its
/// frames are assembled from come from the process-wide layer cache
/// ([`adreno_sim::pipeline::render`]). Cached layers are pure functions of
/// their keys, so session results stay bit-identical at any `--jobs` level.
/// [`FleetSession::incremental_stats`] exposes the tally.
pub struct FleetSession<'s> {
    sim: UiSimulation,
    shard: usize,
    sample_quantum: usize,
    classify_quantum: usize,
    /// Samples read but not yet classified; never longer than
    /// `queue_capacity`.
    queue: VecDeque<Sample>,
    /// [`FleetConfig::ring_capacity`] rounded up to a power of two.
    queue_capacity: usize,
    burst: Vec<Sample>,
    stats: SessionStats,
    state: State<'s>,
}

impl<'s> FleetSession<'s> {
    /// Prepares a session on `shard`'s service, eavesdropping `sim` until
    /// `until`. Device faults at open time don't panic or stall — they
    /// surface as a [`ServiceError::Device`] outcome on the first step.
    pub fn new(
        shard: usize,
        service: &'s AttackService,
        sim: UiSimulation,
        until: SimInstant,
        config: &FleetConfig,
    ) -> Self {
        let queue_capacity = config.ring_capacity.next_power_of_two();
        let state = match Sampler::open(sim.device(), service.config().sampler) {
            Ok(mut sampler) => {
                let stream = sampler.start_stream(&sim, until);
                State::Running(Box::new(Live {
                    sampler,
                    stream,
                    session: service.streaming_session(),
                    sampling_done: false,
                }))
            }
            Err(err) => State::Failed(ServiceError::Device(err)),
        };
        FleetSession {
            sim,
            shard,
            sample_quantum: config.sample_quantum.max(1),
            classify_quantum: config.classify_quantum.max(1),
            queue: VecDeque::with_capacity(queue_capacity),
            queue_capacity,
            burst: Vec::with_capacity(config.classify_quantum.max(1)),
            stats: SessionStats::default(),
            state: State::Finished, // replaced below
        }
        .with_state(state)
    }

    fn with_state(mut self, state: State<'s>) -> Self {
        self.state = state;
        self
    }

    /// What this session's frames took from the layer cache and what they
    /// computed.
    pub fn incremental_stats(&self) -> adreno_sim::incremental::IncrementalStats {
        self.sim.incremental_stats()
    }

    /// Wraps up: score and ground truth are extracted *before* the
    /// simulation is dropped, so the outcome is self-contained.
    fn outcome(&mut self, result: Result<SessionResult, ServiceError>) -> SessionOutcome {
        spansight::count("core.fleet.quanta", self.stats.quanta);
        spansight::count("core.fleet.sampler_stalls", self.stats.sampler_stalls);
        let score = result.as_ref().ok().map(|r| r.score(&self.sim));
        SessionOutcome {
            shard: self.shard,
            result,
            score,
            truth: self.sim.truth().keystrokes(),
            stats: self.stats,
        }
    }
}

impl Session for FleetSession<'_> {
    type Outcome = SessionOutcome;

    fn step(&mut self) -> Option<SessionOutcome> {
        self.stats.quanta += 1;
        match std::mem::replace(&mut self.state, State::Finished) {
            State::Failed(err) => Some(self.outcome(Err(err))),
            State::Running(mut live) => {
                // Sampling burst: up to `sample_quantum` reads, stopping
                // early when the queue fills (backpressure) or the stream
                // ends.
                if !live.sampling_done {
                    for _ in 0..self.sample_quantum {
                        if self.queue.len() == self.queue_capacity {
                            self.stats.sampler_stalls += 1;
                            break;
                        }
                        match live.sampler.next_sample(&mut live.stream, &mut self.sim) {
                            Some(sample) => {
                                self.queue.push_back(sample);
                                self.stats.max_ring_occupancy =
                                    self.stats.max_ring_occupancy.max(self.queue.len() as u64);
                            }
                            None => {
                                live.sampling_done = true;
                                break;
                            }
                        }
                    }
                }
                // Classification burst: take up to `classify_quantum`
                // queued samples and push them through the stage pipeline
                // as one batch.
                self.burst.clear();
                let n = self.classify_quantum.min(self.queue.len());
                self.burst.extend(self.queue.drain(..n));
                live.session.push_samples(&self.burst);

                if live.sampling_done && self.queue.is_empty() {
                    let Live { mut sampler, stream, session, .. } = *live;
                    let finished = sampler.finish_stream(stream);
                    let report = sampler.report();
                    sampler.close(self.sim.device());
                    let result = match finished {
                        Ok(()) => session.finish(&report),
                        Err(err) => Err(ServiceError::Device(err)),
                    };
                    return Some(self.outcome(result));
                }
                self.state = State::Running(live);
                None
            }
            State::Finished => unreachable!("a finished fleet session must not be stepped"),
        }
    }
}

// `run_sessions` hands each session from worker to worker between turns.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<FleetSession<'static>>();
};

/// Shard bookkeeping for an all-in-process fleet: sessions assigned
/// round-robin over per-shard [`AttackService`]s, then driven to
/// completion by [`run_sessions`].
pub struct Fleet<'s> {
    shards: Vec<&'s AttackService>,
    config: FleetConfig,
    sessions: Vec<FleetSession<'s>>,
}

impl<'s> Fleet<'s> {
    /// Creates a fleet over one service per shard. Each service carries a
    /// shard's own [`crate::offline::ModelStore`]; sharing one registry
    /// handle between the shards — one encoded blob, one decoded model —
    /// is the caller's choice (see `ModelStore::add_handle` and
    /// [`crate::registry::Registry`]).
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty.
    pub fn new(shards: Vec<&'s AttackService>, config: FleetConfig) -> Self {
        assert!(!shards.is_empty(), "a fleet needs at least one shard");
        Fleet { shards, config, sessions: Vec::new() }
    }

    /// The shard index the `n`-th enrolled session lands on.
    pub fn shard_for(&self, index: usize) -> usize {
        index % self.shards.len()
    }

    /// Enrolls a victim simulation as the next session (round-robin shard
    /// assignment) and returns its shard index.
    pub fn enroll(&mut self, sim: UiSimulation, until: SimInstant) -> usize {
        let shard = self.shard_for(self.sessions.len());
        self.sessions.push(FleetSession::new(shard, self.shards[shard], sim, until, &self.config));
        shard
    }

    /// Number of sessions enrolled so far.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are enrolled.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Drives every enrolled session to completion on `pool`, returning
    /// outcomes in enrollment order.
    pub fn run(self, pool: &Pool) -> Vec<SessionOutcome> {
        run_sessions(pool, self.sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::ModelStore;
    use crate::service::ServiceConfig;
    use android_ui::SimConfig;

    fn empty_service() -> AttackService {
        AttackService::new(ModelStore::new(), ServiceConfig::default())
    }

    /// Backpressure: with a classifier draining one sample per quantum
    /// against a 64-per-quantum sampler, the ring must fill, the sampler
    /// must stall, and resident samples must stay bounded at the ring
    /// capacity — the sampler cannot buffer ahead of a slow classifier.
    #[test]
    fn slow_classifier_bounds_sampler_memory() {
        let service = empty_service();
        let config =
            FleetConfig { shards: 1, ring_capacity: 8, sample_quantum: 64, classify_quantum: 1 };
        let sim = UiSimulation::new(SimConfig::paper_default(11));
        let mut session =
            FleetSession::new(0, &service, sim, SimInstant::from_millis(2_000), &config);
        let outcome = loop {
            if let Some(out) = session.step() {
                break out;
            }
        };
        // No model in the store: the session fails cleanly, but sampling
        // and scheduling still ran in full.
        assert_eq!(outcome.result, Err(ServiceError::UnrecognisedDevice));
        let ring_slots = 8u64; // capacity 8 is already a power of two
        assert!(
            outcome.stats.max_ring_occupancy <= ring_slots,
            "ring occupancy {} exceeded the backpressure bound {}",
            outcome.stats.max_ring_occupancy,
            ring_slots
        );
        assert!(
            outcome.stats.sampler_stalls > 0,
            "a 64:1 sampler:classifier ratio must hit the full ring"
        );
        assert!(outcome.stats.quanta > 1, "the session must have yielded at least once");
    }

    /// A session whose device refuses to open yields a Device error
    /// outcome on its first step instead of panicking or hanging.
    #[test]
    fn failed_open_surfaces_as_outcome() {
        let service = empty_service();
        let sim = UiSimulation::new(SimConfig::paper_default(12));
        sim.device().set_policy(kgsl::AccessPolicy::DenyAll);
        let mut session = FleetSession::new(
            3,
            &service,
            sim,
            SimInstant::from_millis(500),
            &FleetConfig::default(),
        );
        let outcome = session.step().expect("a failed session finishes on its first step");
        assert_eq!(outcome.shard, 3);
        assert_eq!(outcome.result, Err(ServiceError::Device(kgsl::Errno::Eacces)));
        assert!(outcome.score.is_none());
    }

    /// Round-robin shard assignment covers every shard.
    #[test]
    fn fleet_assigns_shards_round_robin() {
        let a = empty_service();
        let b = empty_service();
        let mut fleet = Fleet::new(vec![&a, &b], FleetConfig { shards: 2, ..Default::default() });
        assert!(fleet.is_empty());
        let shards: Vec<usize> = (0..5)
            .map(|i| {
                fleet.enroll(
                    UiSimulation::new(SimConfig::paper_default(20 + i)),
                    SimInstant::from_millis(300),
                )
            })
            .collect();
        assert_eq!(shards, vec![0, 1, 0, 1, 0]);
        assert_eq!(fleet.len(), 5);
        let outcomes = fleet.run(&Pool::new(2));
        assert_eq!(outcomes.len(), 5);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(out.shard, i % 2);
        }
    }

    /// Outcomes are identical at any worker count: the scheduler may
    /// interleave differently, but each session owns its world.
    #[test]
    fn outcomes_identical_across_worker_counts() {
        let run = |jobs: usize| -> Vec<SessionOutcome> {
            let service = empty_service();
            let config =
                FleetConfig { ring_capacity: 4, classify_quantum: 2, ..Default::default() };
            let sessions: Vec<FleetSession<'_>> = (0..6)
                .map(|i| {
                    FleetSession::new(
                        i % 2,
                        &service,
                        UiSimulation::new(SimConfig::paper_default(40 + i as u64)),
                        SimInstant::from_millis(400),
                        &config,
                    )
                })
                .collect();
            run_sessions(&Pool::new(jobs), sessions)
        };
        let seq = run(1);
        assert_eq!(seq, run(4));
    }
}
