//! Fleet-scale session orchestration: many concurrent eavesdropping
//! sessions multiplexed over a bounded worker set.
//!
//! The paper's threat model is app-store scale — a tiny sampler shipped to
//! millions of phones, each feeding a classifier — so the interesting unit
//! is not one session but a *fleet* of them in flight at once. This module
//! supplies the orchestration layer:
//!
//! * [`Session`] — a cooperative task: one `step` runs one *quantum* of a
//!   session and yields. [`run_sessions`] gives each dequeued session a
//!   *turn* of up to four consecutive quanta, so a session's working set
//!   stays in cache across the quanta of its turn instead of being evicted
//!   by every other resident session between each two.
//!   [`minipool::Pool::par_drive`] requeues a session FIFO on a
//!   ring-shaped run queue after its turn, so turns of different sessions
//!   interleave on the same workers and one degraded session can pin at
//!   most one worker while every other session keeps flowing.
//! * [`FleetSession`] — the in-process implementation: it owns its victim
//!   [`UiSimulation`] and steps the same burst loop that
//!   [`AttackService::eavesdrop`] runs, one 64-sample burst per quantum.
//!
//! Sessions are fully independent (each owns its simulation and its
//! sampler), so outcomes are byte-identical at any worker count; the
//! `fleet` experiment in `crates/bench` pins that at 1000+ sessions, and
//! assigns its sessions to shards (one [`AttackService`] each) itself.
//!
//! Degraded sessions never stall a shard: a `FaultPlan` installed on a
//! session's device degrades *that session's* coverage (or fails it with a
//! [`ServiceError`] carried in its [`SessionOutcome`]), while the FIFO ring
//! keeps stepping everyone else. The wire layer adds a split-session task
//! on the same [`Session`] trait for remote fleets over lossy links.

use adreno_sim::time::SimInstant;
use android_ui::UiSimulation;
use minipool::Pool;

use crate::metrics::SessionScore;
use crate::service::{AttackService, LocalDriver, ServiceError, SessionResult};

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
/// session's live heap is evicted from a core's L2 by the thousands of
/// other resident sessions between two dequeues, so a turn pays that
/// re-warming once per four quanta instead of once per quantum.
/// A turn is only consecutive ordinary `step`s, so outcomes and
/// per-session quanta counts do not depend on its length.
const TURN_QUANTA: usize = 4;

/// Drives every session to completion over the pool's cooperative ring
/// run queue, returning outcomes in session order.
///
/// Each dequeue runs one turn of the session (see [`Session`]); the ring
/// itself is [`minipool::Pool::par_drive`], which sees a turn as one step.
/// Sessions must be independent of each other (each [`FleetSession`] owns
/// its simulation and sampler), which makes the outcome vector
/// byte-identical at any `Pool` worker count.
pub fn run_sessions<S>(pool: &Pool, sessions: Vec<S>) -> Vec<S::Outcome>
where
    S: Session + Send,
    S::Outcome: Send,
{
    spansight::count("core.fleet.sessions", sessions.len() as u64);
    pool.par_drive(sessions, |_, s| (0..TURN_QUANTA).find_map(|_| s.step()))
}

/// Fleet settings, kept only because the end-to-end benchmark
/// (`perfbench/src/fleet.rs`) builds one per session: nothing reads it.
/// It is to go together with [`SessionStats::sampler_stalls`] once the
/// benchmark no longer names either.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of shards ([`AttackService`] instances) sessions are spread
    /// over. Unread: a session carries its own shard id.
    pub shards: usize,
}

impl Default for FleetConfig {
    /// One shard.
    fn default() -> Self {
        FleetConfig { shards: 1 }
    }
}

/// Per-session scheduler statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Quanta the scheduler spent on this session (steps taken).
    pub quanta: u64,
    /// Always 0: a session reads one burst per quantum and never buffers
    /// ahead of its pipeline. Kept only because the end-to-end benchmark
    /// reads it.
    pub sampler_stalls: u64,
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

/// One in-process eavesdropping session as a cooperative fleet task.
///
/// Owns its victim [`UiSimulation`] end to end. Each [`Session::step`]
/// runs one quantum: one step of the burst loop behind
/// [`AttackService::eavesdrop`], which reads up to 64 samples and pushes
/// them through the stage pipeline. The outcome is identical to running
/// [`AttackService::eavesdrop`] on the same seeded simulation; only the
/// interleaving with other sessions differs.
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
    quanta: u64,
    /// The session's burst loop, or why it could not open; `None` once the
    /// outcome has been produced.
    driver: Option<Result<LocalDriver<'s>, ServiceError>>,
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
        _config: &FleetConfig,
    ) -> Self {
        let driver = LocalDriver::open(service, &sim, until);
        FleetSession { sim, shard, quanta: 0, driver: Some(driver) }
    }

    /// What this session's frames took from the layer cache and what they
    /// computed.
    pub fn incremental_stats(&self) -> adreno_sim::incremental::IncrementalStats {
        self.sim.incremental_stats()
    }

    /// Wraps up: score and ground truth are extracted *before* the
    /// simulation is dropped, so the outcome is self-contained.
    fn outcome(&mut self, result: Result<SessionResult, ServiceError>) -> SessionOutcome {
        spansight::count("core.fleet.quanta", self.quanta);
        let score = result.as_ref().ok().map(|r| r.score(&self.sim));
        SessionOutcome {
            shard: self.shard,
            result,
            score,
            truth: self.sim.truth().keystrokes(),
            stats: SessionStats { quanta: self.quanta, sampler_stalls: 0 },
        }
    }
}

impl Session for FleetSession<'_> {
    type Outcome = SessionOutcome;

    fn step(&mut self) -> Option<SessionOutcome> {
        self.quanta += 1;
        if let Some(Ok(driver)) = &mut self.driver {
            if !driver.step(&mut self.sim) {
                return None;
            }
        }
        let result = match self.driver.take().expect("a finished fleet session must not be stepped")
        {
            Ok(driver) => driver.finish(&self.sim),
            Err(err) => Err(err),
        };
        Some(self.outcome(result))
    }
}

// `run_sessions` hands each session from worker to worker between turns.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<FleetSession<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::ModelStore;
    use crate::service::ServiceConfig;
    use android_ui::SimConfig;

    fn empty_service() -> AttackService {
        AttackService::new(ModelStore::new(), ServiceConfig::default())
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

    /// Outcomes are identical at any worker count: the scheduler may
    /// interleave differently, but each session owns its world.
    #[test]
    fn outcomes_identical_across_worker_counts() {
        let run = |jobs: usize| -> Vec<SessionOutcome> {
            let service = empty_service();
            let config = FleetConfig::default();
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
