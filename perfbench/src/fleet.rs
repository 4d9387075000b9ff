//! The `fleet` workload: every session of a round resident at once, driven
//! by `run_sessions` over a 2-worker ring, with yardstick reference tasks on
//! the same ring so their slices share its contention.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use adreno_sim::incremental::IncrementalStats;
use adreno_sim::time::SimDuration;
use android_ui::sim::{SimConfig, UiSimulation};
use gpu_sc_attack::fleet::{run_sessions, FleetConfig, FleetSession, Session, SessionOutcome};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::service::{AttackService, LinkDegradationReport, ServiceConfig};
use minipool::Pool;
use wire::{ExfilConfig, LinkPlan, SplitSessionOutcome, SplitSessionTask};

use crate::report::{percentile, Host, Metric, Timed};
use crate::session::{End, Record};
use crate::setup::{Channel, SessionInput, Setup};
use crate::trace::{Layer, Tracer};
use crate::yardstick::{SharedYardstick, Yardstick};
use crate::Checks;

/// Pool workers (the host has 2 vCPUs).
pub const WORKERS: usize = 2;

/// Threads a round may have: the pool's workers and the main thread
/// waiting for them.
const RING_THREADS: u64 = WORKERS as u64 + 1;

/// Shards: independent services sharing one registry handle.
const SHARDS: usize = 2;

/// Yardstick reference tasks, spread evenly through the ring.
const REFERENCE_TASKS: usize = 8;

/// Horizon of the seeded fault and link plans.
const PLAN_HORIZON: SimDuration = SimDuration::from_secs(8);

/// State every task of a round shares.
struct Ring {
    yardstick: SharedYardstick,
    /// Session tasks not yet finished; reference tasks retire at zero.
    remaining: AtomicUsize,
}

enum Job<'s> {
    Local(Box<FleetSession<'s>>),
    Split(Box<SplitSessionTask<'s>>),
    Reference,
}

/// A ring task: a session or a reference task, with its step accounting.
struct Task<'s, 'r> {
    job: Job<'s>,
    ring: &'r Ring,
    traced: bool,
    busy_ns: u64,
    last_end: Option<Instant>,
    /// Traced rounds only: gaps between consecutive steps, and step spans.
    waits_ns: Vec<u64>,
    spans: Vec<(Instant, Instant)>,
}

enum Raw {
    Local(Box<SessionOutcome>, IncrementalStats),
    Split(Box<SplitSessionOutcome>),
}

/// What a session task hands back when it retires.
struct Finished {
    raw: Raw,
    busy_ns: u64,
    waits_ns: Vec<u64>,
    spans: Vec<(Instant, Instant)>,
}

impl Session for Task<'_, '_> {
    type Outcome = Option<Finished>;

    fn step(&mut self) -> Option<Option<Finished>> {
        let start = Instant::now();
        let raw = match &mut self.job {
            Job::Reference => {
                if self.ring.remaining.load(Ordering::SeqCst) == 0 {
                    return Some(None);
                }
                self.ring.yardstick.tick();
                return None;
            }
            Job::Local(s) => s.step().map(|out| Raw::Local(Box::new(out), s.incremental_stats())),
            Job::Split(s) => s.step().map(|out| Raw::Split(Box::new(out))),
        };
        let end = Instant::now();
        self.busy_ns += (end - start).as_nanos() as u64;
        if self.traced {
            if let Some(prev) = self.last_end {
                self.waits_ns.push((start - prev).as_nanos() as u64);
            }
            self.spans.push((start, end));
        }
        self.last_end = Some(end);
        let raw = raw?;
        self.ring.remaining.fetch_sub(1, Ordering::SeqCst);
        Some(Some(Finished {
            raw,
            busy_ns: self.busy_ns,
            waits_ns: std::mem::take(&mut self.waits_ns),
            spans: std::mem::take(&mut self.spans),
        }))
    }
}

/// A session's reduced outcome plus its scheduler accounting.
pub struct Done {
    pub record: Record,
    pub split: bool,
    pub quanta: u64,
    pub stalls: u64,
    pub incremental: IncrementalStats,
    pub busy_ns: u64,
    waits_ns: Vec<u64>,
    spans: Vec<(Instant, Instant)>,
}

fn reduce(f: Finished) -> Done {
    match f.raw {
        Raw::Local(out, incremental) => {
            let text = format!("{:?} {:?} {:?}", out.result, out.score, out.stats);
            let (end, keys, degradation) = match &out.result {
                Ok(r) => (End::Ok, r.keys_before_corrections.clone(), r.degradation),
                Err(_) => (End::Failed, Vec::new(), Default::default()),
            };
            Done {
                record: Record::new(
                    &text,
                    end,
                    &out.truth,
                    keys.into_iter().map(|k| (k, k.decided_at)),
                    out.score.map_or(0, |s| s.correct_keys),
                    out.score.is_some_and(|s| s.text_exact),
                    degradation,
                    LinkDegradationReport::default(),
                ),
                split: false,
                quanta: out.stats.quanta,
                stalls: out.stats.sampler_stalls,
                incremental,
                busy_ns: f.busy_ns,
                waits_ns: f.waits_ns,
                spans: f.spans,
            }
        }
        Raw::Split(out) => {
            let text = format!("{:?} {:?} {}", out.outcome, out.score, out.quanta);
            let (end, arrivals, degradation, link) = match out.outcome {
                Ok(split) => (
                    if split.completed { End::Ok } else { End::Salvaged },
                    split.key_arrivals,
                    split.result.degradation,
                    split.result.link,
                ),
                Err(_) => (End::Failed, Vec::new(), Default::default(), Default::default()),
            };
            Done {
                record: Record::new(
                    &text,
                    end,
                    &out.truth,
                    arrivals.into_iter(),
                    out.score.map_or(0, |s| s.correct_keys),
                    out.score.is_some_and(|s| s.text_exact),
                    degradation,
                    link,
                ),
                split: true,
                quanta: out.quanta,
                stalls: 0,
                incremental: IncrementalStats::default(),
                busy_ns: f.busy_ns,
                waits_ns: f.waits_ns,
                spans: f.spans,
            }
        }
    }
}

/// One round: every input resident at once, driven to completion.
pub struct Round {
    pub done: Vec<Done>,
    /// Building the sessions plus driving them, ns.
    pub wall_ns: u64,
    /// Driving them (`run_sessions`), ns.
    pub drive_ns: u64,
    pub yardstick: Yardstick,
}

impl Round {
    /// Host time the round's sessions had: wall time less the worker time
    /// the reference slices took.
    pub fn measured_ns(&self) -> u64 {
        self.wall_ns - self.yardstick.slice_ns() / WORKERS as u64
    }
}

/// One shard service per shard, all sharing the victims' registry handle
/// (one blob, one decoded model), as the `fleet` experiment does.
pub fn services(setup: &Setup) -> Vec<AttackService> {
    (0..SHARDS)
        .map(|_| {
            let mut store = ModelStore::new();
            store.add_handle(setup.models.victim.clone());
            AttackService::new(store, ServiceConfig::default())
        })
        .collect()
}

fn task<'s, 'r>(
    i: usize,
    input: &SessionInput,
    services: &'s [AttackService],
    ring: &'r Ring,
    traced: bool,
) -> Task<'s, 'r> {
    let shard = i % SHARDS;
    let mut sim =
        UiSimulation::new(SimConfig { seed: input.sim_seed, ..SimConfig::paper_default(0) });
    sim.queue_all(input.events.iter().copied());
    let job = match input.channel {
        Channel::Split { link } => {
            let plan = if link > 0.0 {
                LinkPlan::with_intensity(input.sim_seed, link, PLAN_HORIZON)
            } else {
                LinkPlan::new(input.sim_seed)
            };
            let service = &services[shard];
            Job::Split(Box::new(SplitSessionTask::new(
                shard,
                service,
                sim,
                input.end,
                &plan,
                ExfilConfig::default(),
            )))
        }
        Channel::Local { faults } => {
            if faults > 0.0 {
                sim.device().install_fault_plan(&kgsl::FaultPlan::with_intensity(
                    input.sim_seed ^ 0xFA,
                    faults,
                    PLAN_HORIZON,
                ));
            }
            let config = FleetConfig { shards: SHARDS, ..FleetConfig::default() };
            Job::Local(Box::new(FleetSession::new(
                shard,
                &services[shard],
                sim,
                input.end,
                &config,
            )))
        }
    };
    Task { job, ring, traced, busy_ns: 0, last_end: None, waits_ns: Vec::new(), spans: Vec::new() }
}

/// Builds every session of `inputs` plus the reference tasks and drives
/// them all on a `WORKERS`-worker pool.
pub fn round(inputs: &[SessionInput], services: &[AttackService], traced: bool) -> Round {
    let pool = Pool::new(WORKERS);
    let ring = Ring {
        yardstick: SharedYardstick::new(RING_THREADS),
        remaining: AtomicUsize::new(inputs.len()),
    };
    let start = Instant::now();
    let every = inputs.len().div_ceil(REFERENCE_TASKS).max(1);
    let mut tasks = Vec::with_capacity(inputs.len() + REFERENCE_TASKS);
    for (i, input) in inputs.iter().enumerate() {
        if i % every == 0 {
            tasks.push(Task {
                job: Job::Reference,
                ring: &ring,
                traced: false,
                busy_ns: 0,
                last_end: None,
                waits_ns: Vec::new(),
                spans: Vec::new(),
            });
        }
        tasks.push(task(i, input, services, &ring, traced));
    }
    let driving = Instant::now();
    let finished = run_sessions(&pool, tasks);
    let end = Instant::now();
    let Ring { yardstick, .. } = ring;
    Round {
        done: finished.into_iter().flatten().map(reduce).collect(),
        wall_ns: (end - start).as_nanos() as u64,
        drive_ns: (end - driving).as_nanos() as u64,
        yardstick: yardstick.into_inner(),
    }
}

/// What an untraced fleet run measured.
pub struct Measured {
    /// Records of the first round, in input order.
    pub first: Vec<Record>,
    /// Sessions run, over every round.
    pub attempted: usize,
    /// Per-session host time (its steps' wall time, summed), every round,
    /// with its round's kernel rate.
    pub sessions: Vec<Timed>,
    /// True victim keystrokes, every round.
    pub keys: u64,
    /// [`Round::measured_ns`] of each round, with its kernel rate.
    pub rounds: Vec<Timed>,
    pub yardstick: Yardstick,
}

fn check_round(checks: &mut Checks, first: &[Record], round: &Round, n: usize) {
    checks.expect(round.done.len() == first.len(), || format!("round {n} lost sessions"));
    for (i, (a, b)) in first.iter().zip(&round.done).enumerate() {
        checks.expect_session(a == &b.record, || format!("round {n}: session {i} changed outcome"));
    }
}

/// The untraced measurement: rounds over the same inputs until `seconds`
/// have passed (at least two, so every run checks a repeat). Every round
/// must reproduce the first round's records.
pub fn measure(setup: &Setup, seconds: Duration, checks: &mut Checks) -> Measured {
    let services = services(setup);
    let mut yardstick = Yardstick::new(RING_THREADS);
    let mut first: Vec<Record> = Vec::new();
    let (mut attempted, mut keys) = (0, 0);
    let (mut sessions, mut rounds_timed) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed() < seconds {
        let round = round(&setup.inputs, &services, false);
        if rounds == 0 {
            first = round.done.iter().map(|d| d.record.clone()).collect();
        } else {
            check_round(checks, &first, &round, rounds + 1);
        }
        attempted += round.done.len();
        keys += round.done.iter().map(|d| d.record.true_keys as u64).sum::<u64>();
        let rate = round.yardstick.rate();
        sessions.extend(round.done.iter().map(|d| Timed { ns: d.busy_ns, rate }));
        rounds_timed.push(Timed { ns: round.measured_ns(), rate });
        yardstick.absorb(round.yardstick);
        rounds += 1;
    }
    Measured { first, attempted, sessions, keys, rounds: rounds_timed, yardstick }
}

/// Totals of a traced fleet run.
pub struct Traced {
    pub sessions: usize,
    pub untraced_step_ns: u64,
    pub traced_step_ns: u64,
    pub untraced_wall_ns: u64,
    pub traced_wall_ns: u64,
    pub traced_drive_ns: u64,
    pub waits_ns: Vec<u64>,
    pub local: Vec<Done>,
    pub split: Vec<Done>,
    pub rss_after_first_kib: u64,
    pub yardstick: Yardstick,
}

/// The traced run: pairs of rounds over the same inputs, the first
/// untraced (the reference), the second with every step wrapped in a span
/// by session kind; both must give identical records.
pub fn trace(setup: &Setup, seconds: Duration, tracer: &mut Tracer, checks: &mut Checks) -> Traced {
    let services = services(setup);
    let mut t = Traced {
        sessions: 0,
        untraced_step_ns: 0,
        traced_step_ns: 0,
        untraced_wall_ns: 0,
        traced_wall_ns: 0,
        traced_drive_ns: 0,
        waits_ns: Vec::new(),
        local: Vec::new(),
        split: Vec::new(),
        rss_after_first_kib: 0,
        yardstick: Yardstick::new(RING_THREADS),
    };
    let start = Instant::now();
    let mut pairs = 0;
    while pairs == 0 || start.elapsed() < seconds {
        let reference = round(&setup.inputs, &services, false);
        if pairs == 0 {
            t.rss_after_first_kib = crate::report::peak_rss_kib();
        }
        let root = tracer.open(Layer::Round, pairs);
        let traced = round(&setup.inputs, &services, true);
        let first: Vec<Record> = reference.done.iter().map(|d| d.record.clone()).collect();
        check_round(checks, &first, &traced, 2 * pairs as usize + 2);
        t.untraced_step_ns += reference.done.iter().map(|d| d.busy_ns).sum::<u64>();
        t.traced_step_ns += traced.done.iter().map(|d| d.busy_ns).sum::<u64>();
        t.untraced_wall_ns += reference.wall_ns;
        t.traced_wall_ns += traced.wall_ns;
        t.traced_drive_ns += traced.drive_ns;
        t.yardstick.absorb(reference.yardstick);
        t.yardstick.absorb(traced.yardstick);
        for (i, mut d) in traced.done.into_iter().enumerate() {
            let layer = if d.split { Layer::WireStep } else { Layer::FleetStep };
            for (s, e) in d.spans.drain(..) {
                tracer.leaf(layer, i as u32, s, e);
            }
            t.waits_ns.append(&mut d.waits_ns);
            t.sessions += 1;
            if d.split {
                t.split.push(d);
            } else {
                t.local.push(d);
            }
        }
        tracer.close(root);
        pairs += 1;
    }
    t
}

/// Per-layer metrics of a traced fleet run.
pub fn layer_metrics(t: &Traced, tracer: &Tracer, host: &Host, resident: usize) -> Vec<Metric> {
    let totals = tracer.totals();
    let per_step = |l: Layer| totals.self_ns(l) as f64 / totals.spans(l).max(1) as f64;
    let local = t.local.len().max(1) as f64;
    let split = t.split.len().max(1) as f64;
    let sum_local = |f: fn(&Done) -> u64| t.local.iter().map(f).sum::<u64>() as f64;
    let sum_split = |f: fn(&Done) -> u64| t.split.iter().map(f).sum::<u64>() as f64;
    let split_keys = sum_split(|d| d.record.true_keys as u64);
    let sent = sum_split(|d| d.record.link.bytes_sent);
    let mut incremental = IncrementalStats::default();
    for d in &t.local {
        incremental.merge(&d.incremental);
    }
    let waits: Vec<f64> = t.waits_ns.iter().map(|&w| w as f64 / 1e3).collect();
    let wait_pct = |q: f64| if waits.is_empty() { 0.0 } else { percentile(&waits, q) };
    vec![
        Metric::plain(
            "adreno-sim.dirty_layers_per_session",
            "count",
            incremental.layers_dirty as f64 / local,
        ),
        Metric::plain(
            "adreno-sim.prims_recomputed_per_session",
            "count",
            incremental.prims_recomputed as f64 / local,
        ),
        Metric::plain(
            "adreno-sim.reuse_ratio",
            "fraction",
            incremental.identical_frames as f64 / incremental.frames.max(1) as f64,
        ),
        Metric::plain(
            "kgsl.retries_per_session",
            "count",
            sum_local(|d| d.record.degradation.retries_spent) / local,
        ),
        Metric::plain(
            "kgsl.reads_lost_per_session",
            "count",
            sum_local(|d| d.record.degradation.reads_lost) / local,
        ),
        Metric::plain(
            "kgsl.fd_reopens_per_session",
            "count",
            sum_local(|d| d.record.degradation.fd_reopens) / local,
        ),
        Metric::time("core.fleet.step_ns_per_quantum", "ns", per_step(Layer::FleetStep), host),
        Metric::plain("core.fleet.quanta_per_session", "count", sum_local(|d| d.quanta) / local),
        Metric::plain("core.fleet.stalls_per_session", "count", sum_local(|d| d.stalls) / local),
        Metric::time("wire.step_ns_per_quantum", "ns", per_step(Layer::WireStep), host),
        Metric::plain("wire.quanta_per_session", "count", sum_split(|d| d.quanta) / split),
        Metric::plain("wire.bytes_sent_per_key", "bytes", sent / split_keys.max(1.0)),
        Metric::plain(
            "wire.ack_ratio",
            "fraction",
            sum_split(|d| d.record.link.bytes_acked) / sent.max(1.0),
        ),
        Metric::plain(
            "wire.retransmits_per_session",
            "count",
            sum_split(|d| d.record.link.retransmits) / split,
        ),
        Metric::plain(
            "wire.salvaged_frac",
            "fraction",
            t.split.iter().filter(|d| d.record.end == End::Salvaged).count() as f64 / split,
        ),
        Metric::plain(
            "minipool.busy_share",
            "fraction",
            t.traced_step_ns as f64 / (WORKERS as f64 * t.traced_drive_ns as f64),
        ),
        Metric::time("minipool.quantum_wait_us_p50", "us", wait_pct(0.5), host),
        Metric::time("minipool.quantum_wait_us_p99", "us", wait_pct(0.99), host),
        Metric::plain(
            "fleet.rss_kb_per_session",
            "KiB",
            t.rss_after_first_kib as f64 / resident as f64,
        ),
        Metric::plain(
            "trace.coverage",
            "ratio",
            t.traced_step_ns as f64 / t.untraced_step_ns as f64,
        ),
        Metric::plain(
            "trace.overhead",
            "ratio",
            t.traced_wall_ns as f64 / t.untraced_wall_ns as f64,
        ),
    ]
}
