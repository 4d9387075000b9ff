//! Fleet-scale orchestration: thousands of concurrent eavesdropping
//! sessions multiplexed over a bounded worker set.
//!
//! The paper's deployment story is app-store scale — many victim phones,
//! each running the tiny sampler, all feeding classification capacity
//! somewhere else. This experiment runs that shape end to end on the
//! `core::fleet` orchestrator: sessions are cooperative tasks, and each
//! time `minipool`'s ring run queue dequeues one it runs a turn of up to
//! four quanta back to back (so its state is re-warmed in cache once per
//! turn, not once per quantum) before going to the back of the ring.
//! Shards are independent `AttackService`s sharing one hub-trained
//! registry handle (one blob, one decoded model), every third session is
//! split over its own lossy wire link, and a rotating mix of device-fault
//! intensities keeps degraded sessions in the schedule without letting
//! them stall anyone else.
//!
//! Reported per (shards × sessions) row, all in deterministic sim time
//! (byte-identical at any `--jobs`): completion/salvage/failure counts,
//! key accuracy by degradation band, p50/p95/p99 press-to-inference
//! latency, and scheduler quanta. Wall-clock throughput (sessions/s,
//! keys/s) goes to stderr and to the `bench.fleet.*` telemetry counters in
//! `BENCH_experiments.json`.

use adreno_sim::time::SimDuration;
use gpu_sc_attack::fleet::{run_sessions, FleetConfig, FleetSession, Session};
use gpu_sc_attack::metrics::press_latencies_ms;
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::service::AttackService;
use input_bot::corpus::CredentialKind;
use wire::{ExfilConfig, LinkPlan, SplitSessionTask};

use crate::experiments::Ctx;
use crate::report;
use crate::trials::{trial_plan, victim, TrialOptions};

/// Credential length per session — short enough that thousand-session rows
/// stay affordable, long enough to score accuracy meaningfully.
const CREDENTIAL_LEN: usize = 6;

/// Histogram edges (ms of sim time) shared with the telemetry histogram
/// `bench.fleet.press_to_inference_ms`.
const LATENCY_EDGES_MS: &[u64] = &[10, 20, 40, 80, 160, 320, 640];

/// Device-fault intensity cycle for local (in-process) sessions.
const FAULT_MIX: &[f64] = &[0.0, 0.3, 0.0, 0.6, 0.0, 0.9];

/// Link intensity cycle for split (over-the-wire) sessions.
const LINK_MIX: &[f64] = &[0.0, 0.4, 0.8];

/// Every `SPLIT_EVERY`-th session runs split over its own wire link.
const SPLIT_EVERY: usize = 3;

/// A fleet task: an in-process session or a split-over-the-wire one.
/// Boxed: each owns a whole `UiSimulation`, and tasks move through the
/// scheduler's ring.
enum Task<'s> {
    Local(Box<FleetSession<'s>>),
    Split(Box<SplitSessionTask<'s>>),
}

/// What one fleet session contributed to the row, reduced from either
/// outcome shape as soon as the session finishes (on the worker).
struct Done {
    /// Degradation-band label ("clean", "faults 0.6", "link 0.8", …).
    band: &'static str,
    completed: bool,
    /// Split session whose final handshake never landed but whose samples
    /// were salvaged server-side.
    salvaged: bool,
    failed: bool,
    correct_keys: usize,
    total_keys: usize,
    recovered_keys: usize,
    /// Press-to-inference latencies (ms, sim time) of matched presses.
    latencies_ms: Vec<u64>,
    quanta: u64,
}

impl Session for Task<'_> {
    type Outcome = Done;

    fn step(&mut self) -> Option<Done> {
        match self {
            Task::Local(s) => s.step().map(reduce_local),
            Task::Split(s) => s.step().map(reduce_split),
        }
    }
}

/// The degradation band a session index lands in (a pure function of the
/// index, so labels never depend on scheduling).
fn band_of(index: usize) -> &'static str {
    if index % SPLIT_EVERY == SPLIT_EVERY - 1 {
        match LINK_MIX[(index / SPLIT_EVERY) % LINK_MIX.len()] {
            0.0 => "link 0.0",
            0.4 => "link 0.4",
            _ => "link 0.8",
        }
    } else {
        // Non-split indices take the fault cycle in their arrival order.
        match FAULT_MIX[local_ordinal(index) % FAULT_MIX.len()] {
            0.0 => "clean",
            0.3 => "faults 0.3",
            0.6 => "faults 0.6",
            _ => "faults 0.9",
        }
    }
}

/// How many non-split sessions precede `index` — the position of a local
/// session within the fault cycle.
fn local_ordinal(index: usize) -> usize {
    index - index / SPLIT_EVERY
}

/// Reduces a local session's outcome. The band is a placeholder here —
/// it's a pure function of the global session index, which the outcome
/// doesn't carry, so [`run_row`] stamps the real one on afterwards.
fn reduce_local(out: gpu_sc_attack::fleet::SessionOutcome) -> Done {
    let band = "?";
    match out.result {
        Ok(result) => Done {
            band,
            completed: true,
            salvaged: false,
            failed: false,
            correct_keys: out.score.map_or(0, |s| s.correct_keys),
            total_keys: out.truth.len(),
            recovered_keys: result.keys.len(),
            latencies_ms: press_latencies_ms(
                &out.truth,
                result.keys_before_corrections.iter().map(|k| (*k, k.decided_at)),
            ),
            quanta: out.stats.quanta,
        },
        Err(_) => Done {
            band,
            completed: false,
            salvaged: false,
            failed: true,
            correct_keys: 0,
            total_keys: out.truth.len(),
            recovered_keys: 0,
            latencies_ms: Vec::new(),
            quanta: out.stats.quanta,
        },
    }
}

/// Reduces a split session's outcome; band stamped by [`run_row`] as for
/// [`reduce_local`].
fn reduce_split(out: wire::SplitSessionOutcome) -> Done {
    match out.outcome {
        Ok(split) => Done {
            band: "?",
            completed: split.completed,
            salvaged: !split.completed,
            failed: false,
            correct_keys: out.score.map_or(0, |s| s.correct_keys),
            total_keys: out.truth.len(),
            recovered_keys: split.result.keys.len(),
            latencies_ms: press_latencies_ms(&out.truth, split.key_arrivals),
            quanta: out.quanta,
        },
        Err(_) => Done {
            band: "?",
            completed: false,
            salvaged: false,
            failed: true,
            correct_keys: 0,
            total_keys: out.truth.len(),
            recovered_keys: 0,
            latencies_ms: Vec::new(),
            quanta: out.quanta,
        },
    }
}

/// Builds and runs one (shards × sessions) row, returning the per-session
/// reductions in session order.
fn run_row(ctx: &Ctx, shards: usize, sessions: usize, seed: u64) -> Vec<Done> {
    let base = TrialOptions::paper_default(0);

    // Hub/clients split: the hub's registry trains the configuration once;
    // every shard builds its own service (its own ModelStore) from the same
    // registry handle — one encoded blob, one decoded model, shared by all.
    let handle = ctx.registry.get_or_train(base.sim.device, base.sim.keyboard, base.sim.app);
    let services: Vec<AttackService> = (0..shards)
        .map(|_| AttackService::new(ModelStore::from(handle.clone()), base.service.clone()))
        .collect();

    // Every session's input comes from the sequential trial plan, in index
    // order — the determinism idiom every experiment uses.
    let plan = trial_plan(seed, CredentialKind::Password, CREDENTIAL_LEN, sessions);
    let fleet_config = FleetConfig { shards };
    let tasks: Vec<(Task<'_>, &'static str)> = plan
        .into_iter()
        .enumerate()
        .map(|(i, (text, volunteer, session_seed))| {
            let shard = i % shards;
            let split = i % SPLIT_EVERY == SPLIT_EVERY - 1;
            let mut opts = base.clone();
            opts.volunteer = volunteer;
            let fault_intensity = FAULT_MIX[local_ordinal(i) % FAULT_MIX.len()];
            if !split && fault_intensity > 0.0 {
                opts.fault_plan = Some(kgsl::FaultPlan::with_intensity(
                    session_seed ^ 0xFA,
                    fault_intensity,
                    SimDuration::from_secs(8),
                ));
            }
            let (sim, end) = victim(&opts, &text, session_seed);
            let band = band_of(i);
            let task = if split {
                let intensity = LINK_MIX[(i / SPLIT_EVERY) % LINK_MIX.len()];
                let link = if intensity > 0.0 {
                    LinkPlan::with_intensity(session_seed, intensity, SimDuration::from_secs(8))
                } else {
                    LinkPlan::new(session_seed)
                };
                Task::Split(Box::new(SplitSessionTask::new(
                    shard,
                    &services[shard],
                    sim,
                    end,
                    &link,
                    ExfilConfig::default(),
                )))
            } else {
                Task::Local(Box::new(FleetSession::new(
                    shard,
                    &services[shard],
                    sim,
                    end,
                    &fleet_config,
                )))
            };
            (task, band)
        })
        .collect();

    let (tasks, bands): (Vec<Task<'_>>, Vec<&'static str>) = tasks.into_iter().unzip();
    let mut done = run_sessions(&ctx.pool, tasks);
    // The reducers can't see the global session index; stamp the authoritative
    // band (a pure function of the index) on afterwards.
    for (d, band) in done.iter_mut().zip(bands) {
        d.band = band;
    }
    done
}

/// Percentile of a sorted slice (nearest-rank).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// The `fleet` experiment: the session-orchestration matrix over shard
/// counts and fleet sizes with mixed fault/link degradation.
pub fn fleet(ctx: &Ctx) {
    report::section("fleet", "fleet-scale session orchestration (shards × sessions)");
    let small = ctx.trials(100);
    let large = ((1000.0 * ctx.scale).round() as usize).max(small);
    let rows: Vec<(usize, usize)> =
        vec![(1, small), (2, small), (4, small), (2, large), (4, large)];

    for (shards, sessions) in rows {
        let started = std::time::Instant::now();
        let done = run_row(ctx, shards, sessions, 0xF1EE7 ^ (shards as u64) << 32);
        let elapsed = started.elapsed().as_secs_f64();

        let completed = done.iter().filter(|d| d.completed).count();
        let salvaged = done.iter().filter(|d| d.salvaged).count();
        let failed = done.iter().filter(|d| d.failed).count();
        let keys: usize = done.iter().map(|d| d.recovered_keys).sum();
        let quanta: u64 = done.iter().map(|d| d.quanta).sum();

        report::kv(
            format!("-- {shards} shard(s) x {sessions} sessions --").as_str(),
            format!("{completed} completed, {salvaged} salvaged, {failed} failed"),
        );
        report::kv("keys recovered / scheduler quanta", format!("{keys} / {quanta}"));

        // Accuracy by degradation band, in fixed band order.
        for band in
            ["clean", "faults 0.3", "faults 0.6", "faults 0.9", "link 0.0", "link 0.4", "link 0.8"]
        {
            let (correct, total) = done
                .iter()
                .filter(|d| d.band == band)
                .fold((0usize, 0usize), |(c, t), d| (c + d.correct_keys, t + d.total_keys));
            if total > 0 {
                report::bar(
                    format!("key accuracy {band:<10}").as_str(),
                    correct as f64 / total as f64 * 100.0,
                    100.0,
                );
            }
        }

        let mut latencies: Vec<u64> =
            done.iter().flat_map(|d| d.latencies_ms.iter().copied()).collect();
        for &ms in &latencies {
            spansight::record("bench.fleet.press_to_inference_ms", LATENCY_EDGES_MS, ms);
        }
        latencies.sort_unstable();
        if !latencies.is_empty() {
            report::kv(
                "press-to-inference p50 / p95 / p99",
                format!(
                    "{} / {} / {} ms ({} matched presses)",
                    percentile(&latencies, 0.5),
                    percentile(&latencies, 0.95),
                    percentile(&latencies, 0.99),
                    latencies.len()
                ),
            );
        }

        // Wall-clock throughput: real time, so stderr + telemetry only —
        // stdout stays byte-identical across machines and --jobs.
        let sessions_per_sec = sessions as f64 / elapsed.max(1e-9);
        let keys_per_sec = keys as f64 / elapsed.max(1e-9);
        eprintln!(
            "[fleet] {shards} shard(s) x {sessions}: {elapsed:.2}s wall, \
             {sessions_per_sec:.0} sessions/s, {keys_per_sec:.0} keys/s"
        );
        spansight::count("bench.fleet.sessions_completed", completed as u64);
        spansight::count("bench.fleet.keys_recovered", keys as u64);
        spansight::count("bench.fleet.sessions_per_sec", sessions_per_sec as u64);
        spansight::count("bench.fleet.keys_per_sec", keys_per_sec as u64);
    }
    report::kv(
        "expected",
        "accuracy holds on clean/low bands, degrades gracefully at 0.9 faults and 0.8 link; \
         no row stalls on its degraded sessions",
    );
}
