//! The `login` and `pnc` workloads: a closed loop with one client, one
//! `AttackService::eavesdrop` at a time on one thread.

use std::time::{Duration, Instant};

use adreno_sim::time::SimInstant;
use android_ui::sim::{SimConfig, UiSimulation};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::sampler::Sampler;
use gpu_sc_attack::service::{
    AttackService, LinkDegradationReport, ServiceConfig, ServiceError, SessionResult,
};
use gpu_sc_attack::trace::{extract_deltas_with_resets, Sample};
use gpu_sc_attack::SessionScore;

use crate::report::{Host, Metric, Timed};
use crate::session::{End, Record};
use crate::setup::{SessionInput, Setup};
use crate::trace::{Layer, LayerTotals, Tracer};
use crate::yardstick::{rate_between, thread_cpu_ns, Yardstick};
use crate::{Checks, Workload};

/// Samples per `push_samples` burst when analysing a recorded trace — the
/// capacity of the SPSC ring `eavesdrop` drains into the pipeline.
const BURST: usize = 64;

/// Sessions re-run after the measurement to check they repeat exactly.
const REPEATS: usize = 4;

/// Fewest sessions a traced run analyses, however short `--seconds` is.
const MIN_TRACED: usize = 20;

fn service(setup: &Setup) -> AttackService {
    let mut store = ModelStore::new();
    store.add_handle(setup.models.victim.clone());
    AttackService::new(store, ServiceConfig::default())
}

fn victim(workload: Workload, input: &SessionInput) -> UiSimulation {
    let mut sim = UiSimulation::new(SimConfig {
        seed: input.sim_seed,
        app: workload.app(),
        ..SimConfig::paper_default(0)
    });
    sim.queue_all(input.events.iter().copied());
    sim
}

/// One untimed-bookkeeping session result: the result, its score and the
/// ground-truth presses.
struct Eavesdropped {
    result: Result<SessionResult, ServiceError>,
    score: Option<SessionScore>,
    truth: Vec<(SimInstant, char)>,
}

/// Runs one session end to end: build the victim, eavesdrop, score.
fn eavesdrop(service: &AttackService, workload: Workload, input: &SessionInput) -> Eavesdropped {
    let mut sim = victim(workload, input);
    let result = service.eavesdrop(&mut sim, input.end);
    let score = result.as_ref().ok().map(|r| r.score(&sim));
    let truth = sim.truth().keystrokes();
    Eavesdropped { result, score, truth }
}

fn record(e: &Eavesdropped) -> Record {
    let outcome = format!("{:?} {:?}", e.result, e.score);
    let (end, keys, degradation) = match &e.result {
        Ok(r) => (End::Ok, r.keys_before_corrections.clone(), r.degradation),
        Err(_) => (End::Failed, Vec::new(), Default::default()),
    };
    Record::new(
        &outcome,
        end,
        &e.truth,
        keys.into_iter().map(|k| (k, k.decided_at)),
        e.score.map_or(0, |s| s.correct_keys),
        e.score.is_some_and(|s| s.text_exact),
        degradation,
        LinkDegradationReport::default(),
    )
}

/// What an untraced run measured.
pub struct Measured {
    /// Records of the first pass over the inputs, in input order.
    pub records: Vec<Record>,
    /// Sessions timed (every pass).
    pub attempted: usize,
    /// Thread CPU time of each timed session, with the kernel rate of the
    /// slices bracketing it.
    pub sessions: Vec<Timed>,
    /// True victim keystrokes over every timed session.
    pub keys: u64,
    pub yardstick: Yardstick,
}

/// The untraced measurement: cycles through the inputs until `seconds`
/// have passed, at least one full pass is done and at least `min_sessions`
/// sessions are timed. Repeated inputs must reproduce their first record.
///
/// A session's host time is its thread CPU time: the closed loop runs on
/// one thread, so wall time adds only the host's preemptions, which land
/// on random sessions and would make the tail a measure of the neighbours.
pub fn measure(
    workload: Workload,
    setup: &Setup,
    seconds: Duration,
    min_sessions: usize,
    checks: &mut Checks,
) -> Measured {
    let service = service(setup);
    let inputs = &setup.inputs;
    let mut ys = Yardstick::new(1);
    let mut records: Vec<Record> = Vec::with_capacity(inputs.len());
    // (CPU ns, index of the last slice before the session) per session.
    let mut timed: Vec<(u64, usize)> = Vec::new();
    let mut keys = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while i < inputs.len().max(min_sessions) || start.elapsed() < seconds {
        ys.tick();
        let input = &inputs[i % inputs.len()];
        let t0 = thread_cpu_ns();
        let e = eavesdrop(&service, workload, input);
        timed.push((thread_cpu_ns() - t0, ys.len() - 1));
        keys += e.truth.len() as u64;
        let rec = record(&e);
        match records.get(i % inputs.len()) {
            Some(first) => checks.expect_session(first == &rec, || {
                format!(
                    "input {} changed outcome on pass {}",
                    i % inputs.len(),
                    i / inputs.len() + 1
                )
            }),
            None => records.push(rec),
        }
        i += 1;
    }
    ys.close();
    for (k, first) in records.iter().take(REPEATS).enumerate() {
        let again = record(&eavesdrop(&service, workload, &inputs[k]));
        checks.expect_session(first == &again, || format!("input {k} did not repeat its outcome"));
    }
    let rates = ys.rates();
    let sessions =
        timed.iter().map(|&(ns, k)| Timed { ns, rate: rate_between(&rates, k) }).collect();
    Measured { records, attempted: i, sessions, keys, yardstick: ys }
}

/// Per-layer totals of a traced run.
pub struct Traced {
    pub sessions: usize,
    pub true_keys: u64,
    pub samples: u64,
    /// Untraced `eavesdrop` host time of the traced sessions, ns.
    pub untraced_ns: u64,
    /// Host time of the traced decomposition (tap, replay, analysis,
    /// extraction), ns.
    pub traced_ns: u64,
    pub open_ns: u64,
    pub frames: u64,
    pub incremental: adreno_sim::incremental::IncrementalStats,
    pub deltas: u64,
    pub keys_inferred: u64,
    pub stats: gpu_sc_attack::InferenceStats,
    pub degradation: Vec<gpu_sc_attack::service::DegradationReport>,
    pub layers: LayerTotals,
    pub yardstick: Yardstick,
}

/// The traced run. For each session it (1) runs the untraced `eavesdrop` as
/// the reference, (2) records the session's trace with
/// `Sampler::sample_until`, (3) replays the recorded read instants on a
/// fresh victim, timing `advance_to` and `read_once` apart and checking
/// every read against the recording, (4) analyses the recorded trace with a
/// streaming session in 64-sample bursts and checks the result equals the
/// reference, and (5) times `extract_deltas_with_resets` on the trace.
pub fn trace(
    workload: Workload,
    setup: &Setup,
    seconds: Duration,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Traced {
    let service = service(setup);
    let config = service.config().sampler;
    let inputs = &setup.inputs;
    let mut ys = Yardstick::new(1);
    let mut t = Traced {
        sessions: 0,
        true_keys: 0,
        samples: 0,
        untraced_ns: 0,
        traced_ns: 0,
        open_ns: 0,
        frames: 0,
        incremental: Default::default(),
        deltas: 0,
        keys_inferred: 0,
        stats: Default::default(),
        degradation: Vec::new(),
        layers: LayerTotals::default(),
        yardstick: Yardstick::new(1),
    };
    let start = Instant::now();
    while t.sessions < MIN_TRACED || start.elapsed() < seconds {
        ys.tick();
        let id = t.sessions as u32;
        let input = &inputs[t.sessions % inputs.len()];

        let t0 = Instant::now();
        let reference = eavesdrop(&service, workload, input);
        t.untraced_ns += t0.elapsed().as_nanos() as u64;
        t.true_keys += reference.truth.len() as u64;

        let t1 = Instant::now();
        let root = tracer.open(Layer::Session, id);

        let tap = tracer.open(Layer::Tap, id);
        let mut recorded = victim(workload, input);
        let mut sampler = Sampler::open(recorded.device(), config).expect("a clean device opens");
        let trace = sampler.sample_until(&mut recorded, input.end).expect("a clean device reads");
        let report = sampler.report();
        let samples: Vec<Sample> = trace.iter().collect();
        tracer.close(tap);

        let span = tracer.open(Layer::AndroidUi, id);
        let mut replay = victim(workload, input);
        tracer.close(span);
        let open = tracer.open(Layer::KgslOpen, id);
        let mut reader = Sampler::open(replay.device(), config).expect("a clean device opens");
        t.open_ns += tracer.close(open);
        for s in &samples {
            let span = tracer.open(Layer::AndroidUi, id);
            replay.advance_to(s.at);
            tracer.close(span);
            let span = tracer.open(Layer::Kgsl, id);
            let values = reader.read_once(replay.device());
            tracer.close(span);
            checks.expect(values.as_ref().ok() == Some(&s.values), || {
                format!("session {id}: replayed read at {:?} differs from the recording", s.at)
            });
        }
        t.frames += replay.frames_submitted();
        t.incremental.merge(&replay.incremental_stats());

        let span = tracer.open(Layer::Analysis, id);
        let mut session = service.streaming_session();
        for burst in samples.chunks(BURST) {
            session.push_samples(burst);
        }
        let result = session.finish(&report);
        tracer.close(span);
        checks.expect_session(result == reference.result, || {
            format!("session {id}: streaming the recorded trace differs from eavesdrop")
        });

        let span = tracer.open(Layer::Extract, id);
        let (deltas, _resets) = extract_deltas_with_resets(&trace);
        tracer.close(span);

        tracer.close(root);
        t.traced_ns += t1.elapsed().as_nanos() as u64;

        t.samples += samples.len() as u64;
        t.deltas += deltas.len() as u64;
        if let Ok(r) = &result {
            t.keys_inferred += r.keys_before_corrections.len() as u64;
            t.stats.direct += r.stats.direct;
            t.stats.peeled += r.stats.peeled;
            t.stats.splits_recovered += r.stats.splits_recovered;
            t.stats.duplications_suppressed += r.stats.duplications_suppressed;
            t.stats.noise += r.stats.noise;
            t.degradation.push(r.degradation);
        }
        t.sessions += 1;
    }
    ys.close();
    t.layers = tracer.totals();
    t.yardstick = ys;
    t
}

/// Per-layer metrics of a traced serial run.
pub fn layer_metrics(t: &Traced, host: &Host) -> Vec<Metric> {
    let n = t.sessions as f64;
    let reads = t.samples as f64;
    let ns = |l: Layer| t.layers.self_ns(l) as f64;
    let deg = |f: fn(&gpu_sc_attack::service::DegradationReport) -> u64| {
        t.degradation.iter().map(f).sum::<u64>() as f64 / n
    };
    let covered =
        ns(Layer::AndroidUi) + ns(Layer::Kgsl) + ns(Layer::KgslOpen) + ns(Layer::Analysis);
    vec![
        Metric::time("android-ui.advance_ns_per_read", "ns", ns(Layer::AndroidUi) / reads, host),
        Metric::plain("android-ui.frames_per_session", "count", t.frames as f64 / n),
        Metric::plain(
            "adreno-sim.dirty_layers_per_session",
            "count",
            t.incremental.layers_dirty as f64 / n,
        ),
        Metric::plain(
            "adreno-sim.prims_recomputed_per_session",
            "count",
            t.incremental.prims_recomputed as f64 / n,
        ),
        Metric::plain(
            "adreno-sim.reuse_ratio",
            "fraction",
            t.incremental.identical_frames as f64 / t.incremental.frames.max(1) as f64,
        ),
        Metric::time("kgsl.read_ns", "ns", ns(Layer::Kgsl) / reads, host),
        Metric::time("kgsl.open_us", "us", t.open_ns as f64 / 1e3 / n, host),
        Metric::plain("kgsl.reads_per_session", "count", reads / n),
        Metric::plain("kgsl.retries_per_session", "count", deg(|d| d.retries_spent)),
        Metric::plain("kgsl.reads_lost_per_session", "count", deg(|d| d.reads_lost)),
        Metric::plain("kgsl.fd_reopens_per_session", "count", deg(|d| d.fd_reopens)),
        Metric::time("core.analysis_ns_per_sample", "ns", ns(Layer::Analysis) / reads, host),
        Metric::time(
            "core.analysis_us_per_key",
            "us",
            ns(Layer::Analysis) / 1e3 / t.true_keys as f64,
            host,
        ),
        Metric::time("core.extract_ns_per_sample", "ns", ns(Layer::Extract) / reads, host),
        Metric::plain("core.deltas_per_session", "count", t.deltas as f64 / n),
        Metric::plain(
            "core.keys_per_delta",
            "ratio",
            t.keys_inferred as f64 / t.deltas.max(1) as f64,
        ),
        Metric::plain("core.noise_per_session", "count", t.stats.noise as f64 / n),
        Metric::plain("core.dups_per_session", "count", t.stats.duplications_suppressed as f64 / n),
        Metric::plain("core.splits_per_session", "count", t.stats.splits_recovered as f64 / n),
        Metric::plain("trace.coverage", "ratio", covered / t.untraced_ns as f64),
        Metric::plain("trace.overhead", "ratio", t.traced_ns as f64 / t.untraced_ns as f64),
    ]
}
