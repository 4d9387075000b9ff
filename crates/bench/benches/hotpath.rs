//! Micro-benchmarks of the hot-path kernels, pairing each optimised stage
//! with a reference implementation *in the same binary and run*:
//!
//! * nearest-centroid classification — naive full-distance scan, the
//!   PR 5-era scalar pruned scan (retained verbatim below), and the current
//!   pre-whitened `simdlite` kernel scan with the norm-gap prescreen;
//! * batched classification — per-delta `classify` calls vs one row-outer
//!   `classify_batch` pass over the same burst;
//! * the threshold-bounded scan on the probes Algorithm 1 sends on a
//!   recorded Chase session (changes, the peel residuals the pretest lets
//!   through, split sums) vs the unbounded scan followed by the `C_th`
//!   test;
//! * the sampling read loop — per-read allocated request vector vs the
//!   sampler's reusable scratch buffer.
//!
//! The references are compiled into this bench rather than compared against
//! recorded numbers because the host measurably drifts between runs; only
//! same-run ratios are trustworthy. Optimised/reference pairs are
//! semantically equivalent (pinned by proptests in
//! `crates/core/tests/proptests.rs`; the threshold-bounded scan is also
//! asserted decision-equal to its reference right here).

use adreno_sim::counters::{CounterSet, ALL_TRACKED, NUM_TRACKED};
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::sim::SimConfig;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_sc_attack::online::{infer_stream, MAX_SPLIT_GAP, T_L};
use gpu_sc_attack::registry::Registry;
use gpu_sc_attack::sampler::{Sampler, SamplerConfig};
use gpu_sc_attack::trace::{extract_deltas, Delta};
use gpu_sc_attack::{BatchScratch, Classification, ClassifierModel};
use input_bot::script::Typist;
use input_bot::timing::VOLUNTEERS;
use kgsl::abi::{IoctlRequest, KgslPerfcounterReadGroup, IOCTL_KGSL_PERFCOUNTER_READ};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trained_model() -> ClassifierModel {
    let cfg = SimConfig::paper_default(0);
    Registry::default().get_or_train(cfg.device, cfg.keyboard, cfg.app).model().clone()
}

/// Mixed probe workload shaped like the deltas a live session actually
/// feeds the classifier (§5.1): per key, one clean popup frame (accept),
/// one ambient redraw (a field-echo frame from the model's own signature
/// table — the cursor-blink/redraw rejects that dominate idle typing), one
/// merged frame (popup + ambient sharing a vsync window, rejected by the
/// magnitude gate), and one split frame (roughly half a popup caught by a
/// read boundary, rejected on distance).
fn probe_workload(model: &ClassifierModel) -> Vec<CounterSet> {
    let ambients = model.ambient_signatures();
    let mut probes = Vec::new();
    for (i, c) in model.centroids().iter().enumerate() {
        probes.push(c.values); // accept: clean key frame
        let ambient =
            if ambients.is_empty() { *model.app_signature() } else { ambients[i % ambients.len()] };
        probes.push(ambient); // reject: ambient redraw
        let mut merged = *c.values.as_array();
        for (m, a) in merged.iter_mut().zip(ambient.as_array()) {
            *m += a;
        }
        probes.push(CounterSet::from_array(merged)); // reject: merged frame
        let split = c.values.as_array().map(|v| v / 2);
        probes.push(CounterSet::from_array(split)); // reject: split frame
    }
    probes
}

/// The PR 5-era classifier hot path, retained verbatim as the same-run
/// baseline: row-major `f64` centroid copies (not pre-whitened), a scalar
/// `((a - b) * w)²` accumulation with per-element early exit, and the same
/// telemetry wrapper `classify` carried then. Only the kernel generation
/// differs from `ClassifierModel::classify`; the algorithm (nearest
/// centroid within `C_th`, magnitude gate) is the same.
struct Pr5Classifier {
    rows: Vec<f64>,
    weights: [f64; NUM_TRACKED],
    threshold: f64,
    gate_totals: Vec<f64>,
    chars: Vec<char>,
}

impl Pr5Classifier {
    fn from_model(model: &ClassifierModel) -> Self {
        let mut rows = Vec::with_capacity(model.centroids().len() * NUM_TRACKED);
        for c in model.centroids() {
            rows.extend(c.values.as_array().iter().map(|&v| v as f64));
        }
        let gate_totals = model
            .centroids()
            .iter()
            .map(|c| {
                model
                    .centroids()
                    .iter()
                    .find(|o| o.ch == c.ch)
                    .map(|o| o.values.total())
                    .unwrap_or(0) as f64
            })
            .collect();
        Pr5Classifier {
            rows,
            weights: *model.weights(),
            threshold: model.threshold(),
            gate_totals,
            chars: model.centroids().iter().map(|c| c.ch).collect(),
        }
    }

    fn nearest_pruned(&self, v: &CounterSet) -> (usize, f64) {
        let av = v.to_f64();
        let mut best = (0usize, f64::INFINITY);
        let mut best_acc = f64::INFINITY;
        'candidates: for (idx, row) in self.rows.chunks_exact(NUM_TRACKED).enumerate() {
            let mut acc = 0.0;
            for i in 0..NUM_TRACKED {
                let d = (av[i] - row[i]) * self.weights[i];
                acc += d * d;
                if acc >= best_acc {
                    continue 'candidates;
                }
            }
            let d = acc.sqrt();
            if d < best.1 {
                best = (idx, d);
                best_acc = acc;
            }
        }
        best
    }

    fn classify(&self, v: &CounterSet) -> (char, bool) {
        let started = std::time::Instant::now();
        let (idx, distance) = self.nearest_pruned(v);
        let ch = self.chars[idx];
        let accepted = if distance <= self.threshold {
            let centroid_total = self.gate_totals[idx];
            let total = v.total() as f64;
            centroid_total > 0.0
                && (total - centroid_total).abs()
                    <= centroid_total * ClassifierModel::MAGNITUDE_TOLERANCE
        } else {
            false
        };
        spansight::record(
            "core.classify.latency_ns",
            gpu_sc_attack::online::CLASSIFY_LATENCY_EDGES,
            started.elapsed().as_nanos() as u64,
        );
        spansight::count(
            if accepted { "core.classify.accepted" } else { "core.classify.rejected" },
            1,
        );
        (ch, accepted)
    }
}

fn bench_classify_naive_vs_pruned(c: &mut Criterion) {
    let model = trained_model();
    let probes = probe_workload(&model);
    c.bench_function("classify/naive_full_scan", |b| {
        b.iter(|| {
            for v in &probes {
                black_box(model.classify_naive(black_box(v)));
            }
        })
    });
    let pr5 = Pr5Classifier::from_model(&model);
    c.bench_function("classify/pr5_scalar_pruned_reference", |b| {
        b.iter(|| {
            for v in &probes {
                black_box(pr5.classify(black_box(v)));
            }
        })
    });
    c.bench_function("classify/pruned_prepared_centroids", |b| {
        b.iter(|| {
            for v in &probes {
                black_box(model.classify(black_box(v)));
            }
        })
    });
}

fn bench_classify_batch_vs_per_delta(c: &mut Criterion) {
    let model = trained_model();
    let probes = probe_workload(&model);
    c.bench_function("classify/per_delta_calls", |b| {
        b.iter(|| {
            for v in &probes {
                black_box(model.classify(black_box(v)));
            }
        })
    });
    c.bench_function("classify/batched_burst", |b| {
        let mut scratch = BatchScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            model.classify_batch(black_box(&probes), &mut scratch, &mut out);
            black_box(out.len())
        })
    });
}

/// The counter changes of a recorded Chase login (Fig 17's case): a
/// volunteer types a 12-character password on the paper-default
/// configuration, sampled every 8 ms.
fn recorded_chase_session() -> Vec<Delta> {
    let mut sim = android_ui::UiSimulation::new(SimConfig::paper_default(11));
    let mut rng = StdRng::seed_from_u64(11);
    let plan = Typist::new(VOLUNTEERS[1]).type_text(
        "hunter2Pass!",
        SimInstant::from_millis(900),
        &mut rng,
    );
    let end = plan.end + SimDuration::from_millis(800);
    sim.queue_all(plan.events);
    let mut sampler = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
    extract_deltas(&sampler.sample_until(&mut sim, end).unwrap())
}

/// The classifier probes greedy Algorithm 1 (`core::online`) sends on
/// `deltas`, in order: every change; when a change is rejected outside the
/// duplication window, every residual `peel_residuals` yields for it; then
/// the recombined split with the previous unconsumed change, and that
/// sum's residuals. Mirrors the engine's control flow; the bench checks
/// the engine's own probe tally against it. Also returns how many peel
/// steps the pretest dismissed, and asserts that the naive scan rejects
/// every residual of each of them.
fn algorithm1_probes(model: &ClassifierModel, deltas: &[Delta]) -> (Vec<CounterSet>, u64, u64) {
    let mut probes = Vec::new();
    let mut accepted = 0u64;
    let mut dismissed = 0u64;
    let mut probe = |v: CounterSet| {
        probes.push(v);
        let hit = model.classify(&v).key().is_some();
        accepted += u64::from(hit);
        hit
    };
    // Every yielded residual is probed (the engine keeps the best hit).
    let mut peel = |v: &CounterSet, probe: &mut dyn FnMut(CounterSet) -> bool| {
        let mut hit = false;
        let mut yielded = false;
        for (_, r) in model.peel_residuals(v) {
            hit |= probe(r);
            yielded = true;
        }
        if !yielded {
            dismissed += 1;
            for r in model.ambient_signatures().iter().filter_map(|s| v.checked_sub(s)) {
                assert_eq!(model.classify_naive(&r), Classification::Rejected, "pretest unsound");
            }
        }
        hit
    };
    let mut last_key: Option<SimInstant> = None;
    let mut prev: Option<Delta> = None;
    for d in deltas {
        let hit = probe(d.values);
        if last_key.is_some_and(|t| d.at.saturating_since(t) < T_L) {
            if hit {
                prev = None; // a duplicate; it displaces the pending change
            }
            continue;
        }
        if hit || peel(&d.values, &mut probe) {
            last_key = Some(d.at);
            prev = None;
            continue;
        }
        if let Some(p) = prev.take() {
            if d.at.saturating_since(p.at) <= MAX_SPLIT_GAP {
                let sum = p.values + d.values;
                if probe(sum) || peel(&sum, &mut probe) {
                    last_key = Some(p.at);
                    continue;
                }
            }
        }
        prev = Some(*d);
    }
    (probes, accepted, dismissed)
}

/// The classifier before the threshold bound, retained as the same-run
/// baseline: the unbounded nearest-centroid search (`nearest`, the same
/// ordered scan with a `+∞` cutoff), then the `C_th` test and the
/// magnitude gate on the nearest centroid.
fn unbounded_classify_reference(model: &ClassifierModel, v: &CounterSet) -> Option<(char, f64)> {
    let (ch, distance) = model.nearest(v);
    if distance > model.threshold() {
        return None;
    }
    let centroid = model.centroids().iter().find(|c| c.ch == ch).map_or(0, |c| c.values.total());
    let (centroid, total) = (centroid as f64, v.total() as f64);
    (centroid > 0.0 && (total - centroid).abs() <= centroid * ClassifierModel::MAGNITUDE_TOLERANCE)
        .then_some((ch, distance))
}

fn bench_algorithm1_probe_mix(c: &mut Criterion) {
    let model = trained_model();
    let deltas = recorded_chase_session();
    let (probes, accepted, dismissed) = algorithm1_probes(&model, &deltas);
    // The mirror sends exactly the probes the engine counts...
    let tally = || {
        let snap = spansight::snapshot();
        (snap.counter("core.classify.accepted"), snap.counter("core.classify.rejected"))
    };
    let (acc0, rej0) = tally();
    let _ = infer_stream(&model, &deltas);
    let (acc1, rej1) = tally();
    assert_eq!((acc1 - acc0, rej1 - rej0), (accepted, probes.len() as u64 - accepted));
    // A session-shaped mix: most changes are noise, and the pretest
    // dismisses their peel steps instead of probing each residual.
    assert!(accepted > 0 && deltas.len() as u64 > 3 * accepted, "a session-shaped mix");
    assert!(dismissed > 0, "the peel pretest never fired");
    // ...and both scans reach identical decisions on every one of them.
    for v in &probes {
        let bounded = match model.classify(v) {
            Classification::Key { ch, distance } => Some((ch, distance.to_bits())),
            Classification::Rejected => None,
        };
        let reference = unbounded_classify_reference(&model, v).map(|(ch, d)| (ch, d.to_bits()));
        assert_eq!(bounded, reference, "bounded and unbounded scans disagree");
    }
    c.bench_function("classify/algorithm1_probe_mix_unbounded_reference", |b| {
        b.iter(|| {
            for v in &probes {
                black_box(unbounded_classify_reference(&model, black_box(v)));
            }
        })
    });
    c.bench_function("classify/algorithm1_probe_mix_bounded", |b| {
        b.iter(|| {
            for v in &probes {
                black_box(model.classify(black_box(v)));
            }
        })
    });
}

fn bench_read_loop_alloc_vs_scratch(c: &mut Criterion) {
    let mut sim = android_ui::UiSimulation::new(SimConfig::paper_default(0));
    let mut sampler = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
    // Let the victim draw its login screen, so both paths read live values.
    sim.advance_to(SimInstant::from_millis(500));
    let device = sim.device();
    let fd = sampler.fd();
    // The pre-refactor read path: build the request vector on the heap for
    // every read, exactly as `read_once` used to.
    let allocating_read = || {
        let mut reads: Vec<KgslPerfcounterReadGroup> = ALL_TRACKED
            .iter()
            .map(|t| {
                let id = t.id();
                KgslPerfcounterReadGroup::new(id.group.kgsl_id(), id.countable)
            })
            .collect();
        device
            .ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, IoctlRequest::PerfcounterRead(&mut reads))
            .unwrap();
        let mut out = CounterSet::ZERO;
        for (t, r) in ALL_TRACKED.iter().zip(reads.iter()) {
            out[*t] = r.value;
        }
        out
    };
    let reference = allocating_read();
    assert!(!reference.is_zero(), "the login screen must show in the counters");
    assert_eq!(sampler.read_once(device).unwrap(), reference, "the two read paths disagree");
    c.bench_function("read_loop/allocating_request_vec", |b| {
        b.iter(|| black_box(allocating_read()))
    });
    c.bench_function("read_loop/reused_scratch_buffer", |b| {
        b.iter(|| black_box(sampler.read_once(black_box(device)).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_classify_naive_vs_pruned,
    bench_classify_batch_vs_per_delta,
    bench_algorithm1_probe_mix,
    bench_read_loop_alloc_vs_scratch
);
criterion_main!(benches);
