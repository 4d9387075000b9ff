//! Criterion micro-benchmarks of the attack's hot paths.
//!
//! The paper's timeliness claim (Fig 25) is that a key press is inferred in
//! well under 0.1 ms; these benches pin the cost of each stage.

use adreno_sim::geom::Rect;
use adreno_sim::model::GpuModel;
use adreno_sim::pipeline::{render, render_uncached};
use adreno_sim::scene::DrawList;
use adreno_sim::SimInstant;
use android_ui::compositor::KeyboardWindow;
use android_ui::sim::SimConfig;
use android_ui::KeyboardKind;
use bench::{eval_credentials, TrialOptions};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gpu_sc_attack::offline::ModelStore;
use gpu_sc_attack::online::infer_stream;
use gpu_sc_attack::registry::{encode_model, Quantization, Registry};
use gpu_sc_attack::trace::Delta;
use gpu_sc_attack::ClassifierModel;
use input_bot::corpus::CredentialKind;
use minipool::Pool;

fn trained_model() -> ClassifierModel {
    let cfg = SimConfig::paper_default(0);
    Registry::default().get_or_train(cfg.device, cfg.keyboard, cfg.app).model().clone()
}

fn bench_classify(c: &mut Criterion) {
    let model = trained_model();
    let probe = model.centroids()[17].values;
    c.bench_function("classify_one_delta", |b| b.iter(|| model.classify(black_box(&probe))));
}

fn bench_algorithm1(c: &mut Criterion) {
    let model = trained_model();
    // A realistic minute of deltas: ~200 changes.
    let deltas: Vec<Delta> = model
        .centroids()
        .iter()
        .cycle()
        .take(200)
        .enumerate()
        .map(|(i, kc)| Delta {
            at: SimInstant::from_millis(100 + 300 * i as u64),
            values: kc.values,
        })
        .collect();
    c.bench_function("algorithm1_200_changes", |b| {
        b.iter(|| infer_stream(black_box(&model), black_box(&deltas)))
    });
}

fn bench_render_keyboard_frame(c: &mut Criterion) {
    let cfg = SimConfig::paper_default(0);
    let mut kw = KeyboardWindow::new(KeyboardKind::Gboard, &cfg.device, true);
    kw.show_popup('w');
    let dl = kw.draw();
    let params = GpuModel::Adreno650.params();
    // The same frame through the reference pipeline and through `render`,
    // whose layers are all cached after this first call: the steady-state
    // cost of a repeated popup frame.
    assert_eq!(render(&dl, &params), render_uncached(&dl, &params));
    c.bench_function("render_popup_frame_uncached", |b| {
        b.iter(|| render_uncached(black_box(&dl), &params))
    });
    c.bench_function("render_keyboard_popup_frame", |b| b.iter(|| render(black_box(&dl), &params)));
}

fn bench_render_fullscreen(c: &mut Criterion) {
    let mut dl = DrawList::new(1080, 2376);
    dl.layer("bg").quad(Rect::from_xywh(0, 0, 1080, 2376), true);
    for i in 0..30 {
        dl.layer("content").quad(Rect::from_xywh(40, 100 + i * 70, 1000, 56), true);
    }
    let params = GpuModel::Adreno650.params();
    c.bench_function("render_fullscreen_app_frame", |b| b.iter(|| render(black_box(&dl), &params)));
}

fn bench_model_encode(c: &mut Criterion) {
    let model = trained_model();
    c.bench_function("model_encode_gpmr", |b| {
        b.iter(|| encode_model(black_box(&model), Quantization::F64))
    });
}

fn bench_ioctl_read(c: &mut Criterion) {
    use gpu_sc_attack::sampler::{Sampler, SamplerConfig};
    let sim = android_ui::UiSimulation::new(SimConfig::paper_default(0));
    let mut sampler = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
    let device = sim.device();
    c.bench_function("ioctl_blockread_11_counters", |b| {
        b.iter(|| sampler.read_once(black_box(device)).unwrap())
    });
}

fn eval_fig17_style(pool: &Pool) -> f64 {
    let opts = TrialOptions::paper_default(0);
    let handle = Registry::default().get_or_train(opts.sim.device, opts.sim.keyboard, opts.sim.app);
    let store = ModelStore::from(handle);
    eval_credentials(pool, &store, &opts, CredentialKind::Username, 10, 8, 1_710).key_accuracy()
}

fn bench_eval_parallelism(c: &mut Criterion) {
    // An 8-trial fig17-style evaluation, sequential vs fanned out. On a
    // multi-core host the parallel variant approaches jobs× faster; the
    // two must (and do) produce identical aggregates.
    let seq = Pool::sequential();
    c.bench_function("eval_8_credentials_seq", |b| b.iter(|| black_box(eval_fig17_style(&seq))));
    let par = Pool::new(4);
    c.bench_function("eval_8_credentials_jobs4", |b| b.iter(|| black_box(eval_fig17_style(&par))));
}

criterion_group!(
    benches,
    bench_classify,
    bench_algorithm1,
    bench_render_keyboard_frame,
    bench_render_fullscreen,
    bench_eval_parallelism,
    bench_model_encode,
    bench_ioctl_read
);
criterion_main!(benches);
