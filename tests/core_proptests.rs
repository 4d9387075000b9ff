//! Property-based tests of the attack's invariants.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::{AndroidVersion, KeyboardKind, PhoneModel, RefreshRate, Resolution, TargetApp};
use gpu_sc_attack::classify::{Classification, ClassifierModel, KeyCentroid, ModelMeta};
use gpu_sc_attack::metrics::edit_distance;
use gpu_sc_attack::online::{
    infer_full_trace, infer_stream, InferEvent, InferenceStats, InferredKey, MAX_SPLIT_GAP, T_L,
};
use gpu_sc_attack::sampler::SamplerReport;
use gpu_sc_attack::service::{AttackService, ServiceConfig};
use gpu_sc_attack::trace::{extract_deltas, extract_deltas_with_resets, Delta, Trace};
use gpu_sc_attack::ModelStore;
use proptest::prelude::*;

fn meta() -> ModelMeta {
    ModelMeta {
        phone: PhoneModel::OnePlus8Pro,
        android: AndroidVersion::V11,
        resolution: Resolution::Fhd,
        refresh: RefreshRate::Hz60,
        keyboard: KeyboardKind::Gboard,
        app: TargetApp::Chase,
    }
}

fn arb_set(max: u64) -> impl Strategy<Value = CounterSet> {
    prop::collection::vec(0..max, NUM_TRACKED)
        .prop_map(|v| CounterSet::from_array(v.try_into().unwrap()))
}

/// An arbitrary well-formed model: distinct chars, positive threshold.
fn arb_model() -> impl Strategy<Value = ClassifierModel> {
    (
        prop::collection::btree_map(
            prop::char::range('a', 'z'),
            arb_set(2_000_000).prop_filter("nonzero centroid", |s| s.total() > 0),
            1..12,
        ),
        0.1f64..200.0,
        arb_set(1_000_000),
        arb_set(60_000),
        prop::collection::vec(arb_set(60_000), 0..6),
        arb_set(3_000_000),
        1u64..2_000_000,
    )
        .prop_map(|(centroids, threshold, kb, app, sigs, launch, switch)| {
            let centroids: Vec<KeyCentroid> =
                centroids.into_iter().map(|(ch, values)| KeyCentroid { ch, values }).collect();
            ClassifierModel::new(
                meta(),
                centroids,
                [1.0; NUM_TRACKED],
                threshold,
                kb,
                app,
                sigs,
                launch,
                switch,
            )
        })
}

/// A classification as comparable bits: accept/reject, the accepted char
/// and the exact bits of the accepted distance.
fn decision_bits(c: &Classification) -> Option<(char, u64)> {
    match c {
        Classification::Key { ch, distance } => Some((*ch, distance.to_bits())),
        Classification::Rejected => None,
    }
}

/// Probes shaped like Algorithm 1's peel residuals: each centroid plus one
/// ambient signature minus another. The same signature twice gives back the
/// centroid itself, an exact hit; a wrong pair leaves a near miss.
fn residual_probes(model: &ClassifierModel) -> Vec<CounterSet> {
    let sigs = model.ambient_signatures();
    let mut out = Vec::new();
    for c in model.centroids() {
        for plus in sigs {
            for minus in sigs {
                out.push((c.values + *plus).saturating_sub(minus));
            }
        }
    }
    out
}

/// The model with its whitening weights replaced: non-unit weights make
/// the whitened coordinates inexact, which is where the acceptance box's
/// faces depend on rounding.
fn reweighted(model: &ClassifierModel, weights: [f64; NUM_TRACKED]) -> ClassifierModel {
    ClassifierModel::new(
        *model.meta(),
        model.centroids().to_vec(),
        weights,
        model.threshold(),
        *model.kb_signature(),
        *model.app_signature(),
        model.ambient_signatures().to_vec(),
        *model.launch_signature(),
        model.switch_threshold(),
    )
}

/// Trained-like whitening weights: reciprocals of integer spreads.
fn arb_weights() -> impl Strategy<Value = [f64; NUM_TRACKED]> {
    prop::collection::vec(1u64..4096, NUM_TRACKED)
        .prop_map(|v| std::array::from_fn(|i| 1.0 / v[i] as f64))
}

/// Probes one count inside and one count outside each face of the model's
/// acceptance box, each on a centroid whose interval reaches that face (the
/// extreme centroid on that counter, under unit weights). Asserts that
/// every face is exact: some centroid with that counter moved to the face
/// is within `C_th`.
fn box_face_probes(model: &ClassifierModel) -> Vec<CounterSet> {
    let (lo, hi) = model.acceptance_box();
    let at = |c: &CounterSet, i: usize, x: u64| {
        let mut v = *c.as_array();
        v[i] = x;
        CounterSet::from_array(v)
    };
    let mut out = Vec::new();
    for i in 0..NUM_TRACKED {
        for (face, beyond) in [(hi[i], hi[i].checked_add(1)), (lo[i], lo[i].checked_sub(1))] {
            let base = model
                .centroids()
                .iter()
                .find(|c| model.distance(&at(&c.values, i, face), &c.values) <= model.threshold())
                .unwrap_or_else(|| panic!("face {face} of counter {i} is not exact"));
            out.push(at(&base.values, i, face));
            out.extend(beyond.map(|x| at(&base.values, i, x)));
        }
    }
    out
}

/// The model re-thresholded at both sides of a probe whose nearest
/// distance is `d`: `C_th = d` must accept it on distance and
/// `C_th = d.next_down()` must reject it. Empty when `d` is too small for
/// the lower side to be a valid threshold (an exact centroid hit).
fn boundary_models(model: &ClassifierModel, d: f64) -> Vec<ClassifierModel> {
    if d.next_down() > 0.0 {
        vec![model.with_threshold(d), model.with_threshold(d.next_down())]
    } else {
        Vec::new()
    }
}

/// Algorithm 1 as the engine ran it before the peel pretest, kept only as
/// a test oracle: every ambient signature that fits under a change (or a
/// recombined split) is subtracted and its residual classified, by the
/// naive full scan. Emits events in the order [`InferStage`] hands them back:
/// after each change, its keys, then its noise.
struct ReferenceEngine<'m> {
    model: &'m ClassifierModel,
    lookahead: bool,
    held: Option<Delta>,
    last_key_at: Option<SimInstant>,
    prev: Option<Delta>,
    stats: InferenceStats,
    keys: Vec<InferEvent>,
    noise: Vec<InferEvent>,
    events: Vec<InferEvent>,
}

impl<'m> ReferenceEngine<'m> {
    fn new(model: &'m ClassifierModel, lookahead: bool) -> Self {
        ReferenceEngine {
            model,
            lookahead,
            held: None,
            last_key_at: None,
            prev: None,
            stats: InferenceStats::default(),
            keys: Vec::new(),
            noise: Vec::new(),
            events: Vec::new(),
        }
    }

    fn push(&mut self, d: Delta) {
        if !self.lookahead {
            self.process(d, d.at);
        } else if let Some(held) = self.held.replace(d) {
            self.defer(&held, &d);
            self.process(held, d.at);
        }
        self.drain();
    }

    fn finish(mut self) -> (Vec<InferEvent>, InferenceStats) {
        if let Some(held) = self.held.take() {
            self.process(held, held.at);
        }
        if let Some(stale) = self.prev.take() {
            self.reject(stale);
        }
        self.drain();
        (self.events, self.stats)
    }

    fn drain(&mut self) {
        self.events.append(&mut self.keys);
        self.events.append(&mut self.noise);
    }

    fn reject(&mut self, d: Delta) {
        self.noise.push(InferEvent::Noise(d));
        self.stats.noise += 1;
    }

    fn hit(&self, v: &CounterSet) -> Option<(char, f64)> {
        match self.model.classify_naive(v) {
            Classification::Key { ch, distance } => Some((ch, distance)),
            Classification::Rejected => None,
        }
    }

    /// The closest accepted residual over every fitting signature.
    fn peel(&self, v: &CounterSet) -> Option<(char, CounterSet)> {
        let mut best: Option<(f64, char, CounterSet)> = None;
        for sig in self.model.ambient_signatures() {
            let Some(residual) = v.checked_sub(sig) else { continue };
            if let Some((ch, distance)) = self.hit(&residual) {
                if best.is_none_or(|(d, ..)| distance < d) {
                    best = Some((distance, ch, *sig));
                }
            }
        }
        best.map(|(_, ch, sig)| (ch, sig))
    }

    fn accept(&mut self, key: InferredKey) {
        self.last_key_at = Some(key.at);
        if let Some(stale) = self.prev.take() {
            self.reject(stale);
        }
        self.keys.push(InferEvent::Key(key));
    }

    fn process(&mut self, delta: Delta, decided_at: SimInstant) {
        let key = |at, ch, via_split| InferredKey { at, decided_at, ch, via_split };
        let primary = self.hit(&delta.values);
        if self.last_key_at.is_some_and(|t| delta.at.saturating_since(t) < T_L) {
            if primary.is_some() {
                self.stats.duplications_suppressed += 1;
                if let Some(stale) = self.prev.take() {
                    self.reject(stale);
                }
            } else {
                self.reject(delta);
            }
            return;
        }
        if let Some((ch, _)) = primary {
            self.accept(key(delta.at, ch, false));
            self.stats.direct += 1;
            return;
        }
        if let Some((ch, sig)) = self.peel(&delta.values) {
            self.accept(key(delta.at, ch, false));
            self.noise.push(InferEvent::Noise(Delta { at: delta.at, values: sig }));
            self.stats.peeled += 1;
            return;
        }
        if let Some(prev) = self.prev {
            if delta.at.saturating_since(prev.at) <= MAX_SPLIT_GAP {
                let combined = prev.values + delta.values;
                if let Some((ch, _)) = self.hit(&combined) {
                    self.prev = None;
                    self.accept(key(prev.at, ch, true));
                    self.stats.splits_recovered += 1;
                    return;
                }
                if let Some((ch, sig)) = self.peel(&combined) {
                    self.prev = None;
                    self.accept(key(prev.at, ch, true));
                    self.noise.push(InferEvent::Noise(Delta { at: delta.at, values: sig }));
                    self.stats.splits_recovered += 1;
                    self.stats.peeled += 1;
                    return;
                }
            } else {
                self.prev = None;
                self.reject(prev);
            }
        }
        if let Some(stale) = self.prev.replace(delta) {
            self.reject(stale);
        }
    }

    /// The full-trace split fix: drop `prev` when `(current, next)` pairs
    /// strictly better than `(prev, current)`.
    fn defer(&mut self, current: &Delta, next: &Delta) {
        let Some(prev) = self.prev else { return };
        if current.at.saturating_since(prev.at) > MAX_SPLIT_GAP
            || next.at.saturating_since(current.at) > MAX_SPLIT_GAP
        {
            return;
        }
        let with_prev = self.hit(&(prev.values + current.values));
        let with_next = self.hit(&(current.values + next.values));
        if let (Some((_, dp)), Some((_, dn))) = (with_prev, with_next) {
            if dn < dp {
                self.prev = None;
                self.reject(prev);
            }
        }
    }
}

/// One change of a generated typing stream, built from a model's own
/// centroids and signatures so that every Algorithm 1 path fires.
#[derive(Debug, Clone)]
enum TypingStep {
    /// A clean key frame of centroid `i`.
    Press(usize),
    /// Key frame `i` merged with ambient signature `j` (step 2b).
    PressWithEcho(usize, usize),
    /// Ambient signature `j` alone: an echo or a cursor blink.
    Echo(usize),
    /// The keyboard redraw.
    KeyboardRedraw,
    /// Key frame `i` split `pct`/`100 − pct` over two reads 8 ms apart, with
    /// signature `j` merged into the second fragment when `echo` (step 3b).
    Split { i: usize, j: usize, pct: u64, echo: bool },
    /// Arbitrary activity.
    Noise(CounterSet),
}

fn arb_typing_stream() -> impl Strategy<Value = Vec<(TypingStep, u64)>> {
    let step = prop_oneof![
        (0usize..16).prop_map(TypingStep::Press),
        (0usize..16, 0usize..8).prop_map(|(i, j)| TypingStep::PressWithEcho(i, j)),
        (0usize..8).prop_map(TypingStep::Echo),
        Just(TypingStep::KeyboardRedraw),
        (0usize..16, 0usize..8, 1u64..100, any::<bool>())
            .prop_map(|(i, j, pct, echo)| TypingStep::Split { i, j, pct, echo }),
        arb_set(400_000).prop_map(TypingStep::Noise),
    ];
    // Gaps on both sides of the split gap (20 ms) and of T_l (75 ms).
    let gap = prop::sample::select(vec![8u64, 16, 24, 60, 90, 300]);
    prop::collection::vec((step, gap), 0..40)
}

/// The changes of a generated typing stream on `model`.
fn typing_deltas(model: &ClassifierModel, steps: &[(TypingStep, u64)]) -> Vec<Delta> {
    let keys: Vec<CounterSet> = model.centroids().iter().map(|c| c.values).collect();
    let sigs = model.ambient_signatures();
    let sig =
        |j: usize| if sigs.is_empty() { *model.app_signature() } else { sigs[j % sigs.len()] };
    let mut out = Vec::new();
    let mut at = 0u64;
    for (step, gap) in steps {
        at += gap;
        let mut push = |at: u64, values: CounterSet| {
            out.push(Delta { at: SimInstant::from_millis(at), values });
        };
        match *step {
            TypingStep::Press(i) => push(at, keys[i % keys.len()]),
            TypingStep::PressWithEcho(i, j) => push(at, keys[i % keys.len()] + sig(j)),
            TypingStep::Echo(j) => push(at, sig(j)),
            TypingStep::KeyboardRedraw => push(at, *model.kb_signature()),
            TypingStep::Split { i, j, pct, echo } => {
                let key = keys[i % keys.len()].as_array();
                let first = CounterSet::from_array(key.map(|v| v * pct / 100));
                let second = keys[i % keys.len()] - first;
                push(at, first);
                at += 8;
                push(at, if echo { second + sig(j) } else { second });
            }
            TypingStep::Noise(v) => push(at, v),
        }
    }
    out.retain(|d| !d.values.is_zero());
    out
}

fn arb_deltas() -> impl Strategy<Value = Vec<Delta>> {
    prop::collection::vec((0u64..20_000u64, arb_set(500_000)), 0..40).prop_map(|mut v| {
        v.sort_by_key(|(ms, _)| *ms);
        v.into_iter()
            .map(|(ms, values)| Delta { at: SimInstant::from_millis(ms), values })
            .collect()
    })
}

/// One counter-activity window of a generated session.
#[derive(Debug, Clone)]
enum SessionStep {
    /// Arbitrary system activity (may look like an app switch, an ambient
    /// echo, or nothing of interest).
    Noise(CounterSet),
    /// An exact keyboard-redraw fingerprint — recognition commits here.
    KeyboardRedraw,
    /// An exact replay of training centroid `i` (a key press).
    Press(usize),
    /// An exact cold-launch burst of the target app.
    Launch,
}

/// A generated session: steps with the gap (ms) since the previous sample.
fn arb_session() -> impl Strategy<Value = Vec<(SessionStep, u64)>> {
    prop::collection::vec(
        (
            prop_oneof![
                arb_set(400_000).prop_map(SessionStep::Noise),
                Just(SessionStep::KeyboardRedraw),
                (0usize..16).prop_map(SessionStep::Press),
                Just(SessionStep::Launch),
            ],
            1u64..300,
        ),
        0..50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_centroids_always_classify_correctly(model in arb_model()) {
        for c in model.centroids() {
            // An exact replay of the training delta must classify as that
            // key (degenerate equal-distance centroids may tie).
            let got = model.classify(&c.values).key();
            prop_assert!(got.is_some(), "exact centroid must be accepted");
            let (_, dist) = model.nearest(&c.values);
            prop_assert_eq!(dist, 0.0);
        }
    }

    #[test]
    fn algorithm1_output_is_bounded_and_ordered(
        model in arb_model(),
        deltas in arb_deltas(),
    ) {
        for full in [false, true] {
            let (keys, noise, stats) = if full {
                infer_full_trace(&model, &deltas)
            } else {
                infer_stream(&model, &deltas)
            };
            // Every input change is accounted for at most once.
            prop_assert!(keys.len() + noise.len() <= deltas.len());
            prop_assert_eq!(stats.direct + stats.peeled + stats.splits_recovered, keys.len());
            // Inferred presses are time-ordered and spaced by T_l.
            for w in keys.windows(2) {
                prop_assert!(w[0].at <= w[1].at);
                prop_assert!(
                    (w[1].at - w[0].at) >= SimDuration::from_millis(75),
                    "accepted presses must respect the duplication window"
                );
            }
            for w in noise.windows(2) {
                prop_assert!(w[0].at <= w[1].at);
            }
        }
    }

    #[test]
    fn pipeline_result_is_independent_of_burst_slicing(
        model in arb_model(),
        session in arb_session(),
        full_trace in any::<bool>(),
        require_launch in any::<bool>(),
    ) {
        // Pushing a session's samples one per call, as the split server
        // does, must produce the same SessionResult — or the same error —
        // as pushing them in bursts, for any trace, in both inference modes,
        // with launch gating on or off. The burst sizes cover an odd size,
        // the split driver's 32-slot quantum and the in-process driver's
        // 64-sample burst.
        let kb = *model.kb_signature();
        let launch = *model.launch_signature();
        let presses: Vec<CounterSet> =
            model.centroids().iter().map(|c| c.values).collect();
        let mut store = ModelStore::new();
        store.add(model);

        let mut trace = Trace::new();
        let mut acc = CounterSet::ZERO;
        let mut at = 0u64;
        trace.push(SimInstant::from_millis(at), acc);
        for (step, gap) in session {
            at += gap;
            acc += match step {
                SessionStep::Noise(v) => v,
                SessionStep::KeyboardRedraw => kb,
                SessionStep::Press(i) => presses[i % presses.len()],
                SessionStep::Launch => launch,
            };
            trace.push(SimInstant::from_millis(at), acc);
        }

        let config = ServiceConfig { full_trace, require_launch, ..ServiceConfig::default() };
        let service = AttackService::new(store, config);
        let report = SamplerReport::default();
        let run = |burst: usize| {
            let mut session = service.streaming_session();
            for c in trace.samples().chunks(burst) {
                session.push_samples(c);
            }
            session.finish(&report)
        };
        let reference = run(1);
        for burst in [3usize, 32, 64] {
            prop_assert_eq!(run(burst), reference.clone());
        }
    }

    #[test]
    fn edit_distance_is_a_metric(
        a in "[a-z0-9]{0,12}",
        b in "[a-z0-9]{0,12}",
        c in "[a-z0-9]{0,12}",
    ) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
        prop_assert_eq!(edit_distance(&a, &a), 0);
        let ab = edit_distance(&a, &b);
        let bc = edit_distance(&b, &c);
        let ac = edit_distance(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle inequality");
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(ab >= la.abs_diff(lb));
        prop_assert!(ab <= la.max(lb));
    }

    #[test]
    fn deltas_reconstruct_trace_totals(
        values in prop::collection::vec(arb_set(10_000), 2..20),
        start in 0u64..1_000,
    ) {
        // Build a monotone trace by accumulating arbitrary increments.
        let mut trace = Trace::new();
        let mut acc = CounterSet::ZERO;
        for (i, v) in values.iter().enumerate() {
            acc += *v;
            trace.push(SimInstant::from_millis(start + i as u64 * 8), acc);
        }
        let deltas = extract_deltas(&trace);
        let sum = deltas.iter().fold(CounterSet::ZERO, |s, d| s + d.values);
        let first = trace.samples()[0].values;
        let last = trace.samples()[trace.len() - 1].values;
        prop_assert_eq!(sum + first, last, "deltas must sum to the end-to-end change");
    }

    #[test]
    fn counter_resets_reanchor_without_fabricating_deltas(
        segments in prop::collection::vec(
            prop::collection::vec(arb_set(10_000), 1..8),
            1..6,
        ),
    ) {
        // Each segment models one GPU power-up span: a first read right after
        // the registers restarted (all zeros), then monotone accumulation.
        // Every increment gets +1 on one counter so each span's final value
        // is nonzero — making every span boundary a *detectable* backward
        // jump for the extractor.
        let mut trace = Trace::new();
        let mut at = 0u64;
        let mut expected_total = CounterSet::ZERO;
        for increments in &segments {
            let mut acc = CounterSet::ZERO;
            trace.push(SimInstant::from_millis(at), acc);
            at += 8;
            for v in increments {
                let mut bump = *v;
                bump[adreno_sim::counters::TrackedCounter::Ras8x4Tiles] += 1;
                acc += bump;
                trace.push(SimInstant::from_millis(at), acc);
                at += 8;
            }
            expected_total += acc;
        }

        let (deltas, resets) = extract_deltas_with_resets(&trace);
        // Exactly the span boundaries are reported as resets...
        prop_assert_eq!(resets, segments.len() - 1);
        // ...and the surviving deltas are exactly the within-span activity:
        // nothing from a reset window leaks through, nothing real is lost.
        let sum = deltas.iter().fold(CounterSet::ZERO, |s, d| s + d.values);
        prop_assert_eq!(sum, expected_total, "re-anchoring must keep all within-span activity");
        for d in &deltas {
            prop_assert!(!d.values.is_zero(), "idle windows are never emitted");
        }
        // The plain extractor is the same function minus the reset count.
        prop_assert_eq!(extract_deltas(&trace), deltas);
    }

    #[test]
    fn pruned_classification_matches_naive(
        model in arb_model(),
        weights in arb_weights(),
        probes in prop::collection::vec(arb_set(2_500_000), 1..40),
    ) {
        // The hot-path invariant of the prepared-centroid scan: the
        // unbounded pruned search must find the naive scan's nearest
        // centroid at a bit-identical distance, and the box test plus the
        // scan bounded at `C_th` must decide exactly as the naive
        // full-distance scan does — same accept/reject, same char,
        // bit-identical accepted distance. Besides random probes: peel
        // residuals, one count either side of every box face, and every
        // probe at both sides of its own acceptance boundary; on the model
        // as drawn (unit weights) and reweighted.
        for model in [reweighted(&model, weights), model] {
            let probes: Vec<CounterSet> = probes
                .iter()
                .copied()
                .chain(residual_probes(&model))
                .chain(box_face_probes(&model))
                .collect();
            for v in &probes {
                let (nn_ch, nn_d) = model.nearest_naive(v);
                let (pr_ch, pr_d) = model.nearest(v);
                prop_assert_eq!(pr_ch, nn_ch);
                prop_assert_eq!(pr_d.to_bits(), nn_d.to_bits(), "distance must be bit-identical");
                let boundary = boundary_models(&model, nn_d);
                for (i, m) in std::iter::once(&model).chain(&boundary).enumerate() {
                    let naive = m.classify_naive(v);
                    let pruned = m.classify(v);
                    prop_assert_eq!(decision_bits(&pruned), decision_bits(&naive), "model {}", i);
                }
                if let [_, below_d] = &boundary[..] {
                    prop_assert_eq!(below_d.classify(v), Classification::Rejected);
                }
            }
        }
    }

    #[test]
    fn peel_pretest_dismisses_exactly_the_changes_no_residual_can_fit(
        model in arb_model(),
        weights in arb_weights(),
        probes in prop::collection::vec(arb_set(2_500_000), 1..40),
    ) {
        // `peel_residuals` dismisses a change exactly when, on some
        // counter, the signature values that would leave a residual inside
        // the acceptance box, `[v_i − hi_i, v_i − lo_i]`, miss the
        // signatures' `[min_i, max_i]`; otherwise it yields every fitting
        // residual in signature order. A dismissed change has no residual
        // the naive scan accepts. Besides random probes: peel residuals,
        // key frames merged with a signature, and one count either side of
        // both pretest edges on every counter.
        for model in [reweighted(&model, weights), model] {
            let (lo, hi) = model.acceptance_box();
            let sigs = model.ambient_signatures();
            let span = |i: usize| {
                sigs.iter().map(|s| s.as_array()[i]).fold((u64::MAX, 0), |(a, b), x| {
                    (a.min(x), b.max(x))
                })
            };
            let merged: Vec<CounterSet> = model
                .centroids()
                .iter()
                .flat_map(|c| sigs.iter().map(move |s| c.values + *s))
                .collect();
            let mut edges = Vec::new();
            if let Some(base) = merged.first() {
                for i in 0..NUM_TRACKED {
                    let (s_min, s_max) = span(i);
                    let small = lo[i].checked_add(s_min);
                    let big = hi[i].checked_add(s_max);
                    let below = small.and_then(|x| x.checked_sub(1));
                    let above = big.and_then(|x| x.checked_add(1));
                    let xs = [below, small, big, above];
                    for x in xs.into_iter().flatten() {
                        let mut v = *base.as_array();
                        v[i] = x;
                        edges.push(CounterSet::from_array(v));
                    }
                }
            }
            let probes = probes
                .iter()
                .copied()
                .chain(residual_probes(&model))
                .chain(merged)
                .chain(edges);
            for v in probes {
                let x = v.as_array();
                let misses = (0..NUM_TRACKED).any(|i| {
                    let (s_min, s_max) = span(i);
                    let top = i128::from(x[i]) - i128::from(lo[i]);
                    let bottom = i128::from(x[i]) - i128::from(hi[i]);
                    top < i128::from(s_min) || bottom > i128::from(s_max)
                });
                let fitting: Vec<(CounterSet, CounterSet)> =
                    sigs.iter().filter_map(|s| Some((*s, v.checked_sub(s)?))).collect();
                let got: Vec<(CounterSet, CounterSet)> =
                    model.peel_residuals(&v).map(|(s, r)| (*s, r)).collect();
                if misses {
                    prop_assert!(got.is_empty(), "a change no residual can fit was peeled");
                    for (_, r) in &fitting {
                        prop_assert_eq!(model.classify_naive(r), Classification::Rejected);
                    }
                } else {
                    prop_assert_eq!(got, fitting);
                }
            }
        }
    }

    #[test]
    fn derived_models_rebuild_the_acceptance_box(
        model in arb_model(),
        weights in arb_weights(),
        factor in 0.01f64..100.0,
    ) {
        // `with_threshold` rebuilds the box: it equals the box of the same
        // model assembled from scratch.
        for model in [reweighted(&model, weights), model] {
            let threshold = model.threshold() * factor;
            let fresh = ClassifierModel::new(
                *model.meta(),
                model.centroids().to_vec(),
                *model.weights(),
                threshold,
                *model.kb_signature(),
                *model.app_signature(),
                model.ambient_signatures().to_vec(),
                *model.launch_signature(),
                model.switch_threshold(),
            );
            prop_assert_eq!(
                model.with_threshold(threshold).acceptance_box(),
                fresh.acceptance_box()
            );
        }
    }

    #[test]
    fn simd_kernels_match_scalar_reference_bitwise(
        a in arb_set(3_000_000),
        b in arb_set(3_000_000),
        weights in arb_weights(),
    ) {
        // The vendored kernels promise an exact summation order (lane j
        // accumulates elements j, j+4, …; reduction tree (l0+l1)+(l2+l3)).
        // Pin them, bit for bit, on whitened 11-wide rows as the classifier
        // scans them (two full chunks and a ragged tail of three) against a
        // plain scalar spelling of that order, and pin the pruned variant's
        // completion to the full kernel.
        let whiten = |s: &CounterSet| -> [f64; NUM_TRACKED] {
            std::array::from_fn(|i| s.as_array()[i] as f64 * weights[i])
        };
        let (a, b) = (whiten(&a), whiten(&b));
        let reference = |a: &[f64; NUM_TRACKED], b: &[f64; NUM_TRACKED]| {
            let mut lanes = [0.0f64; simdlite::LANES];
            for i in 0..NUM_TRACKED {
                let d = a[i] - b[i];
                lanes[i % simdlite::LANES] += d * d;
            }
            (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        };

        let full = simdlite::sq_dist_fixed(&a, &b);
        prop_assert_eq!(full.to_bits(), reference(&a, &b).to_bits(), "chunked ≡ scalar");
        prop_assert_eq!(
            simdlite::sq_norm_fixed(&a).to_bits(),
            reference(&a, &[0.0; NUM_TRACKED]).to_bits(),
            "norm ≡ distance from the origin"
        );
        let completed = simdlite::sq_dist_pruned_fixed(&a, &b, f64::INFINITY)
            .expect("infinite cutoff never prunes");
        prop_assert_eq!(completed.to_bits(), full.to_bits(), "pruned completion ≡ full scan");
        // Pruning decisions are consistent with the full sum: at or above
        // the cutoff the scan aborts, below it the scan completes exactly.
        prop_assert_eq!(simdlite::sq_dist_pruned_fixed(&a, &b, full), None);
        prop_assert_eq!(
            simdlite::sq_dist_pruned_fixed(&a, &b, full + 1.0).map(f64::to_bits),
            Some(full.to_bits())
        );
    }

    #[test]
    fn engine_matches_the_peel_everything_reference(
        model in arb_model(),
        steps in arb_typing_stream(),
        lookahead in any::<bool>(),
    ) {
        // The peel pretest and the box only skip probes that would have
        // been rejected: on typing streams built from the model's own key
        // frames, echoes, splits and keyboard redraws, the engine emits
        // exactly the events — keys and noise — and the stats of a
        // reference that peels every fitting signature and classifies with
        // the naive scan.
        use gpu_sc_attack::online::InferStage;
        let deltas = typing_deltas(&model, &steps);
        let mut stage = if lookahead {
            InferStage::lookahead(&model)
        } else {
            InferStage::greedy(&model)
        };
        let mut events = Vec::new();
        for &d in &deltas {
            events.extend(stage.push(d));
        }
        events.extend(stage.finish());
        let mut reference = ReferenceEngine::new(&model, lookahead);
        for d in &deltas {
            reference.push(*d);
        }
        let (ref_events, ref_stats) = reference.finish();
        prop_assert_eq!(stage.stats(), ref_stats);
        prop_assert_eq!(events, ref_events);
    }

    #[test]
    fn trace_round_trips_pushed_samples(
        values in prop::collection::vec(arb_set(50_000), 0..40),
        start in 0u64..1_000,
    ) {
        // A trace hands back exactly the samples pushed into it, in order.
        use gpu_sc_attack::trace::Sample;

        let samples: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Sample { at: SimInstant::from_millis(start + i as u64 * 8), values: v })
            .collect();
        let trace: Trace = samples.iter().copied().collect();

        prop_assert_eq!(trace.len(), samples.len());
        prop_assert_eq!(trace.is_empty(), samples.is_empty());
        prop_assert_eq!(trace.samples(), &samples[..]);
        let iterated: Vec<Sample> = trace.iter().collect();
        prop_assert_eq!(&iterated, &samples);
    }
}
