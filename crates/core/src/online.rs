//! Online key-press inference — Algorithm 1 of the paper (§5.1).
//!
//! For every observed counter change `Δ` at time `t`:
//!
//! 1. **Duplication backtrace** — if a key press was already inferred within
//!    the last `T_l = 75 ms`, the change is an animation duplicate and is
//!    suppressed (human presses cannot be that close together).
//! 2. **Classification** — if `Δ`'s nearest centroid is within `C_th`, infer
//!    that key press.
//! 3. **Split recombination** — otherwise combine `Δ` with the previous
//!    unconsumed change and classify the sum; success means the draw was
//!    split across two reads, and the press is inferred at the *earlier*
//!    timestamp.
//! 4. Otherwise `Δ` is system noise.
//!
//! The greedy combination can mis-attribute (§5.1 discusses the trade-off);
//! [`infer_full_trace`] is the offline variant with one-step lookahead that
//! the paper says requires the whole trace.
//!
//! [`InferStage`] runs Algorithm 1 one change at a time, as the service's
//! pipeline does; [`infer_stream`] and [`infer_full_trace`] push a whole
//! change stream through it.

use std::time::Instant;

use adreno_sim::counters::CounterSet;
use adreno_sim::time::{SimDuration, SimInstant};

use crate::classify::{Classification, ClassifierModel};
use crate::trace::Delta;

/// Bucket edges of the classification-latency histogram
/// (`core.classify.latency_ns`, one entry per primary classification):
/// 1 µs, 10 µs, 0.1 ms (the paper's Fig 25 bound), 1 ms, overflow.
pub const CLASSIFY_LATENCY_EDGES: &[u64] = &[1_000, 10_000, 100_000, 1_000_000];

/// The duplication backtrace window `T_l`: 75 ms, the paper's shortest
/// plausible interval between two human key presses. A key-like change
/// less than `T_L` after an accepted press is an animation duplicate.
pub const T_L: SimDuration = SimDuration::from_millis(75);

/// Maximum age of the previous change for split recombination. Splits land
/// in adjacent read windows, so a small multiple of the reading interval
/// suffices.
pub const MAX_SPLIT_GAP: SimDuration = SimDuration::from_millis(20);

/// One inferred key press.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferredKey {
    /// When the press was inferred to have happened.
    pub at: SimInstant,
    /// When the pipeline *committed* to this press — the read time of the
    /// change whose processing accepted it. Equal to `at` for directly
    /// classified presses; later than `at` for backdated splits, and later
    /// still under one-change lookahead (the decision waits for the next
    /// change). `decided_at - <true press time>` is the press-to-inference
    /// latency the `latency` experiment reports (§5.1 timeliness trade-off).
    pub decided_at: SimInstant,
    /// The inferred character.
    pub ch: char,
    /// Whether split recombination was needed.
    pub via_split: bool,
}

/// Counters of what the algorithm did — the Fig 11 taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferenceStats {
    /// Changes accepted directly as key presses.
    pub direct: usize,
    /// Key presses recovered by peeling a field-redraw signature off a
    /// merged read window.
    pub peeled: usize,
    /// Key presses recovered by combining split changes.
    pub splits_recovered: usize,
    /// Changes suppressed by the duplication backtrace.
    pub duplications_suppressed: usize,
    /// Changes dismissed as system noise.
    pub noise: usize,
}

/// The classifier probes one engine sent. A probe is one
/// [`ClassifierModel::classify`] call: a change (the *primary*
/// classification), a residual peeled off it, a recombined split, or a
/// lookahead pairing. Tallied here and published once, when the engine is
/// dropped, so no probe pays for a telemetry map update. Only primaries
/// are timed.
#[derive(Debug, Default)]
struct ProbeTally {
    accepted: u64,
    rejected: u64,
    /// `core.classify.latency_ns` bucket counts, one entry per primary
    /// classification.
    latency: [u64; CLASSIFY_LATENCY_EDGES.len() + 1],
}

impl ProbeTally {
    fn count(&mut self, c: &Classification) {
        match c {
            Classification::Key { .. } => self.accepted += 1,
            Classification::Rejected => self.rejected += 1,
        }
    }

    /// A counted, untimed probe (peel, split and lookahead probes).
    fn classify(&mut self, model: &ClassifierModel, v: &CounterSet) -> Classification {
        let c = model.classify(v);
        self.count(&c);
        c
    }

    /// The primary classification of a change, timed: one latency entry
    /// per change (Fig 25's claim is per inference).
    fn classify_primary(&mut self, model: &ClassifierModel, v: &CounterSet) -> Classification {
        let started = Instant::now();
        let c = model.classify(v);
        let ns = started.elapsed().as_nanos() as u64;
        self.latency[spansight::Hist::bucket_of(CLASSIFY_LATENCY_EDGES, ns)] += 1;
        self.count(&c);
        c
    }
}

impl Drop for ProbeTally {
    fn drop(&mut self) {
        if self.accepted > 0 {
            spansight::count("core.classify.accepted", self.accepted);
        }
        if self.rejected > 0 {
            spansight::count("core.classify.rejected", self.rejected);
        }
        spansight::record_bucketed(
            "core.classify.latency_ns",
            CLASSIFY_LATENCY_EDGES,
            &self.latency,
        );
    }
}

/// Algorithm 1's state over one change stream. Each decision leaves what
/// it produced in `key` and `noise`, which [`InferStage`] hands on before
/// the next one.
#[derive(Debug)]
struct OnlineInference<'m> {
    model: &'m ClassifierModel,
    last_key_at: Option<SimInstant>,
    prev: Option<Delta>,
    stats: InferenceStats,
    probes: ProbeTally,
    /// The press the current decision accepted; one decision accepts at
    /// most one.
    key: Option<InferredKey>,
    /// The changes the current decision dismissed as noise, in order.
    noise: Vec<Delta>,
}

impl<'m> OnlineInference<'m> {
    fn new(model: &'m ClassifierModel) -> Self {
        OnlineInference {
            model,
            last_key_at: None,
            prev: None,
            stats: InferenceStats::default(),
            probes: ProbeTally::default(),
            key: None,
            noise: Vec::new(),
        }
    }

    /// Decides one counter change whose *decision* happens at `decided_at`
    /// — later than `delta.at` when the change waited for lookahead. Every
    /// press this call accepts is stamped with that decision time.
    fn decide(&mut self, delta: Delta, decided_at: SimInstant) {
        // Steps 1 and 2 below are the only consumers of Δ's own
        // classification, and exactly one of them runs.
        let primary = self.probes.classify_primary(self.model, &delta.values);
        // Step 1: duplication backtrace over T_l. Only changes that *look
        // like key presses* are animation duplicates; other changes inside
        // the window (such as the release echo) are ordinary noise and must
        // still reach the downstream correction detector.
        if let Some(last) = self.last_key_at {
            if delta.at.saturating_since(last) < T_L {
                if primary.key().is_some() {
                    self.stats.duplications_suppressed += 1;
                    // A duplicate must not seed a later recombination, but a
                    // leftover change it displaces is still noise downstream.
                    self.flush_prev();
                } else {
                    self.reject(delta);
                }
                return;
            }
        }
        // Step 2: direct classification.
        if let Classification::Key { ch, .. } = primary {
            self.accept(InferredKey { at: delta.at, decided_at, ch, via_split: false });
            self.stats.direct += 1;
            return;
        }
        // Step 2b: ambient-signature peeling. A popup frame and a field
        // redraw (echo or cursor blink) rendered at the same vsync land in
        // one read window; subtracting the known field-redraw signatures
        // recovers the popup. (Engineering extension beyond the paper's
        // Algorithm 1; see DESIGN.md.)
        if let Some((ch, sig)) = self.peel(&delta.values) {
            self.accept(InferredKey { at: delta.at, decided_at, ch, via_split: false });
            // Report the consumed field redraw as a synthetic echo so the
            // downstream correction detector keeps its length and blink
            // anchoring intact.
            self.noise.push(Delta { at: delta.at, values: *sig });
            self.stats.peeled += 1;
            return;
        }
        // Step 3: split recombination with the previous unconsumed change.
        if let Some(prev) = self.prev {
            if delta.at.saturating_since(prev.at) <= MAX_SPLIT_GAP {
                let combined = prev.values + delta.values;
                if let Classification::Key { ch, .. } = self.probes.classify(self.model, &combined)
                {
                    // Both fragments are consumed by the recombination.
                    self.prev = None;
                    self.accept(InferredKey { at: prev.at, decided_at, ch, via_split: true });
                    self.stats.splits_recovered += 1;
                    return;
                }
                // Step 3b: a field redraw (echo or cursor blink) can share a
                // read window with one of the fragments, so the plain sum
                // overshoots every centroid. Peel the known ambient
                // signatures off the recombined sum, exactly as step 2b does
                // for whole frames.
                if let Some((ch, sig)) = self.peel(&combined) {
                    self.prev = None;
                    self.accept(InferredKey { at: prev.at, decided_at, ch, via_split: true });
                    // Surface the consumed field redraw to the correction
                    // detector as a synthetic echo.
                    self.noise.push(Delta { at: delta.at, values: *sig });
                    self.stats.splits_recovered += 1;
                    self.stats.peeled += 1;
                    return;
                }
            } else {
                // The stale leftover is definitively noise.
                self.flush_prev();
            }
        }
        // Step 4: keep Δ around for one recombination attempt; if the next
        // change does not consume it, it becomes noise.
        if let Some(stale) = self.prev.replace(delta) {
            self.reject(stale);
        }
    }

    /// The best-scoring accepted residual of `v` over
    /// [`ClassifierModel::peel_residuals`], as `(key, signature)`. Every
    /// residual is probed and the closest hit wins (the first on a tie): a
    /// wrong-length signature can leave a residual that still clears C_th
    /// but lands on a *neighbouring* key; the true signature's residual is
    /// exact and always scores better.
    fn peel(&mut self, v: &CounterSet) -> Option<(char, &'m CounterSet)> {
        let model = self.model;
        let mut best: Option<(f64, char, &'m CounterSet)> = None;
        for (sig, residual) in model.peel_residuals(v) {
            if let Classification::Key { ch, distance } = self.probes.classify(model, &residual) {
                if best.is_none_or(|(d, ..)| distance < d) {
                    best = Some((distance, ch, sig));
                }
            }
        }
        best.map(|(_, ch, sig)| (ch, sig))
    }

    fn accept(&mut self, key: InferredKey) {
        self.last_key_at = Some(key.at);
        // An unconsumed leftover change is ordinary noise (usually an echo
        // frame); it must still reach the downstream correction detector.
        self.flush_prev();
        debug_assert!(self.key.is_none(), "one decision accepts at most one press");
        self.key = Some(key);
    }

    /// Dismisses a change as noise.
    fn reject(&mut self, delta: Delta) {
        self.noise.push(delta);
        self.stats.noise += 1;
    }

    /// Dismisses the pending unconsumed change, if any, as noise.
    fn flush_prev(&mut self) {
        if let Some(stale) = self.prev.take() {
            self.reject(stale);
        }
    }
}

/// Runs Algorithm 1 over a complete delta stream: the accepted presses,
/// the changes dismissed as noise (in the order they were dismissed, which
/// is time order) and the statistics.
pub fn infer_stream(
    model: &ClassifierModel,
    deltas: &[Delta],
) -> (Vec<InferredKey>, Vec<Delta>, InferenceStats) {
    run(InferStage::greedy(model), deltas)
}

/// The full-trace variant: identical to the greedy algorithm except that a
/// split recombination defers when combining the *next* change instead
/// would classify strictly better — the fix §5.1 says needs the whole trace
/// ("eavesdropping can only be done after the user input finishes"). Built
/// on [`InferStage::lookahead`], which buffers exactly one change, so the
/// "whole trace" requirement is really a one-read-interval delay.
pub fn infer_full_trace(
    model: &ClassifierModel,
    deltas: &[Delta],
) -> (Vec<InferredKey>, Vec<Delta>, InferenceStats) {
    run(InferStage::lookahead(model), deltas)
}

/// Pushes a whole change stream through `stage` and collects what it
/// decided.
fn run(
    mut stage: InferStage<'_>,
    deltas: &[Delta],
) -> (Vec<InferredKey>, Vec<Delta>, InferenceStats) {
    let (mut keys, mut noise) = (Vec::new(), Vec::new());
    let mut collect = |event| match event {
        InferEvent::Key(key) => keys.push(key),
        InferEvent::Noise(delta) => noise.push(delta),
    };
    for &delta in deltas {
        stage.push(delta).for_each(&mut collect);
    }
    stage.finish().for_each(&mut collect);
    (keys, noise, stage.stats())
}

/// Events out of the inference stage.
#[derive(Debug, Clone, PartialEq)]
pub enum InferEvent {
    /// A committed key press.
    Key(InferredKey),
    /// A change dismissed as noise — fuel for the downstream correction
    /// detector (echoes, blinks, stale fragments).
    Noise(Delta),
}

/// Algorithm 1 as a streaming stage: consumes in-target changes one at a
/// time and hands back what each decision produced, as [`InferEvent`]s.
///
/// Two variants share the same engine:
///
/// * [`InferStage::greedy`] decides every change the moment it arrives
///   (`decided_at == at` except for backdated splits);
/// * [`InferStage::lookahead`] buffers exactly one change so the §5.1
///   "full trace" split-pairing fix can compare against the *next* change —
///   decisions land one read interval later, the timeliness cost the
///   `latency` experiment quantifies.
#[derive(Debug)]
pub struct InferStage<'m> {
    engine: OnlineInference<'m>,
    /// One-change lookahead buffer; only used in lookahead mode.
    held: Option<Delta>,
    lookahead: bool,
}

impl<'m> InferStage<'m> {
    /// The streaming variant: every change is decided on arrival.
    pub fn greedy(model: &'m ClassifierModel) -> Self {
        InferStage { engine: OnlineInference::new(model), held: None, lookahead: false }
    }

    /// The bounded-lookahead variant behind `full_trace: true`.
    pub fn lookahead(model: &'m ClassifierModel) -> Self {
        InferStage { lookahead: true, ..InferStage::greedy(model) }
    }

    /// Inference statistics accumulated so far.
    pub fn stats(&self) -> InferenceStats {
        self.engine.stats
    }

    /// Pushes one change and returns what deciding it produced: the press
    /// it accepted, if any, then the changes it dismissed as noise, in
    /// order. In lookahead mode the change decided is the one held since
    /// the previous push, now that `input` is known, and `input` is held
    /// in its place. The downstream correction stage keys off timestamps,
    /// not arrival order.
    pub fn push(&mut self, input: Delta) -> impl Iterator<Item = InferEvent> + '_ {
        if !self.lookahead {
            self.engine.decide(input, input.at);
        } else if let Some(held) = self.held.replace(input) {
            self.lookahead_defer(&held, &input);
            self.engine.decide(held, input.at);
        }
        self.events()
    }

    /// Ends the stream: decides the held change, if any, and dismisses an
    /// unconsumed fragment as noise; returns what that produced, as
    /// [`InferStage::push`] does.
    pub fn finish(&mut self) -> impl Iterator<Item = InferEvent> + '_ {
        if let Some(held) = self.held.take() {
            // No next change exists, so the lookahead check is moot.
            self.engine.decide(held, held.at);
        }
        self.engine.flush_prev();
        self.events()
    }

    /// Moves the last decision's press and noise out, press first.
    fn events(&mut self) -> impl Iterator<Item = InferEvent> + '_ {
        let engine = &mut self.engine;
        let key = engine.key.take().map(InferEvent::Key);
        key.into_iter().chain(engine.noise.drain(..).map(InferEvent::Noise))
    }

    /// The lookahead fix, deciding `current` now that `next` is known:
    /// would `(current, next)` make a better split pair than
    /// `(prev, current)`? If so, drop `prev` to noise so the greedy step
    /// pairs `current` with `next`.
    fn lookahead_defer(&mut self, current: &Delta, next: &Delta) {
        let Some(prev) = self.engine.prev else { return };
        if current.at.saturating_since(prev.at) > MAX_SPLIT_GAP {
            return;
        }
        if next.at.saturating_since(current.at) > MAX_SPLIT_GAP {
            return;
        }
        let model = self.engine.model;
        let with_prev = self.engine.probes.classify(model, &(prev.values + current.values));
        let with_next = self.engine.probes.classify(model, &(current.values + next.values));
        let dist = |c: &Classification| match c {
            Classification::Key { distance, .. } => Some(*distance),
            Classification::Rejected => None,
        };
        if let (Some(dp), Some(dn)) = (dist(&with_prev), dist(&with_next)) {
            if dn < dp {
                self.engine.flush_prev();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{KeyCentroid, ModelMeta};
    use crate::offline::{Trainer, TrainerConfig};
    use adreno_sim::counters::{CounterSet, TrackedCounter, NUM_TRACKED};
    use android_ui::{
        AndroidVersion, KeyboardKind, PhoneModel, RefreshRate, Resolution, TargetApp,
    };

    fn set(tiles: u64, prims: u64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::Ras8x4Tiles] = tiles;
        c[TrackedCounter::VpcPcPrimitives] = prims;
        c
    }

    fn model() -> ClassifierModel {
        let meta = ModelMeta {
            phone: PhoneModel::OnePlus8Pro,
            android: AndroidVersion::V11,
            resolution: Resolution::Fhd,
            refresh: RefreshRate::Hz60,
            keyboard: KeyboardKind::Gboard,
            app: TargetApp::Chase,
        };
        ClassifierModel::new(
            meta,
            vec![
                KeyCentroid { ch: 'w', values: set(1000, 160) },
                KeyCentroid { ch: 'n', values: set(1100, 150) },
            ],
            [1.0; NUM_TRACKED],
            20.0,
            set(800, 120),
            set(8000, 60),
            vec![set(20, 2), set(24, 4)],
            set(9_000, 600),
            100_000,
        )
    }

    fn d(ms: u64, tiles: u64, prims: u64) -> Delta {
        Delta { at: SimInstant::from_millis(ms), values: set(tiles, prims) }
    }

    #[test]
    fn direct_classification() {
        let m = model();
        let (keys, noise, stats) = infer_stream(&m, &[d(100, 1000, 160), d(400, 1100, 150)]);
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].ch, 'w');
        assert_eq!(keys[1].ch, 'n');
        assert!(noise.is_empty());
        assert_eq!(stats.direct, 2);
    }

    #[test]
    fn duplication_suppressed_within_t_l() {
        let m = model();
        // GBoard animation: identical change 16 ms after the accepted one.
        let (keys, _, stats) =
            infer_stream(&m, &[d(100, 1000, 160), d(116, 1000, 160), d(400, 1100, 150)]);
        assert_eq!(keys.len(), 2, "duplicate must not become a second press");
        assert_eq!(stats.duplications_suppressed, 1);
    }

    #[test]
    fn presses_beyond_t_l_are_kept() {
        let m = model();
        // A genuine double letter 90 ms apart (fast typist) survives.
        let (keys, _, stats) = infer_stream(&m, &[d(100, 1000, 160), d(190, 1000, 160)]);
        assert_eq!(keys.len(), 2);
        assert_eq!(stats.duplications_suppressed, 0);
    }

    #[test]
    fn t_l_window_is_half_open() {
        let m = model();
        // A repeat 74 ms after the accepted press is an animation duplicate;
        // one exactly T_l = 75 ms after it is a new press.
        let (keys, _, stats) = infer_stream(&m, &[d(100, 1000, 160), d(174, 1000, 160)]);
        assert_eq!(keys.len(), 1, "74 ms is inside T_l");
        assert_eq!(stats.duplications_suppressed, 1);
        let (keys, _, stats) = infer_stream(&m, &[d(100, 1000, 160), d(175, 1000, 160)]);
        assert_eq!(keys.len(), 2, "75 ms is outside T_l");
        assert_eq!(stats.duplications_suppressed, 0);
    }

    #[test]
    fn split_recombination_recovers_the_press() {
        let m = model();
        // 'w' split across two adjacent reads (60% + 40%).
        let (keys, noise, stats) = infer_stream(&m, &[d(100, 600, 96), d(108, 400, 64)]);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].ch, 'w');
        assert_eq!(keys[0].at, SimInstant::from_millis(100), "split press is backdated");
        assert!(keys[0].via_split);
        assert!(noise.is_empty());
        assert_eq!(stats.splits_recovered, 1);
    }

    #[test]
    fn distant_fragments_do_not_recombine() {
        let m = model();
        // Same fragments, but 300 ms apart: both are noise.
        let (keys, noise, stats) = infer_stream(&m, &[d(100, 600, 96), d(400, 400, 64)]);
        assert!(keys.is_empty());
        assert_eq!(noise.len(), 2);
        assert_eq!(stats.noise, 2);
    }

    #[test]
    fn unmatched_changes_become_noise() {
        let m = model();
        let (keys, noise, stats) = infer_stream(&m, &[d(100, 5000, 10), d(300, 7000, 20)]);
        assert!(keys.is_empty());
        assert_eq!(noise.len(), 2);
        assert_eq!(stats.noise, 2);
        assert!(noise.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn greedy_miscombination_fixed_by_full_trace() {
        let m = model();
        // A noise fragment at t=100 followed by a genuine split pair at
        // t=108/116. Greedy combines (100,108) into a wrong-but-accepted
        // key; full-trace lookahead pairs (108,116) correctly.
        let noise_frag = d(100, 505, 86); // noise: combines with 108 to 'n'+ε (dist 5)
        let split_a = d(108, 600, 64);
        let split_b = d(116, 400, 96);
        // greedy: 100+108 = (1105, 150) ≈ 'n' (dist 5 ≤ C_th) → accepted wrongly,
        // and the real second fragment is then suppressed as a duplicate.
        let (keys_greedy, _, _) = infer_stream(&m, &[noise_frag, split_a, split_b]);
        // full trace: 108+116 = (1000,160) = 'w' exactly (dist 0 < 5) wins the pairing.
        let (keys_full, _, _) = infer_full_trace(&m, &[noise_frag, split_a, split_b]);
        assert_eq!(keys_greedy.first().map(|k| k.ch), Some('n'));
        assert_eq!(keys_full.first().map(|k| k.ch), Some('w'));
    }

    #[test]
    fn probes_are_tallied_and_published_once_when_the_engine_drops() {
        let m = model();
        let track = spansight::register_track("online-probe-tally");
        let _track = spansight::enter_track(track);
        let published = || {
            let snap = spansight::snapshot().for_track(track);
            let latency = snap.hists.iter().map(|h| h.hist.total()).sum::<u64>();
            (
                snap.counter("core.classify.accepted"),
                snap.counter("core.classify.rejected"),
                latency,
            )
        };
        let mut stage = InferStage::greedy(&m);
        // A rejected fragment (1 primary; both fragments sit below the
        // acceptance box's tile range, so no peel residual is probed), then
        // the rest of the split (1 primary + the accepted recombined sum):
        // 3 probes, 1 accepted, 2 of them timed primaries.
        assert_eq!(stage.push(d(100, 600, 96)).count(), 0);
        let events: Vec<InferEvent> = stage.push(d(108, 400, 64)).collect();
        assert!(matches!(events[..], [InferEvent::Key(_)]));
        assert_eq!(published(), (0, 0, 0), "nothing is published per probe");
        drop(stage);
        assert_eq!(published(), (1, 2, 2));
    }

    #[test]
    fn noise_changes_make_one_probe_each() {
        // Echoes and cursor blinks (field redraws, one per signature), a
        // keyboard redraw and the app's launch burst on a trained model:
        // each is rejected by its primary probe alone, because no ambient
        // signature can leave a residual inside the acceptance box — the
        // first ones are too small for that on some counter, the launch
        // burst too large.
        let cfg = android_ui::SimConfig::paper_default(11);
        let m = Trainer::new(TrainerConfig::default()).train(cfg.device, cfg.keyboard, cfg.app);
        let noise: Vec<CounterSet> = m
            .ambient_signatures()
            .iter()
            .chain([m.kb_signature(), m.launch_signature()])
            .copied()
            .collect();
        assert!(noise.len() > 10, "a trained model anticipates many input lengths");
        let track = spansight::register_track("online-noise-probes");
        let _track = spansight::enter_track(track);
        // Spaced beyond the split gap, so no change is recombined.
        let deltas: Vec<Delta> = noise
            .iter()
            .enumerate()
            .map(|(i, v)| Delta { at: SimInstant::from_millis(100 + 300 * i as u64), values: *v })
            .collect();
        let (keys, rejected, stats) = infer_stream(&m, &deltas);
        assert!(keys.is_empty());
        assert_eq!((rejected.len(), stats.noise), (noise.len(), noise.len()));
        let snap = spansight::snapshot().for_track(track);
        let n = noise.len() as u64;
        assert_eq!(
            (snap.counter("core.classify.accepted"), snap.counter("core.classify.rejected")),
            (0, n),
            "one probe per noise change"
        );
    }

    #[test]
    fn finish_flushes_leftover_as_noise() {
        let m = model();
        let mut stage = InferStage::greedy(&m);
        let fragment = d(100, 600, 96); // un-classifiable, held for a split
        assert_eq!(stage.push(fragment).count(), 0);
        assert_eq!(stage.finish().collect::<Vec<_>>(), vec![InferEvent::Noise(fragment)]);
        assert_eq!(stage.stats().noise, 1);
    }
}
