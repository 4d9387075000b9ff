//! The per-configuration classification model (§5.1, Fig 12).
//!
//! A [`ClassifierModel`] holds one centroid per key — the counter delta of
//! that key's popup frame on one `(phone, OS, resolution, refresh rate,
//! keyboard)` configuration — plus the acceptance threshold `C_th`, chosen
//! offline to eliminate false positives, and the auxiliary signatures the
//! detectors of §5.2/§5.3 need.
//!
//! Distances are computed in a *whitened* space (each counter scaled by the
//! inverse inter-centroid spread), so small-but-informative counters such as
//! primitive counts are not drowned out by pixel counts.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use android_ui::{AndroidVersion, KeyboardKind, PhoneModel, RefreshRate, Resolution, TargetApp};
use std::fmt;

/// One key's trained centroid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyCentroid {
    /// The key this centroid was trained on.
    pub ch: char,
    /// Mean per-press counter deltas across the training presses.
    pub values: CounterSet,
}

/// Identifies the configuration a model was trained for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelMeta {
    /// Phone the training traces came from.
    pub phone: PhoneModel,
    /// Android version of the training device.
    pub android: AndroidVersion,
    /// Screen resolution (affects tile counts).
    pub resolution: Resolution,
    /// Display refresh rate (affects frame cadence).
    pub refresh: RefreshRate,
    /// Keyboard app the victim types on.
    pub keyboard: KeyboardKind,
    /// Target app whose text field receives the input.
    pub app: TargetApp,
}

impl fmt::Display for ModelMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / Android {} / {} / {} / {} / {}",
            self.phone.name(),
            self.android.name(),
            self.resolution.name(),
            self.refresh,
            self.keyboard,
            self.app
        )
    }
}

/// Result of classifying one counter delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Classification {
    /// Accepted as the key press of `ch` (weighted distance within `C_th`).
    Key {
        /// The inferred key.
        ch: char,
        /// Weighted distance to that key's centroid.
        distance: f64,
    },
    /// Rejected: no centroid within `C_th`, or the nearest one failed the
    /// magnitude gate. The scan stops once no centroid can be within
    /// `C_th`, so a rejection names no nearest centroid;
    /// [`ClassifierModel::nearest`] finds it when it is wanted.
    Rejected,
}

impl Classification {
    /// The accepted character, if any.
    pub fn key(&self) -> Option<char> {
        match self {
            Classification::Key { ch, .. } => Some(*ch),
            Classification::Rejected => None,
        }
    }
}

/// Hot-path lookup data derived from the centroids at construction time.
/// Never serialised — [`ClassifierModel::new`] builds it.
#[derive(Debug, Clone, PartialEq)]
struct PreparedCentroids {
    /// One fixed-length *pre-whitened* `f64` row per centroid
    /// (`value * weight`, the whitening applied once at build time), so the
    /// scan loop streams one contiguous row per candidate and its inner
    /// body is pure subtract-square-accumulate — no per-element weight
    /// multiply, no `u64` re-conversion. The fixed row length keeps every
    /// kernel call on the compile-time-sized `simdlite::*_fixed` path
    /// (fully unrolled, no bounds checks).
    rows: Vec<[f64; NUM_TRACKED]>,
    /// Per centroid, the total magnitude the §5.1 gate compares against:
    /// that of the *first* centroid sharing the key, exactly what the
    /// previous by-key linear scan found.
    gate_totals: Vec<f64>,
    /// Centroid indices sorted by whitened norm (ties by index): the
    /// best-first visit order of the outward scan. A probe's nearest
    /// centroid tends to sit nearby in norm, so scanning outward from the
    /// probe's own norm finds a tight `best_acc` almost immediately — and
    /// because the norm-gap lower bound only grows with the gap, the first
    /// candidate a direction *excludes* ends that entire direction.
    order: Vec<u32>,
    /// `norms[order[k]]` — the norms in visit order, one contiguous array
    /// for the outward scan's binary search and gap tests.
    sorted_norms: Vec<f64>,
}

impl PreparedCentroids {
    fn build(centroids: &[KeyCentroid], weights: &[f64; NUM_TRACKED]) -> Self {
        let rows: Vec<[f64; NUM_TRACKED]> =
            centroids.iter().map(|c| whiten(&c.values, weights)).collect();
        let norms: Vec<f64> = rows.iter().map(|r| simdlite::sq_norm_fixed(r).sqrt()).collect();
        let gate_totals = centroids
            .iter()
            .map(|c| {
                centroids.iter().find(|o| o.ch == c.ch).map(|o| o.values.total()).unwrap_or(0)
                    as f64
            })
            .collect();
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        order.sort_by(|&a, &b| norms[a as usize].total_cmp(&norms[b as usize]).then(a.cmp(&b)));
        let sorted_norms = order.iter().map(|&i| norms[i as usize]).collect();
        PreparedCentroids { rows, gate_totals, order, sorted_norms }
    }
}

/// Upper bound on the *relative* floating-point error of a computed norm
/// `fl(sqrt(Σ v_i²))`: the chain is ~13 roundings at `2⁻⁵³` each, bounded
/// here by a generous `2⁻⁴⁵`.
const NORM_REL_ERR: f64 = 1.0 / (1u64 << 45) as f64;

/// Whether the norm gap between probe and candidate *provably* excludes the
/// candidate: returns `true` only when the candidate's computed squared
/// distance is guaranteed to come out `>= best_acc`. The ordered scan
/// passes its cutoff as `best_acc`: the tie-guarded `best · TIE_GUARD`
/// once a candidate has completed, so an excluded candidate cannot even tie
/// the incumbent in rounded `sqrt` space and skipping it cannot change
/// which centroid is selected; before that, the scan's bound, which an
/// excluded candidate's distance would fail (see [`accept_bound`]).
///
/// Soundness: with `g` the computed norm gap and `t = (an + bn)·2⁻⁴⁵` an
/// upper bound on its absolute error (the true gap lies in `g ± t`), the
/// reverse triangle inequality gives
/// `dist² ≥ gap_true² ≥ (|g| - t)² ≥ g² - 2|g|t - t²` — and the computed
/// squared distance itself only adds relative error far below the slack in
/// `t`'s margin (`2⁻⁴⁵` vs the true `~13·2⁻⁵³`) and one extra `t²`. So when
/// `g² - 2|g|t - 2t² ≥ best_acc`, the kernel's completed sum could not beat
/// `best_acc` either. A probe bitwise-equal to a centroid computes the
/// *same* norm (identical input, deterministic chain), gap exactly `0.0`,
/// and is never skipped.
#[inline]
fn norm_gap_excludes(an: f64, bn: f64, best_acc: f64) -> bool {
    let g = (an - bn).abs();
    let t = (an + bn) * NORM_REL_ERR;
    g * g - 2.0 * g * t - 2.0 * t * t >= best_acc
}

/// Tie guard for the out-of-order scan's pruning cutoff.
///
/// The ordered scan resolves equal *distances* to the lowest centroid
/// index, which is what the in-index-order scans get for free from their
/// strict `<` update. But two different squared sums within ~4 ulp of each
/// other can round to the *same* `sqrt`, so pruning at exactly the best
/// squared sum could drop a candidate that ties in distance while holding a
/// smaller index. Pruning at `best_acc * TIE_GUARD` instead is safe in both
/// directions:
///
/// * any `acc` whose rounded `sqrt` equals the best distance satisfies
///   `acc <= best_acc * (1 + 2⁻⁵⁰)` (the sqrt-preimage of one `f64` spans a
///   relative range ≲ 4·2⁻⁵³), so no potential tie is ever pruned;
/// * any `acc` above the guard has `sqrt(acc)/sqrt(best_acc) ≥ 1 + 2⁻⁵¹`,
///   more than an ulp apart, so its rounded distance is strictly larger and
///   it could not have won anyway.
const TIE_GUARD: f64 = 1.0 + 1.0 / (1u64 << 50) as f64;

/// The acceptance bound of `threshold`: the smallest `f64` whose rounded
/// square root exceeds it.
///
/// `fl(sqrt(·))` is monotone, so a squared sum below the bound has a
/// distance `<= threshold` and a sum at or above it a distance
/// `> threshold`. Seeding the scan's cutoff with the bound therefore prunes
/// exactly the candidates the threshold test would reject. `threshold²`
/// lands within a few ulps of the bound, so the walks below take a few
/// steps.
///
/// # Panics
///
/// Panics if `threshold` is not positive and finite.
fn accept_bound(threshold: f64) -> f64 {
    assert!(threshold > 0.0 && threshold.is_finite(), "C_th must be positive and finite");
    let mut bound = threshold * threshold;
    while bound.sqrt() > threshold {
        bound = bound.next_down();
    }
    while bound.sqrt() <= threshold {
        bound = bound.next_up();
    }
    bound
}

/// The exact per-counter acceptance box: for each tracked counter `i`, the
/// integer range `[lo[i], hi[i]]` outside which no probe can lie within
/// `C_th` of any centroid. A probe outside it is rejected before it is
/// whitened or scanned.
///
/// Soundness rests on two facts about the kernel's computed squared sum
/// (the same argument as [`norm_gap_excludes`], but with no margin to
/// spend, because the box tests the kernel's own expression):
///
/// * every term is a computed `f64` square and every lane and tree
///   addition adds non-negative values, and rounding is monotone, so the
///   completed sum is never below any single term;
/// * counter `i`'s term against centroid `c`,
///   `fl(fl(fl(x) · w_i) − row_ci)²`, only grows as the count `x` moves
///   away from `c_i`: the conversion, the product with `w_i > 0`, the
///   difference and the square are each monotone.
///
/// So per `(counter, centroid)` the counts whose term stays below the
/// acceptance bound form one interval around `c_i`, and
/// [`last_inside`] finds its ends by evaluating that term exactly. The
/// box is the union of those intervals over the centroids: a count outside
/// it gives every centroid a term, hence a sum, at or above the bound, so
/// the scan and the naive oracle both reject. The faces are exact: at
/// `hi[i]` with every other counter equal to the centroid that set it, the
/// distance is within `C_th`. A counter with a weight that is not positive
/// and finite, or whose centroid coordinate whitens to a non-finite value,
/// is left unbounded (`[0, u64::MAX]`).
#[derive(Debug, Clone, PartialEq)]
struct AcceptBox {
    lo: [u64; NUM_TRACKED],
    hi: [u64; NUM_TRACKED],
}

impl AcceptBox {
    fn build(
        centroids: &[KeyCentroid],
        rows: &[[f64; NUM_TRACKED]],
        weights: &[f64; NUM_TRACKED],
        accept_sq: f64,
    ) -> Self {
        let mut bbox = AcceptBox { lo: [u64::MAX; NUM_TRACKED], hi: [0; NUM_TRACKED] };
        for (i, &w) in weights.iter().enumerate() {
            // The distance `C_th` spans in counts: only where the search starts.
            let reach = (accept_sq.sqrt() / w) as u64;
            let (lo, hi) = (&mut bbox.lo[i], &mut bbox.hi[i]);
            for (c, row) in centroids.iter().zip(rows) {
                let (x0, r) = (c.values.as_array()[i], row[i]);
                let inside = |x: u64| {
                    let d = x as f64 * w - r;
                    d * d < accept_sq
                };
                if !(w > 0.0 && w.is_finite() && inside(x0)) {
                    (*lo, *hi) = (0, u64::MAX);
                    break;
                }
                // An interval that holds `x0` widens a face only if it also
                // holds the count just past it, and one test tells: the
                // term is monotone away from `x0`.
                if x0 > *hi || hi.checked_add(1).is_some_and(inside) {
                    *hi = x0 + last_inside(u64::MAX - x0, reach, |k| inside(x0 + k));
                }
                if x0 < *lo || lo.checked_sub(1).is_some_and(inside) {
                    *lo = x0 - last_inside(x0, reach, |k| inside(x0 - k));
                }
            }
        }
        bbox
    }

    #[inline]
    fn contains(&self, v: &CounterSet) -> bool {
        let faces = self.lo.iter().zip(&self.hi);
        v.as_array().iter().zip(faces).fold(true, |ok, (x, (lo, hi))| ok & (lo <= x) & (x <= hi))
    }
}

/// The largest `k` in `[0, max]` with `inside(k)`, for a predicate that
/// holds at `0` and, once false, stays false. Gallops from `guess` to
/// bracket the edge, then bisects; a close guess costs a handful of calls.
fn last_inside(max: u64, guess: u64, inside: impl Fn(u64) -> bool) -> u64 {
    if inside(max) {
        return max;
    }
    // Invariant once bracketed: `inside(lo)` and `!inside(hi)`.
    let (mut lo, mut hi);
    let mut step = 1u64;
    let guess = guess.min(max);
    if inside(guess) {
        lo = guess;
        loop {
            let next = lo.saturating_add(step).min(max);
            if !inside(next) {
                hi = next;
                break;
            }
            lo = next;
            step = step.saturating_mul(2);
        }
    } else {
        hi = guess;
        loop {
            let next = hi.saturating_sub(step);
            if inside(next) {
                lo = next;
                break;
            }
            hi = next;
            step = step.saturating_mul(2);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if inside(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Maps a counter vector into the whitened `f64` space the classifier
/// measures distances in: `out[i] = (v[i] as f64) * w[i]`.
///
/// Every distance in this module subtracts two vectors whitened by this
/// exact expression and squares the difference — `aw[i] - bw[i]`, not
/// `(a[i] - b[i]) * w[i]`. The two forms differ in their rounding, so the
/// choice is part of the bit-exactness contract: prepared rows, per-call
/// probes and the naive oracle's operands all go through this one function,
/// which is what keeps the pruned scan and [`ClassifierModel::distance`]
/// bit-identical to each other.
#[inline]
fn whiten(v: &CounterSet, w: &[f64; NUM_TRACKED]) -> [f64; NUM_TRACKED] {
    let mut out = v.to_f64();
    for (o, wi) in out.iter_mut().zip(w) {
        *o *= wi;
    }
    out
}

/// One probe in the scan's domain.
#[derive(Debug, Clone, Copy)]
struct ProbeState {
    /// The probe whitened into the kernel's `f64` domain.
    av: [f64; NUM_TRACKED],
    /// `‖av‖`, the outward scan's starting point and prescreen operand.
    an: f64,
}

impl ProbeState {
    fn new(v: &CounterSet, weights: &[f64; NUM_TRACKED]) -> Self {
        let av = whiten(v, weights);
        ProbeState { av, an: simdlite::sq_norm_fixed(&av).sqrt() }
    }
}

/// A trained classification model for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierModel {
    meta: ModelMeta,
    centroids: Vec<KeyCentroid>,
    prepared: PreparedCentroids,
    /// Per-counter whitening weights (1 / inter-centroid spread).
    weights: [f64; NUM_TRACKED],
    /// Acceptance threshold in whitened distance.
    threshold: f64,
    /// [`accept_bound`] of `threshold`, derived wherever it is set: the
    /// squared-sum cutoff [`ClassifierModel::classify`] starts its scan
    /// from.
    accept_sq: f64,
    /// The [`AcceptBox`] of the centroids, weights and `accept_sq`, rebuilt
    /// wherever any of them is set.
    accept_box: AcceptBox,
    /// Base keyboard redraw delta (a popup-hide frame): the configuration's
    /// fingerprint, used for device recognition (§3.2).
    kb_signature: CounterSet,
    /// Field-region redraw with empty text and the cursor visible: the
    /// baseline echo delta, anchor for the §5.3 correction detector.
    app_signature: CounterSet,
    /// Exact field-redraw signatures for every input length the attacker
    /// anticipates, alternating cursor-off/cursor-on per length. Rendered
    /// offline — text cells straddle supertile boundaries, so the
    /// signatures are *not* an affine function of the length and must be
    /// precomputed rather than extrapolated.
    field_signatures: Vec<CounterSet>,
    /// Per counter, the smallest and the largest value over
    /// `field_signatures` (`u64::MAX` and `0` when there are none): the
    /// span [`ClassifierModel::peel_residuals`] tests against the box.
    ambient_span: ([u64; NUM_TRACKED], [u64; NUM_TRACKED]),
    /// The target app's cold-launch burst (login screen + keyboard + status
    /// bar rendering together): the §3.2 trigger the monitoring service
    /// waits for.
    launch_signature: CounterSet,
    /// Delta magnitude above which a change is app-switch-sized (§5.2).
    switch_threshold: u64,
}

impl ClassifierModel {
    /// Assembles a model from trained parts. Normally produced by
    /// [`crate::offline::Trainer`].
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty or `threshold` is not positive and
    /// finite.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        meta: ModelMeta,
        centroids: Vec<KeyCentroid>,
        weights: [f64; NUM_TRACKED],
        threshold: f64,
        kb_signature: CounterSet,
        app_signature: CounterSet,
        field_signatures: Vec<CounterSet>,
        launch_signature: CounterSet,
        switch_threshold: u64,
    ) -> Self {
        assert!(!centroids.is_empty(), "a model needs at least one key centroid");
        let accept_sq = accept_bound(threshold);
        let prepared = PreparedCentroids::build(&centroids, &weights);
        let accept_box = AcceptBox::build(&centroids, &prepared.rows, &weights, accept_sq);
        let mut ambient_span = ([u64::MAX; NUM_TRACKED], [0; NUM_TRACKED]);
        for sig in &field_signatures {
            for (i, &x) in sig.as_array().iter().enumerate() {
                ambient_span.0[i] = ambient_span.0[i].min(x);
                ambient_span.1[i] = ambient_span.1[i].max(x);
            }
        }
        ClassifierModel {
            meta,
            centroids,
            prepared,
            weights,
            threshold,
            accept_sq,
            accept_box,
            kb_signature,
            app_signature,
            field_signatures,
            ambient_span,
            launch_signature,
            switch_threshold,
        }
    }

    /// The configuration this model was trained for.
    pub fn meta(&self) -> &ModelMeta {
        &self.meta
    }

    /// The trained key centroids.
    pub fn centroids(&self) -> &[KeyCentroid] {
        &self.centroids
    }

    /// The acceptance threshold `C_th`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The whitening weights.
    pub fn weights(&self) -> &[f64; NUM_TRACKED] {
        &self.weights
    }

    /// The keyboard base-redraw fingerprint.
    pub fn kb_signature(&self) -> &CounterSet {
        &self.kb_signature
    }

    /// The app echo-frame anchor (field redraw, empty text, cursor on).
    pub fn app_signature(&self) -> &CounterSet {
        &self.app_signature
    }

    /// The target app's cold-launch render burst.
    pub fn launch_signature(&self) -> &CounterSet {
        &self.launch_signature
    }

    /// The ambient redraw signatures an attacker can expect to find summed
    /// into a read window: field redraws at every anticipated input length,
    /// with and without the cursor. Algorithm 1's peeling step subtracts
    /// these from otherwise-unclassifiable changes (a popup frame and a
    /// cursor blink can share a vsync and therefore a read window).
    pub fn ambient_signatures(&self) -> &[CounterSet] {
        &self.field_signatures
    }

    /// The acceptance box as `(lo, hi)`: per tracked counter, the integer
    /// range `[lo[i], hi[i]]` outside which [`ClassifierModel::classify`]
    /// rejects a probe without scanning it. Exact: no probe outside it is
    /// within `C_th` of a centroid, and each finite face has a probe within
    /// `C_th` of the centroid that sets it.
    pub fn acceptance_box(&self) -> ([u64; NUM_TRACKED], [u64; NUM_TRACKED]) {
        (self.accept_box.lo, self.accept_box.hi)
    }

    /// The app-switch burst magnitude threshold.
    pub fn switch_threshold(&self) -> u64 {
        self.switch_threshold
    }

    /// Returns a copy of the model with a different acceptance threshold
    /// (used by the threshold-sweep ablation).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not positive and finite.
    pub fn with_threshold(&self, threshold: f64) -> ClassifierModel {
        let accept_sq = accept_bound(threshold);
        let accept_box =
            AcceptBox::build(&self.centroids, &self.prepared.rows, &self.weights, accept_sq);
        ClassifierModel { threshold, accept_sq, accept_box, ..self.clone() }
    }

    /// Weighted (whitened) Euclidean distance between two counter vectors.
    ///
    /// Both vectors are mapped through `whiten` and the squared distance
    /// is computed with the `simdlite` chunked kernel. Every distance in
    /// this module — here and in the pruned scan — whitens with the same
    /// expression and sums with the same kernel lane order, which is what
    /// makes the pruned scan *bit-identical* to the naive references rather
    /// than merely close.
    pub fn distance(&self, a: &CounterSet, b: &CounterSet) -> f64 {
        simdlite::sq_dist_fixed(&whiten(a, &self.weights), &whiten(b, &self.weights)).sqrt()
    }

    /// The nearest centroid to `v` and its whitened distance: the unbounded
    /// search (offline `C_th` calibration needs the true nearest distance,
    /// however far).
    pub fn nearest(&self, v: &CounterSet) -> (char, f64) {
        let p = ProbeState::new(v, &self.weights);
        // The unbounded scan completes every finite sum, so it finds nothing
        // only when every distance overflows — where the in-order naive scan
        // also ends on the first centroid at +∞.
        let (idx, d) = self.nearest_ordered(&p, f64::INFINITY).unwrap_or((0, f64::INFINITY));
        (self.centroids[idx].ch, d)
    }

    /// The shared nearest-centroid kernel scan, bounded by the squared sum
    /// `bound`: [`ClassifierModel::nearest`] passes `+∞`, the classifying
    /// paths the acceptance bound. Returns `None` when no centroid's squared
    /// sum falls below `bound`. Three pruning layers compound:
    ///
    /// * **Best-first order.** Candidates are visited outward from the
    ///   probe's own whitened norm (binary search into `sorted_norms`, then
    ///   a two-cursor walk that always takes the side with the smaller norm
    ///   gap). The true nearest centroid is usually among the first few
    ///   visited, so `best_acc` collapses almost immediately.
    /// * **Directional cutoff.** `(‖a‖-‖b‖)² ≤ ‖a-b‖²`, so a candidate
    ///   whose norm gap already rules it out ([`norm_gap_excludes`], with
    ///   the documented rounding margins) is skipped — and since the gap
    ///   only grows moving away from the probe's norm while the bound is
    ///   monotone in the gap (it fires only once `g` clears `(1+√3)t`, past
    ///   which it increases with `g`), the *first* excluded candidate on a
    ///   side retires that whole direction. An accept probe typically costs
    ///   one kernel call plus two gap tests; a probe whose norm is more
    ///   than `C_th` away from every centroid's, one or two gap tests and
    ///   no kernel call.
    /// * **Chunked partial-distance exit.** [`simdlite::sq_dist_pruned_fixed`]
    ///   aborts a surviving candidate at the first 4-lane chunk boundary
    ///   where its running sum reaches the cutoff.
    ///
    /// Equivalence with the in-index-order naive scan: that scan's strict
    /// `d < best` update keeps the lowest-indexed centroid among those
    /// tying at the minimal rounded distance. Visiting out of order, the
    /// update here breaks equal distances by index explicitly, and both the
    /// kernel cutoff and the prescreen use `best_acc * TIE_GUARD` so a
    /// candidate that could still *tie* in `sqrt`-space is never pruned.
    /// Completed sums come from the same kernel in the same lane order, so
    /// the selected centroid and reported distance stay bit-identical to
    /// [`ClassifierModel::nearest_naive`] whenever that centroid's squared
    /// sum lies below `bound`: the nearest centroid is never pruned by a
    /// cutoff above its own sum.
    fn nearest_ordered(&self, probe: &ProbeState, bound: f64) -> Option<(usize, f64)> {
        let p = &self.prepared;
        let (av, an) = (&probe.av, probe.an);
        let n = p.order.len();
        let mut best_idx = 0usize;
        let mut best_d = f64::INFINITY;
        let mut cutoff = bound;
        // Rows below `an` live at [0, lo), rows at/above it at [hi, n);
        // retiring a direction empties its interval.
        let mut hi = p.sorted_norms.partition_point(|&x| x < an);
        let mut lo = hi;
        loop {
            let take_lo = if lo > 0 && hi < n {
                an - p.sorted_norms[lo - 1] <= p.sorted_norms[hi] - an
            } else if lo > 0 {
                true
            } else if hi < n {
                false
            } else {
                break;
            };
            let k = if take_lo { lo - 1 } else { hi };
            if norm_gap_excludes(an, p.sorted_norms[k], cutoff) {
                if take_lo {
                    lo = 0;
                } else {
                    hi = n;
                }
                continue;
            }
            if take_lo {
                lo -= 1;
            } else {
                hi += 1;
            }
            let idx = p.order[k] as usize;
            if let Some(acc) = simdlite::sq_dist_pruned_fixed(av, &p.rows[idx], cutoff) {
                let d = acc.sqrt();
                if d < best_d || (d == best_d && idx < best_idx) {
                    best_idx = idx;
                    best_d = d;
                    cutoff = acc * TIE_GUARD;
                }
            }
        }
        // A completed sum lies below a cutoff ≤ `bound` or below a finite
        // incumbent's guard, so its distance is finite: `best_d` stays +∞
        // exactly when nothing completed.
        (best_d < f64::INFINITY).then_some((best_idx, best_d))
    }

    /// Reference nearest-centroid scan without pruning: computes the full
    /// whitened distance to every centroid via [`ClassifierModel::distance`].
    /// Semantically identical to [`ClassifierModel::nearest`]; kept as the
    /// oracle for the equivalence proptest and the `hotpath` benchmark.
    pub fn nearest_naive(&self, v: &CounterSet) -> (char, f64) {
        let mut best = (self.centroids[0].ch, f64::INFINITY);
        for c in &self.centroids {
            let d = self.distance(v, &c.values);
            if d < best.1 {
                best = (c.ch, d);
            }
        }
        best
    }

    /// Relative tolerance of the magnitude gate: a candidate's total
    /// counter activity must be within this fraction of the matched
    /// centroid's total. Two failure modes motivate the gate:
    ///
    /// * the whitened metric deliberately down-weights the base-redraw
    ///   dimensions (they carry no per-key information), so without the
    ///   gate the *sum of two unrelated base redraws* — e.g. a popup-hide
    ///   frame plus a page-switch frame — could recombine into a phantom
    ///   key press;
    /// * a *split* read that caught most (e.g. 7/8) of a popup frame can
    ///   land near a neighbouring key's centroid; gating on magnitude sends
    ///   it to split recombination instead, which then reconstructs the
    ///   exact frame.
    ///
    /// True key deltas match their centroid totals almost exactly, so 8 %
    /// is generous for signal while excluding both failure modes.
    pub const MAGNITUDE_TOLERANCE: f64 = 0.08;

    /// Classifies a delta: nearest centroid, accepted iff within `C_th`
    /// (the `SearchMinDist` + threshold test of Algorithm 1) *and* of
    /// key-frame-sized total magnitude.
    ///
    /// Algorithm 1 needs only that yes/no, so a probe outside the
    /// acceptance box ([`ClassifierModel::acceptance_box`]) is rejected
    /// before it is whitened, and the scan of one inside it starts from the
    /// acceptance bound instead of `+∞`: a probe with no centroid within
    /// `C_th` is rejected without its nearest centroid ever being found,
    /// while an accepted probe finds the same centroid at a bit-identical
    /// distance. No clock is read and no telemetry is recorded here; the
    /// caller counts its probes (see [`crate::online`]).
    pub fn classify(&self, v: &CounterSet) -> Classification {
        if !self.accept_box.contains(v) {
            return Classification::Rejected;
        }
        let probe = ProbeState::new(v, &self.weights);
        let Some((idx, distance)) = self.nearest_ordered(&probe, self.accept_sq) else {
            return Classification::Rejected;
        };
        // The bounded search has applied the `C_th` test; the magnitude gate
        // accepts the centroid it found iff the probe is key-frame-sized.
        debug_assert!(distance <= self.threshold, "the acceptance bound admits only C_th hits");
        let centroid_total = self.prepared.gate_totals[idx];
        let total = v.total() as f64;
        if centroid_total > 0.0
            && (total - centroid_total).abs() <= centroid_total * Self::MAGNITUDE_TOLERANCE
        {
            return Classification::Key { ch: self.centroids[idx].ch, distance };
        }
        Classification::Rejected
    }

    /// Algorithm 1's peeling step (steps 2b and 3b, an extension beyond
    /// the paper; see DESIGN.md): the `(signature, residual)` pairs left by
    /// subtracting each ambient signature that fits under `v`, in signature
    /// order.
    ///
    /// Yields nothing when no residual could pass the box test of
    /// [`ClassifierModel::classify`]: a residual `v_i − s_i` lies in
    /// `[lo_i, hi_i]` only if `s_i` lies in `[v_i − hi_i, v_i − lo_i]`, so
    /// when that range misses the signatures' `[min_i, max_i]` on some
    /// counter, every residual would be rejected. The test is exact integer
    /// arithmetic. An echo, a cursor blink or a keyboard redraw is too small
    /// or too large on some counter to leave a key-sized residual, so it is
    /// dismissed here for the cost of one pass over its counters.
    pub fn peel_residuals<'a>(
        &'a self,
        v: &CounterSet,
    ) -> impl Iterator<Item = (&'a CounterSet, CounterSet)> + 'a {
        let (sig_min, sig_max) = &self.ambient_span;
        let (lo, hi) = (&self.accept_box.lo, &self.accept_box.hi);
        let x = v.as_array();
        let may_fit = (0..NUM_TRACKED).all(|i| {
            x[i].checked_sub(lo[i]).is_some_and(|top| top >= sig_min[i])
                && x[i].saturating_sub(hi[i]) <= sig_max[i]
        });
        let sigs: &[CounterSet] = if may_fit { &self.field_signatures } else { &[] };
        let v = *v;
        sigs.iter().filter_map(move |s| Some((s, v.checked_sub(s)?)))
    }

    /// Reference classification built on [`ClassifierModel::nearest_naive`]
    /// (an unbounded, unpruned scan), the plain `distance <= C_th` test and
    /// the original by-key magnitude-gate scan. The equivalence proptests
    /// pin [`ClassifierModel::classify`] to this.
    pub fn classify_naive(&self, v: &CounterSet) -> Classification {
        let (ch, distance) = self.nearest_naive(v);
        if distance <= self.threshold {
            let centroid_total =
                self.centroids.iter().find(|c| c.ch == ch).map(|c| c.values.total()).unwrap_or(0)
                    as f64;
            let total = v.total() as f64;
            if centroid_total > 0.0
                && (total - centroid_total).abs() <= centroid_total * Self::MAGNITUDE_TOLERANCE
            {
                return Classification::Key { ch, distance };
            }
        }
        Classification::Rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::TrackedCounter;

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

    fn set(base: u64, prims: u64) -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::Ras8x4Tiles] = base;
        c[TrackedCounter::VpcPcPrimitives] = prims;
        c
    }

    fn model() -> ClassifierModel {
        let centroids = vec![
            KeyCentroid { ch: 'a', values: set(1000, 150) },
            KeyCentroid { ch: 'b', values: set(1040, 160) },
            KeyCentroid { ch: 'c', values: set(980, 170) },
        ];
        let mut weights = [1.0; NUM_TRACKED];
        weights[TrackedCounter::VpcPcPrimitives.index()] = 2.0;
        ClassifierModel::new(
            meta(),
            centroids,
            weights,
            25.0,
            set(900, 140),
            set(5000, 40),
            vec![set(20, 2), set(24, 4)],
            set(9000, 300),
            50_000,
        )
    }

    #[test]
    fn exact_centroid_classifies() {
        let m = model();
        assert_eq!(m.classify(&set(1040, 160)).key(), Some('b'));
    }

    #[test]
    fn near_centroid_within_threshold_classifies() {
        let m = model();
        assert_eq!(m.classify(&set(1005, 151)).key(), Some('a'));
    }

    #[test]
    fn far_vectors_are_rejected_with_nearest_reported() {
        let m = model();
        assert_eq!(m.classify(&set(5000, 40)), Classification::Rejected);
        let (nearest, distance) = m.nearest(&set(5000, 40));
        assert_eq!(nearest, 'b');
        assert!(distance > 25.0);
    }

    #[test]
    fn weights_change_the_metric() {
        let m = model();
        // 10 apart in prims (weight 2) is "further" than 15 apart in tiles.
        let d_prims = m.distance(&set(1000, 150), &set(1000, 160));
        let d_tiles = m.distance(&set(1000, 150), &set(1015, 150));
        assert!(d_prims > d_tiles);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_model_rejected() {
        let _ = ClassifierModel::new(
            meta(),
            vec![],
            [1.0; NUM_TRACKED],
            25.0,
            CounterSet::ZERO,
            CounterSet::ZERO,
            vec![],
            CounterSet::ZERO,
            1,
        );
    }
}
