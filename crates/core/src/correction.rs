//! Input-correction detection (§5.3, Fig 14).
//!
//! Backspace shows no popup, so deletions are invisible to the popup
//! classifier. But the app window's echo redraw encodes the *input length*:
//! `PERF_LRZ_VISIBLE_PRIM_AFTER_LRZ` moves by exactly +2 when a character
//! is committed and −2 when one is deleted (each text cell is one quad =
//! two primitives). The cursor toggling also moves the counter by ±2, but
//! cursor blinks follow a fixed 0.5 s period, so they are recognised by
//! their timestamps.

use std::collections::VecDeque;

use adreno_sim::counters::{CounterSet, TrackedCounter};
use adreno_sim::time::{SimDuration, SimInstant};

use crate::online::{InferEvent, InferredKey};
use crate::stage::Stage;
use crate::trace::Delta;

/// The visible-prim count of an empty field with the cursor hidden: the
/// field's own quad and nothing else. A text change always shows the
/// cursor, so this count is never the echo of one.
const EMPTY_FIELD_CURSOR_HIDDEN: i64 = 2;

/// The cursor blink period (fixed 0.5 s on Android).
const BLINK_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Tolerance around the blink grid. Rendering latency puts a blink's
/// observable change up to ~vsync+read-interval after the tick.
const BLINK_TOLERANCE: SimDuration = SimDuration::from_millis(40);

/// Relative tolerance when matching a change against the app-window echo
/// signature on the large counters.
const ECHO_MATCH_FRAC: f64 = 0.02;

/// What an app-window echo change meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionEvent {
    /// A character was committed (echo +2).
    CharAdded(SimInstant),
    /// A character was deleted with backspace (echo −2 off the blink grid).
    CharDeleted(SimInstant),
    /// A cursor blink (±2 on the 0.5 s grid).
    CursorBlink(SimInstant),
}

/// Streaming correction detector over the changes the popup classifier
/// rejected as "noise".
#[derive(Debug)]
pub struct CorrectionDetector {
    /// The trained field-redraw signatures (all lengths, cursor on/off).
    signatures: Vec<CounterSet>,
    last_visible_prims: Option<i64>,
    /// Estimated cursor visibility (restored to `true` by every text
    /// change; toggled by blinks).
    cursor_on: bool,
    /// The blink timer restarts on every text change, so the grid is
    /// anchored at the last add/delete echo rather than at absolute time.
    blink_anchor: Option<SimInstant>,
    /// An on-grid −2 echo awaiting disambiguation: a blink turning the
    /// cursor off and a backspace that happens to land on the blink grid
    /// look identical *now*, but they predict different successor values,
    /// so the very next echo resolves it (see `resolve_pending`).
    pending: Option<PendingMinus2>,
    events: Vec<CorrectionEvent>,
}

/// State snapshot around an ambiguous on-grid −2 event.
#[derive(Debug, Clone, Copy)]
struct PendingMinus2 {
    at: SimInstant,
    /// The absolute prim value the ambiguous echo showed.
    v: i64,
    /// The blink anchor in force before the ambiguous event.
    prior_anchor: Option<SimInstant>,
}

impl CorrectionDetector {
    /// Creates a detector over a model's field-redraw signatures (see
    /// [`crate::ClassifierModel::ambient_signatures`]).
    pub fn new(signatures: Vec<CounterSet>) -> Self {
        CorrectionDetector {
            signatures,
            last_visible_prims: None,
            cursor_on: true,
            blink_anchor: None,
            pending: None,
            events: Vec::new(),
        }
    }

    /// Re-anchors the blink grid at `at`. The service calls this when the
    /// app-switch detector sees the victim return to the target app:
    /// Android restarts the cursor-blink timer on refocus, so the old
    /// anchor would misread the first blink after the switch as an input
    /// correction.
    pub fn reanchor(&mut self, at: SimInstant) {
        // A refocus means any pending ambiguity will never get its
        // follow-up; resolve it conservatively as a blink.
        self.resolve_pending_as_blink();
        self.blink_anchor = Some(at);
        self.cursor_on = true;
    }

    fn resolve_pending_as_blink(&mut self) {
        if let Some(p) = self.pending.take() {
            self.cursor_on = false;
            self.last_visible_prims = Some(p.v);
            self.blink_anchor = p.prior_anchor;
            self.events.push(CorrectionEvent::CursorBlink(p.at));
        }
    }

    /// Whether `values` matches one of the trained field-redraw signatures
    /// within a 2 % relative tolerance. Matching against the exact
    /// signature list (rather than a single loose envelope) keeps toasts
    /// and split popup fragments of coincidentally similar size from being
    /// mistaken for echoes.
    pub fn is_echo_like(&self, values: &CounterSet) -> bool {
        self.signatures.iter().any(|sig| {
            let close = |c: TrackedCounter| {
                let s = sig[c] as f64;
                let v = values[c] as f64;
                s > 0.0 && (v - s).abs() <= s * ECHO_MATCH_FRAC
            };
            close(TrackedCounter::LrzVisiblePixelAfterLrz)
                && close(TrackedCounter::Ras8x4Tiles)
                && values[TrackedCounter::LrzVisiblePrimAfterLrz]
                    == sig[TrackedCounter::LrzVisiblePrimAfterLrz]
        })
    }

    fn on_blink_grid(&self, at: SimInstant) -> bool {
        let Some(anchor) = self.blink_anchor else {
            // No activity anchor yet: fall back to the absolute grid.
            let phase = at.as_nanos() % BLINK_PERIOD.as_nanos();
            return phase <= BLINK_TOLERANCE.as_nanos();
        };
        let since = at.saturating_since(anchor).as_nanos();
        let period = BLINK_PERIOD.as_nanos();
        if since < period / 2 {
            return false; // too soon after a text change to be a blink
        }
        let phase = since % period;
        let tol = BLINK_TOLERANCE.as_nanos();
        phase <= tol || phase >= period - tol
    }

    /// Observes one rejected change; records an event when it is an echo.
    ///
    /// An echo's visible-prim value encodes `2 (field) + 2·len + 2·cursor`.
    /// Cursor blinks move it by exactly ±2 on the 0.5 s grid; a text change
    /// restores the cursor and shifts the length — which reads as +2/−2
    /// when the cursor was already on, or +4/±0 when a blink had just
    /// hidden it. Decoding `(len, cursor)` explicitly disambiguates all of
    /// these.
    pub fn observe(&mut self, delta: &Delta) -> Option<CorrectionEvent> {
        if !self.is_echo_like(&delta.values) {
            return None;
        }
        let v = delta.values[TrackedCounter::LrzVisiblePrimAfterLrz] as i64;
        let at = delta.at;
        let Some(prev) = self.last_visible_prims else {
            // First echo seen: establishes the baseline and the blink
            // anchor. The empty field with the cursor hidden (a blink-off
            // before the first commit) is the one count that shows the
            // cursor state; any other baseline is taken as cursor shown.
            // When it decodes to exactly one character with the cursor
            // shown, it *is* the first commit's echo and counts as a text
            // change; longer baselines mean sampling started mid-input,
            // where the preceding history is unknowable.
            self.last_visible_prims = Some(v);
            self.cursor_on = v != EMPTY_FIELD_CURSOR_HIDDEN;
            self.blink_anchor = Some(at);
            if v == 6 {
                let event = CorrectionEvent::CharAdded(at);
                self.events.push(event);
                return Some(event);
            }
            return None;
        };
        if self.pending.is_some() {
            self.resolve_pending(at, v);
            // `resolve_pending` installed the disambiguated state and
            // already classified this event against it.
            return self.events.last().copied();
        }
        // On-grid −2 is ambiguous (blink-off vs backspace on the grid) —
        // but only while the cursor is visible; a hidden cursor cannot turn
        // off again. Defer until the next echo reveals which it was.
        if self.on_blink_grid(at) && v - prev == -2 && self.cursor_on {
            self.pending = Some(PendingMinus2 { at, v, prior_anchor: self.blink_anchor });
            return None;
        }
        self.classify_event(at, v)
    }

    /// Classifies an unambiguous echo against the current state.
    fn classify_event(&mut self, at: SimInstant, v: i64) -> Option<CorrectionEvent> {
        let prev = self.last_visible_prims.expect("baseline established");
        // Cursor blink: exactly ±2 on the restart-anchored grid, and only
        // in the direction the cursor can actually toggle — an on-grid +2
        // while the cursor is already visible is a *commit* whose echo
        // happens to land on the grid, not a blink.
        let blink_direction_ok = if v > prev { !self.cursor_on } else { self.cursor_on };
        if self.on_blink_grid(at) && (v - prev).abs() == 2 && blink_direction_ok {
            self.cursor_on = v > prev;
            self.last_visible_prims = Some(v);
            let event = CorrectionEvent::CursorBlink(at);
            self.events.push(event);
            return Some(event);
        }
        // Not a blink, yet the cursor is hidden: no text change shows that,
        // so only the cursor state is learned.
        if v == EMPTY_FIELD_CURSOR_HIDDEN {
            self.cursor_on = false;
            self.last_visible_prims = Some(v);
            return None;
        }
        // Text change: the cursor ends up visible and the blink timer
        // restarts; decode the length shift.
        let len_old = (prev - 2 - if self.cursor_on { 2 } else { 0 }) / 2;
        let len_new = (v - 4) / 2;
        self.cursor_on = true;
        self.last_visible_prims = Some(v);
        self.blink_anchor = Some(at);
        let event = match len_new - len_old {
            1 => CorrectionEvent::CharAdded(at),
            -1 => CorrectionEvent::CharDeleted(at),
            // 0: cursor restored without a length change (field tap); bigger
            // jumps mean echoes were lost — resync without guessing.
            _ => return None,
        };
        self.events.push(event);
        Some(event)
    }

    /// Disambiguates a pending on-grid −2 using its successor echo.
    ///
    /// * If the pending event was a **blink-off**, the cursor is now off and
    ///   the old blink anchor still rules: the successor is either the +2
    ///   blink-on at the next tick, or a text change that reads +4/+2.
    /// * If it was a **deletion**, the cursor is on, the blink timer
    ///   restarted at the deletion: the successor is either a −2 blink-off
    ///   one period later, or a text change that reads +2/0 relative to it.
    ///
    /// Each interpretation predicts different successor arithmetic, so
    /// scoring both against the observed value picks the right one (ties
    /// fall back to the blink reading, which never fabricates deletions).
    fn resolve_pending(&mut self, at: SimInstant, v: i64) {
        let p = self.pending.take().expect("caller checked");
        let score = |cursor_after: bool, anchor_after: Option<SimInstant>| -> i32 {
            // Blink successor?
            let expected_blink = p.v + if cursor_after { -2 } else { 2 };
            let on_grid = match anchor_after {
                Some(a) => {
                    let since = at.saturating_since(a).as_nanos();
                    let period = BLINK_PERIOD.as_nanos();
                    since >= period / 2 && {
                        let phase = since % period;
                        let tol = BLINK_TOLERANCE.as_nanos();
                        phase <= tol || phase >= period - tol
                    }
                }
                None => false,
            };
            if on_grid && v == expected_blink {
                return 2;
            }
            // Text-change successor? A ±1 length step and a cursor-restoring
            // tap (length unchanged) are *equally* consistent readings — a
            // pending blink-off whose successor taps the field must not lose
            // to a fabricated delete-then-add pair just because ±1 sounded
            // more eventful. Deletions are declared only when the successor
            // confirms the restarted timer or contradicts the blink reading.
            let len_after_pending = (p.v - 2 - if cursor_after { 2 } else { 0 }) / 2;
            let len_new = (v - 4) / 2;
            match (len_new - len_after_pending).abs() {
                0 | 1 => 1,
                _ => -1,
            }
        };
        // Blink interpretation: cursor off, anchor unchanged.
        let blink_score = score(false, p.prior_anchor);
        // Deletion interpretation: cursor on, timer restarted at the event.
        let delete_score = score(true, Some(p.at));

        if delete_score > blink_score {
            self.events.push(CorrectionEvent::CharDeleted(p.at));
            self.cursor_on = true;
            self.blink_anchor = Some(p.at);
        } else {
            self.events.push(CorrectionEvent::CursorBlink(p.at));
            self.cursor_on = false;
            self.blink_anchor = p.prior_anchor;
        }
        self.last_visible_prims = Some(p.v);
        self.classify_event(at, v);
    }

    /// Flushes any pending ambiguity at end of stream (conservatively as a
    /// blink — never fabricate a deletion).
    pub fn flush(&mut self) {
        self.resolve_pending_as_blink();
    }

    /// All events recorded so far.
    pub fn events(&self) -> &[CorrectionEvent] {
        &self.events
    }

    /// The deletions detected, in time order.
    pub fn deletions(&self) -> Vec<SimInstant> {
        self.events
            .iter()
            .filter_map(|e| match e {
                CorrectionEvent::CharDeleted(t) => Some(*t),
                _ => None,
            })
            .collect()
    }
}

/// The assembled output of the correction stage: the per-session key lists
/// after §5.3 correction handling.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectedKeys {
    /// Surviving presses (deleted/uncorroborated ones removed).
    pub keys: Vec<InferredKey>,
    /// Every accepted press, including the ones corrections removed.
    pub keys_before_corrections: Vec<InferredKey>,
    /// Every echo-stream event recorded.
    pub corrections: Vec<CorrectionEvent>,
}

/// Terminal [`Stage`] of the pipeline (§5.3): tracks corrections over the
/// inference stream's noise events, accumulates accepted presses, and — at
/// end of stream — applies detected deletions (and, optionally, echo
/// corroboration) to produce the final key lists.
///
/// Return-to-target markers enter through
/// [`CorrectionStage::push_return`]: each queued return re-anchors the
/// blink grid just before the first noise change at or after it, exactly
/// reproducing the batch driver's returns/noise interleave. Returns still
/// queued when the stream ends never re-anchor (there is no later echo they
/// could disambiguate).
#[derive(Debug)]
pub struct CorrectionStage {
    detector: CorrectionDetector,
    echo_corroboration: bool,
    returns: VecDeque<SimInstant>,
    keys: Vec<InferredKey>,
    events_drained: usize,
}

impl CorrectionStage {
    /// A fresh stage over a model's field-redraw signatures.
    pub fn new(signatures: Vec<CounterSet>, echo_corroboration: bool) -> Self {
        CorrectionStage {
            detector: CorrectionDetector::new(signatures),
            echo_corroboration,
            returns: VecDeque::new(),
            keys: Vec::new(),
            events_drained: 0,
        }
    }

    /// Queues a detected return to the target app; the blink grid
    /// re-anchors there before the next noise change at or after it.
    pub fn push_return(&mut self, at: SimInstant) {
        self.returns.push_back(at);
    }

    fn observe_noise(&mut self, delta: &Delta) {
        while self.returns.front().is_some_and(|t| *t <= delta.at) {
            let t = self.returns.pop_front().expect("peeked");
            spansight::count("core.service.reanchors", 1);
            self.detector.reanchor(t);
        }
        self.detector.observe(delta);
    }

    fn drain_events(&mut self, out: &mut Vec<CorrectionEvent>) {
        let events = self.detector.events();
        out.extend_from_slice(&events[self.events_drained..]);
        self.events_drained = events.len();
    }

    /// Consumes the stage after [`Stage::finish`], applying deletions and
    /// optional echo corroboration to the accumulated presses.
    pub fn into_corrected(mut self) -> CorrectedKeys {
        // Idempotent with a prior `finish`; direct callers may skip it.
        self.detector.flush();
        let corrections = self.detector.events().to_vec();

        // Apply deletions: each deletion removes the latest surviving key
        // before it.
        let keys_before_corrections = self.keys;
        let mut keys = keys_before_corrections.clone();
        for del_at in self.detector.deletions() {
            if let Some(i) = keys.iter().rposition(|k| k.at < del_at) {
                keys.remove(i);
            }
        }

        // Optional insertion filter: every surviving press must have a
        // corroborating echo (a CharAdded event shortly after it). Each
        // echo vouches for at most one press.
        if self.echo_corroboration {
            let window = SimDuration::from_millis(500);
            let mut corroborated = vec![false; keys.len()];
            // Bind each echo to the *latest* press preceding it: a phantom
            // press must not steal the echo of the real press that followed
            // it.
            for e in &corrections {
                let CorrectionEvent::CharAdded(t) = e else { continue };
                if let Some(i) = keys
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(i, k)| {
                        !corroborated[*i] && k.at < *t && t.saturating_since(k.at) <= window
                    })
                    .map(|(i, _)| i)
                {
                    corroborated[i] = true;
                }
            }
            let mut corroborated = corroborated.into_iter();
            keys.retain(|_| corroborated.next() == Some(true));
        }

        CorrectedKeys { keys, keys_before_corrections, corrections }
    }
}

impl Stage for CorrectionStage {
    type In = InferEvent;
    type Out = CorrectionEvent;

    fn push(&mut self, input: InferEvent, out: &mut Vec<CorrectionEvent>) {
        match input {
            InferEvent::Key(key) => self.keys.push(key),
            InferEvent::Noise(d) => {
                self.observe_noise(&d);
                self.drain_events(out);
            }
        }
    }

    fn finish(&mut self, out: &mut Vec<CorrectionEvent>) {
        // Returns with no later noise never re-anchor (batch parity).
        self.returns.clear();
        self.detector.flush();
        self.drain_events(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig() -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::LrzVisiblePixelAfterLrz] = 100_000;
        c[TrackedCounter::Ras8x4Tiles] = 50_000;
        c[TrackedCounter::LrzVisiblePrimAfterLrz] = 40;
        c
    }

    /// Field signatures for prim counts 2..=60: the empty field with the
    /// cursor hidden up to the longest test echo.
    fn sigs() -> Vec<CounterSet> {
        (2..=60)
            .step_by(2)
            .map(|p| {
                let mut c = sig();
                c[TrackedCounter::LrzVisiblePrimAfterLrz] = p;
                c
            })
            .collect()
    }

    fn echo(ms: u64, prims: u64) -> Delta {
        let mut values = sig();
        values[TrackedCounter::LrzVisiblePrimAfterLrz] = prims;
        Delta { at: SimInstant::from_millis(ms), values }
    }

    fn popup(ms: u64) -> Delta {
        let mut values = CounterSet::ZERO;
        values[TrackedCounter::LrzVisiblePixelAfterLrz] = 20_000;
        values[TrackedCounter::Ras8x4Tiles] = 9_000;
        Delta { at: SimInstant::from_millis(ms), values }
    }

    #[test]
    fn ignores_non_echo_changes() {
        let mut det = CorrectionDetector::new(sigs());
        assert_eq!(det.observe(&popup(123)), None);
        assert!(det.events().is_empty());
    }

    #[test]
    fn detects_additions_and_deletions_off_grid() {
        let mut det = CorrectionDetector::new(sigs());
        assert_eq!(det.observe(&echo(130, 40)), None, "first echo is the baseline");
        // Fig 14: 3 letters in, 2 deleted — all off the 0.5 s blink grid.
        assert_eq!(
            det.observe(&echo(330, 42)),
            Some(CorrectionEvent::CharAdded(SimInstant::from_millis(330)))
        );
        assert_eq!(
            det.observe(&echo(630, 44)),
            Some(CorrectionEvent::CharAdded(SimInstant::from_millis(630)))
        );
        assert_eq!(
            det.observe(&echo(890, 46)),
            Some(CorrectionEvent::CharAdded(SimInstant::from_millis(890)))
        );
        assert_eq!(
            det.observe(&echo(1_230, 44)),
            Some(CorrectionEvent::CharDeleted(SimInstant::from_millis(1_230)))
        );
        assert_eq!(
            det.observe(&echo(1_430, 42)),
            Some(CorrectionEvent::CharDeleted(SimInstant::from_millis(1_430)))
        );
        assert_eq!(det.deletions().len(), 2);
    }

    #[test]
    fn blink_grid_changes_are_cursor_blinks() {
        // The blink timer restarts at each text change, so blinks land at
        // anchor + k·500 ms (± tolerance for render/read latency). An
        // on-grid −2 is ambiguous and resolves at the next echo.
        let mut det = CorrectionDetector::new(sigs());
        det.observe(&echo(130, 42)); // baseline → anchor at 130 ms
        assert_eq!(det.observe(&echo(640, 40)), None, "on-grid −2 defers");
        assert_eq!(
            det.observe(&echo(1_148, 42)),
            Some(CorrectionEvent::CursorBlink(SimInstant::from_millis(1_148)))
        );
        assert_eq!(
            det.events(),
            &[
                CorrectionEvent::CursorBlink(SimInstant::from_millis(640)),
                CorrectionEvent::CursorBlink(SimInstant::from_millis(1_148)),
            ]
        );
        assert!(det.deletions().is_empty());
    }

    #[test]
    fn deletion_on_the_blink_grid_is_resolved_by_its_successor() {
        // A backspace landing exactly on the grid looks like a blink-off —
        // until the *restarted* timer fires a −2 one period after it, which
        // a genuine blink-off could never do (its successor is +2).
        let mut det = CorrectionDetector::new(sigs());
        det.observe(&echo(130, 42));
        assert_eq!(det.observe(&echo(630, 40)), None, "ambiguous: deferred");
        det.observe(&echo(1_133, 38));
        assert_eq!(
            det.events(),
            &[
                CorrectionEvent::CharDeleted(SimInstant::from_millis(630)),
                CorrectionEvent::CursorBlink(SimInstant::from_millis(1_133)),
            ]
        );
        assert_eq!(det.deletions(), vec![SimInstant::from_millis(630)]);
    }

    #[test]
    fn unresolvable_pending_flushes_as_blink() {
        // With no successor, the conservative reading (blink) wins — the
        // detector never fabricates a deletion from silence.
        let mut det = CorrectionDetector::new(sigs());
        det.observe(&echo(130, 42));
        assert_eq!(det.observe(&echo(2_135, 40)), None);
        det.flush();
        assert_eq!(det.events(), &[CorrectionEvent::CursorBlink(SimInstant::from_millis(2_135))]);
        assert!(det.deletions().is_empty());
    }

    #[test]
    fn count_two_is_the_empty_field_with_the_cursor_hidden() {
        let added = |ms| Some(CorrectionEvent::CharAdded(SimInstant::from_millis(ms)));
        // A session's first echo is often the empty field's blink-off. As
        // the baseline it hides the cursor, so the first commit reads as one
        // character, and a blink-on before it reads as a blink.
        let mut det = CorrectionDetector::new(sigs());
        assert_eq!(det.observe(&echo(520, 2)), None);
        assert_eq!(det.observe(&echo(968, 6)), added(968));
        let mut det = CorrectionDetector::new(sigs());
        det.observe(&echo(520, 2));
        assert_eq!(
            det.observe(&echo(1_020, 4)),
            Some(CorrectionEvent::CursorBlink(SimInstant::from_millis(1_020)))
        );

        // Later, a count-2 echo that is not a blink is no text change (a
        // text change shows the cursor): it only hides the cursor.
        let mut det = CorrectionDetector::new(sigs());
        det.observe(&echo(17, 2));
        assert_eq!(det.observe(&echo(520, 2)), None, "an empty field loses no character");
        assert_eq!(det.observe(&echo(900, 6)), added(900));
        assert!(det.deletions().is_empty());
    }

    #[test]
    fn change_too_soon_after_activity_is_not_a_blink() {
        // Less than half a period after a commit, a −2 must be a deletion:
        // the restarted blink timer cannot have fired yet.
        let mut det = CorrectionDetector::new(sigs());
        det.observe(&echo(130, 40));
        assert_eq!(
            det.observe(&echo(330, 42)),
            Some(CorrectionEvent::CharAdded(SimInstant::from_millis(330)))
        );
        assert_eq!(
            det.observe(&echo(530, 40)),
            Some(CorrectionEvent::CharDeleted(SimInstant::from_millis(530)))
        );
    }

    #[test]
    fn echo_match_respects_tolerance() {
        let det = CorrectionDetector::new(sigs());
        let mut near = sig();
        near[TrackedCounter::LrzVisiblePixelAfterLrz] = 101_000; // +1%
        assert!(det.is_echo_like(&near));
        let mut far = sig();
        far[TrackedCounter::LrzVisiblePixelAfterLrz] = 115_000; // +15%
        assert!(!det.is_echo_like(&far), "echo matching is exact-signature, not a loose envelope");
        let mut wrong_prims = sig();
        wrong_prims[TrackedCounter::LrzVisiblePrimAfterLrz] = 41; // odd, not a field value
        assert!(!det.is_echo_like(&wrong_prims));
    }
}
