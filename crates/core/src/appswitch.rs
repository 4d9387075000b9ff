//! Application-switch detection (§5.2, Fig 13).
//!
//! Switching apps plays the overview animation: a run of large counter
//! changes spaced less than 50 ms apart — far faster than human typing.
//! [`SwitchStage`] recognises these bursts and toggles an "in target app"
//! flag, so the inference engine only consumes changes produced while the
//! victim is typing in the target application.

use adreno_sim::time::{SimDuration, SimInstant};

use crate::trace::Delta;

/// Maximum spacing inside a burst (the paper observes < 50 ms).
const BURST_GAP: SimDuration = SimDuration::from_millis(50);

/// Switch-sized changes needed to confirm a burst.
const MIN_BURST: usize = 3;

/// The app-switch filter (§5.2): feed every observed change in order. It
/// drops switch bursts and everything outside the target app, forwards
/// typing-sized changes, and surfaces each completed return burst as the
/// instant the cursor-blink grid re-anchors at.
#[derive(Debug)]
pub struct SwitchStage {
    /// Magnitude from which a change is switch-animation-sized.
    magnitude_threshold: u64,
    /// Whether the victim is believed to be in the target app; it starts
    /// there.
    in_target: bool,
    burst_len: usize,
    last_big_at: Option<SimInstant>,
    /// Set while the current burst has already toggled the state, so one
    /// long animation doesn't toggle twice.
    toggled_this_burst: bool,
    switches_detected: usize,
    /// The last frame of a return burst still running: the victim's
    /// cursor-blink timer restarts when the switch-back animation
    /// *finishes*, so the re-anchor time is the burst's last frame, not its
    /// first. Resolved by the first quiet in-target change, or at the end of
    /// the stream.
    pending_return: Option<SimInstant>,
}

impl SwitchStage {
    /// A stage whose victim starts in the target app. Changes of at least
    /// `magnitude_threshold` are switch-animation-sized (trained:
    /// [`crate::classify::ClassifierModel::switch_threshold`]).
    pub fn new(magnitude_threshold: u64) -> Self {
        SwitchStage {
            magnitude_threshold,
            in_target: true,
            burst_len: 0,
            last_big_at: None,
            toggled_this_burst: false,
            switches_detected: 0,
            pending_return: None,
        }
    }

    /// Number of switch bursts detected so far.
    pub fn switches_detected(&self) -> usize {
        self.switches_detected
    }

    /// Updates the burst state with one change; returns whether the victim
    /// is in the target app after it.
    fn observe(&mut self, delta: &Delta) -> bool {
        let big = delta.magnitude() >= self.magnitude_threshold;
        if big {
            let continues =
                self.last_big_at.is_some_and(|t| delta.at.saturating_since(t) <= BURST_GAP);
            self.burst_len = if continues { self.burst_len + 1 } else { 1 };
            self.last_big_at = Some(delta.at);
            if !continues {
                self.toggled_this_burst = false;
            }
            if self.burst_len >= MIN_BURST && !self.toggled_this_burst {
                self.in_target = !self.in_target;
                self.toggled_this_burst = true;
                self.switches_detected += 1;
            }
        } else if self.last_big_at.is_none_or(|t| delta.at.saturating_since(t) > BURST_GAP) {
            self.burst_len = 0;
            self.toggled_this_burst = false;
        }
        self.in_target
    }

    /// Pushes one change. Returns `(returned, typing)`: the return to the
    /// target app this change resolved, if any, and the change itself when
    /// it is a typing-sized change inside the target app. Only a typing
    /// change resolves a return, and the blink grid re-anchors at the
    /// return before that change is inferred.
    ///
    /// A burst frame that re-enters the target app starts a pending
    /// return; further burst frames push its timestamp forward ("burst
    /// still running"); the first quiet in-target change resolves it.
    pub fn push(&mut self, input: Delta) -> (Option<SimInstant>, Option<Delta>) {
        let burst = input.magnitude() >= self.magnitude_threshold;
        let was_inside = self.in_target;
        let inside = self.observe(&input);
        if inside && !was_inside {
            self.pending_return = Some(input.at);
        } else if inside && burst && self.pending_return.is_some() {
            self.pending_return = Some(input.at); // burst still running
        } else if inside && !burst {
            return (self.pending_return.take(), Some(input));
        }
        (None, None)
    }

    /// Ends the stream: the return still pending, when the stream ended
    /// inside a return burst.
    pub fn finish(&mut self) -> Option<SimInstant> {
        self.pending_return.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::{CounterSet, TrackedCounter};

    fn delta(ms: u64, magnitude: u64) -> Delta {
        let mut values = CounterSet::ZERO;
        values[TrackedCounter::LrzVisiblePixelAfterLrz] = magnitude;
        Delta { at: SimInstant::from_millis(ms), values }
    }

    fn stage() -> SwitchStage {
        SwitchStage::new(1_000_000)
    }

    /// Pushes one change and returns what the stage forwarded for it.
    fn push(
        stage: &mut SwitchStage,
        ms: u64,
        magnitude: u64,
    ) -> (Option<SimInstant>, Option<Delta>) {
        stage.push(delta(ms, magnitude))
    }

    /// Nothing forwarded.
    const DROPPED: (Option<SimInstant>, Option<Delta>) = (None, None);

    #[test]
    fn typing_changes_never_toggle() {
        let mut st = stage();
        for ms in (0..2_000).step_by(250) {
            assert_eq!(
                push(&mut st, ms, 200_000),
                (None, Some(delta(ms, 200_000))),
                "key-sized changes keep us in target"
            );
        }
        assert_eq!(st.switches_detected(), 0);
    }

    #[test]
    fn burst_toggles_once_and_return_burst_toggles_back() {
        let mut st = stage();
        // Away burst: 6 big frames 16 ms apart.
        for i in 0..6u64 {
            assert_eq!(push(&mut st, 1_000 + i * 16, 2_000_000), DROPPED);
        }
        assert!(!st.in_target, "burst must flip to out-of-target");
        assert_eq!(st.switches_detected(), 1);
        // Quiet usage of the other app is filtered.
        assert_eq!(push(&mut st, 2_000, 400_000), DROPPED);
        assert!(!st.in_target);
        // Return burst.
        for i in 0..6u64 {
            assert_eq!(push(&mut st, 3_000 + i * 16, 2_000_000), DROPPED);
        }
        assert!(st.in_target, "second burst returns to target");
        assert_eq!(st.switches_detected(), 2);
    }

    #[test]
    fn slow_big_changes_are_not_a_burst() {
        let mut st = stage();
        // Big changes 200 ms apart (e.g. shade opening then app redraw)
        // never reach burst length.
        for i in 0..8u64 {
            assert_eq!(push(&mut st, 1_000 + i * 200, 2_000_000), DROPPED);
        }
        assert!(st.in_target);
        assert_eq!(st.switches_detected(), 0);
    }

    #[test]
    fn two_frame_flicker_is_ignored() {
        let mut st = stage();
        push(&mut st, 100, 2_000_000);
        push(&mut st, 116, 2_000_000);
        assert!(st.in_target, "MIN_BURST is 3");
    }

    #[test]
    fn one_long_burst_toggles_only_once() {
        let mut st = stage();
        for i in 0..20u64 {
            push(&mut st, 1_000 + i * 16, 2_000_000);
        }
        assert!(!st.in_target);
        assert_eq!(st.switches_detected(), 1);
    }

    /// Drives an away burst followed by `return_frames` big return frames,
    /// returning the stage mid-scenario.
    fn after_return_burst(return_frames: u64) -> SwitchStage {
        let mut st = stage();
        for i in 0..4u64 {
            assert_eq!(push(&mut st, 1_000 + i * 16, 2_000_000), DROPPED);
        }
        assert!(!st.in_target);
        for i in 0..return_frames {
            assert_eq!(
                push(&mut st, 2_000 + i * 16, 2_000_000),
                DROPPED,
                "burst frames never reach the inference stream"
            );
        }
        assert!(st.in_target);
        st
    }

    #[test]
    fn return_anchor_tracks_a_still_running_burst() {
        // The burst toggles back at its 3rd frame but keeps running for
        // three more; the re-anchor time must be the *last* frame (2064 ms),
        // not the toggle frame (2032 ms). It is emitted before the typing
        // change that resolved it.
        let mut st = after_return_burst(5);
        assert_eq!(
            push(&mut st, 2_400, 200_000),
            (Some(SimInstant::from_millis(2_064)), Some(delta(2_400, 200_000)))
        );
        // The return is reported exactly once.
        assert_eq!(push(&mut st, 2_700, 200_000), (None, Some(delta(2_700, 200_000))));
        assert_eq!(st.finish(), None);
        assert_eq!(st.switches_detected(), 2);
    }

    #[test]
    fn trailing_return_burst_is_flushed_at_finish() {
        // The stream ends while the return burst is the last thing seen: no
        // quiet change ever resolves it, so `finish` must yield the anchor.
        let mut st = after_return_burst(4);
        assert_eq!(st.finish(), Some(SimInstant::from_millis(2_048)));
        assert_eq!(st.finish(), None, "finish drains the pending return");
    }
}
