//! Target-application launch detection (§3.2).
//!
//! The paper's monitoring process uses procfs side channels to detect the
//! launch of a target application before it starts reading GPU counters.
//! This reproduction detects launches from the GPU counters themselves: a
//! cold launch renders the login screen, the on-screen keyboard and the
//! status bar together, and that burst's counter delta is as much a
//! fingerprint as any popup — it is rendered by the same deterministic
//! pipeline the rest of the attack relies on.

use adreno_sim::counters::CounterSet;
use adreno_sim::time::SimInstant;

use crate::trace::Delta;

/// Maximum relative L1 distance between a change and the trained launch
/// signature for the change to count as the launch burst.
const LAUNCH_TOLERANCE: f64 = 0.05;

/// Streaming launch gating (§3.2): passes each change on or swallows it.
///
/// An **armed** gate swallows every change until one lands within 5 %
/// (relative L1) of the trained cold-launch burst (see
/// [`crate::ClassifierModel::launch_signature`]), drops the matching change
/// itself, and passes everything after it. An **open** gate (launch gating
/// disabled) passes everything through untouched.
#[derive(Debug, Clone)]
pub struct LaunchGate {
    signature: Option<CounterSet>,
    launch_at: Option<SimInstant>,
}

impl LaunchGate {
    /// A gate that waits for `signature`'s cold-launch burst before passing
    /// anything downstream.
    pub fn armed(signature: CounterSet) -> Self {
        LaunchGate { signature: Some(signature), launch_at: None }
    }

    /// A pass-through gate for sessions that do not gate on launch.
    pub fn open() -> Self {
        LaunchGate { signature: None, launch_at: None }
    }

    /// When the launch burst was observed (`None` while still waiting, and
    /// always `None` for an open gate).
    pub fn launch_at(&self) -> Option<SimInstant> {
        self.launch_at
    }

    /// Pushes one change: returns it if the gate passes it downstream.
    pub fn push(&mut self, input: Delta) -> Option<Delta> {
        match (&self.signature, self.launch_at) {
            (None, _) => Some(input),
            (Some(_), Some(at)) => (input.at > at).then_some(input),
            (Some(sig), None) => {
                if matches_launch(sig, &input) {
                    self.launch_at = Some(input.at);
                }
                None
            }
        }
    }
}

/// Whether one change matches the launch burst `signature`.
fn matches_launch(signature: &CounterSet, delta: &Delta) -> bool {
    let sig_norm = signature.total().max(1) as f64;
    let mut l1 = 0.0;
    for (a, b) in delta.values.as_array().iter().zip(signature.as_array()) {
        l1 += (*a as f64 - *b as f64).abs();
    }
    l1 / sig_norm <= LAUNCH_TOLERANCE
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::TrackedCounter;

    fn sig() -> CounterSet {
        let mut c = CounterSet::ZERO;
        c[TrackedCounter::LrzVisiblePixelAfterLrz] = 200_000;
        c[TrackedCounter::Ras8x4Tiles] = 90_000;
        c[TrackedCounter::VpcPcPrimitives] = 400;
        c
    }

    fn delta(ms: u64, values: CounterSet) -> Delta {
        Delta { at: SimInstant::from_millis(ms), values }
    }

    /// Pushes `deltas` through an armed gate: what it passed, and when it
    /// saw the launch.
    fn gate(deltas: &[Delta]) -> (Vec<Delta>, Option<SimInstant>) {
        let mut gate = LaunchGate::armed(sig());
        let out = deltas.iter().filter_map(|&d| gate.push(d)).collect();
        (out, gate.launch_at())
    }

    #[test]
    fn exact_burst_arms_the_gate() {
        let after = delta(20, CounterSet::ZERO);
        let (out, at) = gate(&[delta(5, CounterSet::ZERO), delta(10, sig()), after]);
        assert_eq!(at, Some(SimInstant::from_millis(10)));
        assert_eq!(out, vec![after], "only what follows the burst passes");
    }

    #[test]
    fn near_burst_within_tolerance_matches() {
        let mut near = sig();
        near[TrackedCounter::LrzVisiblePixelAfterLrz] += 2_000; // <5% of total
        assert_eq!(gate(&[delta(10, near)]).1, Some(SimInstant::from_millis(10)));
    }

    #[test]
    fn unrelated_changes_do_not_match() {
        let mut half = sig();
        half[TrackedCounter::LrzVisiblePixelAfterLrz] /= 2;
        assert_eq!(gate(&[delta(1, CounterSet::ZERO), delta(2, half)]), (vec![], None));
    }
}
