//! Deterministic fault injection for the simulated device file.
//!
//! Real `/dev/kgsl-3d0` is not the quiet, always-on oracle the happy-path
//! pipeline assumes: ioctls get interrupted by signals, the GPU power-collapses
//! ("slumber") and loses its counter registers, drivers recover from hangs by
//! revoking every open context, and SELinux policy reloads flip access rules
//! mid-session. A [`FaultPlan`] describes such an environment — seeded
//! per-ioctl transient rates plus device-level events — and a
//! [`FaultInjector`] (installed via
//! [`KgslDevice::install_fault_plan`](crate::KgslDevice::install_fault_plan))
//! replays it **deterministically**: the same plan against the same call
//! sequence produces the same fault schedule, bit for bit.
//!
//! The event schedule is expanded eagerly at construction from the plan's
//! seed (exponential interarrivals over a fixed horizon), so two injectors
//! built from equal plans agree on *when* the device misbehaves regardless of
//! how callers interleave their ioctls.

use adreno_sim::time::{SimDuration, SimInstant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::Errno;
use crate::policy::AccessPolicy;

/// A device-level fault event, delivered at a scheduled sim-time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The GPU power-collapses: live counter registers reset to zero and all
    /// outstanding perf-counter reservations are dropped, exactly as the real
    /// hardware forgets them across a slumber/resume cycle.
    Slumber,
    /// The driver tears down every open context (e.g. after recovering from a
    /// GPU hang): all file descriptors are revoked and subsequent calls on
    /// them return `EBADF`.
    RevokeFds,
    /// The access-control policy changes mid-session, as a security update or
    /// SELinux policy reload would.
    PolicyChange(AccessPolicy),
}

impl FaultEvent {
    /// Short symbolic name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultEvent::Slumber => "slumber",
            FaultEvent::RevokeFds => "revoke-fds",
            FaultEvent::PolicyChange(_) => "policy-change",
        }
    }
}

/// A reproducible description of how the device misbehaves.
///
/// Two kinds of fault are described:
///
/// * **Per-ioctl transients** — every `open`/`ioctl` independently fails with
///   `EBUSY` (probability [`transient_busy`](Self::transient_busy)) or
///   `EINTR` ([`transient_intr`](Self::transient_intr)). Draws come from the
///   plan's seed, so a fixed call sequence sees a fixed error sequence.
///   Block-reads can additionally be *truncated*
///   ([`truncated_read`](Self::truncated_read)): only a prefix of the
///   request entries is filled before the copy is "interrupted" and the call
///   fails `EINTR` — the ioctl analogue of a short `read(2)`.
/// * **Scheduled events** — [`FaultEvent`]s at concrete sim-times, either
///   listed explicitly via [`at`](Self::at) or generated from mean
///   interarrival times over [`horizon`](Self::horizon).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for both the transient draws and the generated event schedule.
    pub seed: u64,
    /// Per-call probability of a spurious `EBUSY`.
    pub transient_busy: f64,
    /// Per-call probability of a spurious `EINTR`.
    pub transient_intr: f64,
    /// Per-block-read probability that the read is truncated: a strict
    /// prefix of the request entries is filled, the rest is left untouched,
    /// and the call fails `EINTR`. Downstream consumers must treat the
    /// buffer as garbage — exactly the partial-frame discipline the wire
    /// layer's decoder applies to short datagrams.
    pub truncated_read: f64,
    /// Mean interarrival of [`FaultEvent::Slumber`] events (`None` = never).
    pub slumber_mean: Option<SimDuration>,
    /// Mean interarrival of [`FaultEvent::RevokeFds`] events (`None` = never).
    pub revoke_mean: Option<SimDuration>,
    /// Horizon over which rate-based events are generated.
    pub horizon: SimDuration,
    /// Explicitly scheduled events, merged with the generated ones.
    pub scheduled: Vec<(SimInstant, FaultEvent)>,
}

impl FaultPlan {
    /// A plan that injects nothing (rates zero, no events) — installing it is
    /// behaviourally identical to running without fault injection.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_busy: 0.0,
            transient_intr: 0.0,
            truncated_read: 0.0,
            slumber_mean: None,
            revoke_mean: None,
            horizon: SimDuration::from_millis(60_000),
            scheduled: Vec::new(),
        }
    }

    /// Sets the per-ioctl transient failure rates.
    pub fn with_transient_rates(mut self, busy: f64, intr: f64) -> Self {
        assert!((0.0..=1.0).contains(&busy) && (0.0..=1.0).contains(&intr));
        self.transient_busy = busy;
        self.transient_intr = intr;
        self
    }

    /// Sets the per-block-read truncation probability.
    pub fn with_truncated_reads(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        self.truncated_read = rate;
        self
    }

    /// Generates slumber events with the given mean interarrival time.
    pub fn with_slumber_every(mut self, mean: SimDuration) -> Self {
        self.slumber_mean = Some(mean);
        self
    }

    /// Generates fd-revocation events with the given mean interarrival time.
    pub fn with_revocation_every(mut self, mean: SimDuration) -> Self {
        self.revoke_mean = Some(mean);
        self
    }

    /// Sets the horizon over which rate-based events are generated.
    pub fn with_horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Schedules an explicit event at a fixed sim-time.
    pub fn at(mut self, when: SimInstant, event: FaultEvent) -> Self {
        self.scheduled.push((when, event));
        self
    }

    /// A one-knob plan for sweeps: `intensity` in `[0, 1]` scales everything.
    ///
    /// At 0 nothing is injected; at 1 roughly 30% of ioctls fail transiently
    /// and several slumber/revocation events land within `horizon`.
    pub fn with_intensity(seed: u64, intensity: f64, horizon: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&intensity));
        let mut plan = FaultPlan::new(seed).with_horizon(horizon);
        if intensity > 0.0 {
            plan.transient_busy = 0.18 * intensity;
            plan.transient_intr = 0.12 * intensity;
            plan.truncated_read = 0.06 * intensity;
            // Expected counts over the horizon: up to ~3 slumbers and ~1.5
            // revocations at full intensity.
            plan.slumber_mean = Some(horizon.mul_f64(1.0 / (3.0 * intensity)));
            plan.revoke_mean = Some(horizon.mul_f64(1.0 / (1.5 * intensity)));
        }
        plan
    }
}

/// Poisson-process schedule expansion: appends `event` at exponential
/// interarrivals with the given `mean`, truncated at `horizon`.
///
/// This is the scaffolding every seeded fault plan in the workspace shares:
/// [`FaultInjector`] expands slumber/revocation schedules with it, and the
/// wire layer's link plans reuse it for scheduled outages so device faults
/// and link faults follow the same deterministic idiom.
pub fn expand_poisson<E: Clone>(
    rng: &mut StdRng,
    schedule: &mut Vec<(SimInstant, E)>,
    mean: SimDuration,
    horizon: SimDuration,
    event: E,
) {
    let mut t = SimInstant::ZERO;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += mean.mul_f64(-u.ln());
        if t.saturating_since(SimInstant::ZERO) >= horizon {
            return;
        }
        schedule.push((t, event.clone()));
    }
}

/// Counts of every fault delivered so far, for tests and degradation reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultLog {
    /// Spurious `EBUSY` failures injected.
    pub transient_busy: u64,
    /// Spurious `EINTR` failures injected.
    pub transient_intr: u64,
    /// Truncated block-reads injected (partial fill + `EINTR`).
    pub truncated_reads: u64,
    /// Slumber events delivered.
    pub slumbers: u64,
    /// Fd-revocation events delivered.
    pub revocations: u64,
    /// Policy-change events delivered.
    pub policy_changes: u64,
}

impl FaultLog {
    /// Total number of faults of any kind.
    pub fn total(&self) -> u64 {
        self.transient_busy
            + self.transient_intr
            + self.truncated_reads
            + self.slumbers
            + self.revocations
            + self.policy_changes
    }
}

/// The runtime half: a concrete, sorted event schedule plus the transient RNG.
///
/// Built from a [`FaultPlan`] by
/// [`KgslDevice::install_fault_plan`](crate::KgslDevice::install_fault_plan);
/// the device consults it at every `open`/`ioctl` entry.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: StdRng,
    /// Sorted `(when, event)` pairs, consumed front to back.
    schedule: Vec<(SimInstant, FaultEvent)>,
    next: usize,
    transient_busy: f64,
    transient_intr: f64,
    truncated_read: f64,
    log: FaultLog,
}

impl FaultInjector {
    /// Expands `plan` into a concrete schedule. Deterministic: equal plans
    /// yield equal injectors.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut rng = StdRng::seed_from_u64(plan.seed ^ 0xFA17_1A7E_D0D0_CAFE);
        let mut schedule = plan.scheduled.clone();
        if let Some(mean) = plan.slumber_mean {
            expand_poisson(&mut rng, &mut schedule, mean, plan.horizon, FaultEvent::Slumber);
        }
        if let Some(mean) = plan.revoke_mean {
            expand_poisson(&mut rng, &mut schedule, mean, plan.horizon, FaultEvent::RevokeFds);
        }
        schedule.sort_by_key(|(when, _)| when.as_nanos());
        FaultInjector {
            rng,
            schedule,
            next: 0,
            transient_busy: plan.transient_busy,
            transient_intr: plan.transient_intr,
            truncated_read: plan.truncated_read,
            log: FaultLog::default(),
        }
    }

    /// Removes, logs and returns the earliest scheduled event if it is due
    /// at or before `now`. The device calls this at every `open`/`ioctl`
    /// until it returns `None`; with nothing due, that is one comparison.
    pub fn pop_due(&mut self, now: SimInstant) -> Option<FaultEvent> {
        let (when, event) = self.schedule.get(self.next)?;
        if *when > now {
            return None;
        }
        match event {
            FaultEvent::Slumber => self.log.slumbers += 1,
            FaultEvent::RevokeFds => self.log.revocations += 1,
            FaultEvent::PolicyChange(_) => self.log.policy_changes += 1,
        }
        let event = event.clone();
        self.next += 1;
        Some(event)
    }

    /// One per-call transient draw: `Some(EBUSY | EINTR)` or `None`.
    pub fn draw_transient(&mut self) -> Option<Errno> {
        if self.transient_busy <= 0.0 && self.transient_intr <= 0.0 {
            return None;
        }
        let u: f64 = self.rng.gen();
        if u < self.transient_busy {
            self.log.transient_busy += 1;
            Some(Errno::Ebusy)
        } else if u < self.transient_busy + self.transient_intr {
            self.log.transient_intr += 1;
            Some(Errno::Eintr)
        } else {
            None
        }
    }

    /// One per-block-read truncation draw. `Some(k)` means only the first
    /// `k < entries` entries of the read get filled before the call fails
    /// `EINTR`; `None` means the read proceeds normally. A zero-rate plan
    /// never touches the RNG, so installing it is invisible to every other
    /// draw stream.
    pub fn draw_truncation(&mut self, entries: usize) -> Option<usize> {
        if self.truncated_read <= 0.0 {
            return None;
        }
        let u: f64 = self.rng.gen();
        if u >= self.truncated_read {
            return None;
        }
        self.log.truncated_reads += 1;
        if entries == 0 {
            return Some(0);
        }
        Some(self.rng.gen_range(0..entries))
    }

    /// Scheduled events not yet delivered.
    pub fn pending_events(&self) -> &[(SimInstant, FaultEvent)] {
        &self.schedule[self.next..]
    }

    /// Everything delivered so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_millis(s * 1000)
    }

    #[test]
    fn same_plan_same_schedule() {
        let plan = FaultPlan::new(7)
            .with_transient_rates(0.1, 0.05)
            .with_slumber_every(secs(2))
            .with_revocation_every(secs(5))
            .with_horizon(secs(20));
        let a = FaultInjector::new(&plan);
        let b = FaultInjector::new(&plan);
        assert_eq!(a.pending_events(), b.pending_events());
        assert!(!a.pending_events().is_empty());

        // And the transient streams agree call for call.
        let (mut a, mut b) = (a, b);
        for _ in 0..256 {
            assert_eq!(a.draw_transient(), b.draw_transient());
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mk = |seed| {
            FaultInjector::new(
                &FaultPlan::new(seed).with_slumber_every(secs(1)).with_horizon(secs(30)),
            )
        };
        assert_ne!(mk(1).pending_events(), mk(2).pending_events());
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let mut inj = FaultInjector::new(&FaultPlan::new(3));
        assert!(inj.pending_events().is_empty());
        for _ in 0..64 {
            assert_eq!(inj.draw_transient(), None);
        }
        assert_eq!(inj.log().total(), 0);
    }

    #[test]
    fn schedule_is_sorted_and_respects_horizon() {
        let plan = FaultPlan::new(11)
            .with_slumber_every(secs(1))
            .with_revocation_every(secs(2))
            .with_horizon(secs(10))
            .at(SimInstant::from_millis(1500), FaultEvent::PolicyChange(AccessPolicy::DenyAll));
        let inj = FaultInjector::new(&plan);
        let events = inj.pending_events();
        for w in events.windows(2) {
            assert!(w[0].0 <= w[1].0, "schedule must be time-sorted");
        }
        // Generated events stay within the horizon; the explicit one is kept.
        for (when, event) in events {
            if matches!(event, FaultEvent::PolicyChange(_)) {
                assert_eq!(*when, SimInstant::from_millis(1500));
            } else {
                assert!(when.saturating_since(SimInstant::ZERO) < secs(10));
            }
        }
    }

    #[test]
    fn due_events_pop_in_order_and_are_logged() {
        let plan = FaultPlan::new(0)
            .at(SimInstant::from_millis(100), FaultEvent::Slumber)
            .at(SimInstant::from_millis(300), FaultEvent::RevokeFds);
        let mut inj = FaultInjector::new(&plan);
        let mut due = |ms| -> Vec<FaultEvent> {
            std::iter::from_fn(|| inj.pop_due(SimInstant::from_millis(ms))).collect()
        };
        assert!(due(50).is_empty());
        assert_eq!(due(200), vec![FaultEvent::Slumber]);
        assert_eq!(due(400), vec![FaultEvent::RevokeFds]);
        assert!(due(500).is_empty());
        assert_eq!(inj.log().slumbers, 1);
        assert_eq!(inj.log().revocations, 1);
    }

    #[test]
    fn transient_rates_are_roughly_honoured() {
        let plan = FaultPlan::new(42).with_transient_rates(0.2, 0.1);
        let mut inj = FaultInjector::new(&plan);
        let (mut busy, mut intr, mut none) = (0u32, 0u32, 0u32);
        for _ in 0..10_000 {
            match inj.draw_transient() {
                Some(Errno::Ebusy) => busy += 1,
                Some(Errno::Eintr) => intr += 1,
                None => none += 1,
                other => panic!("unexpected transient {other:?}"),
            }
        }
        assert!((1500..=2500).contains(&busy), "EBUSY rate off: {busy}");
        assert!((700..=1300).contains(&intr), "EINTR rate off: {intr}");
        assert!(none > 6000);
        assert_eq!(inj.log().transient_busy, busy as u64);
        assert_eq!(inj.log().transient_intr, intr as u64);
    }

    #[test]
    fn truncation_draws_are_strict_prefixes_and_logged() {
        let plan = FaultPlan::new(5).with_truncated_reads(0.3);
        let mut inj = FaultInjector::new(&plan);
        let mut truncated = 0u32;
        for _ in 0..10_000 {
            if let Some(k) = inj.draw_truncation(11) {
                assert!(k < 11, "truncation must fill a strict prefix, got {k}");
                truncated += 1;
            }
        }
        assert!((2500..=3500).contains(&truncated), "truncation rate off: {truncated}");
        assert_eq!(inj.log().truncated_reads, truncated as u64);
        // Degenerate empty reads still count but fill nothing.
        assert!(matches!(inj.draw_truncation(0), None | Some(0)));
    }

    #[test]
    fn zero_truncation_rate_never_consumes_rng() {
        // Two injectors differing only in the (zero) truncation knob must
        // produce identical transient streams even when one of them is asked
        // for truncation draws in between.
        let plan = FaultPlan::new(21).with_transient_rates(0.2, 0.1);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for _ in 0..256 {
            assert_eq!(a.draw_truncation(8), None);
            assert_eq!(a.draw_transient(), b.draw_transient());
        }
    }

    #[test]
    fn intensity_zero_is_the_null_plan() {
        let plan = FaultPlan::with_intensity(9, 0.0, secs(10));
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.pending_events().is_empty());
        assert_eq!(inj.draw_transient(), None);
    }
}
