//! The performance-counter sampler.
//!
//! The attacking application's background service reads the eleven tracked
//! counters through `/dev/kgsl-3d0` every few milliseconds (§4). By default
//! the interval is 8 ms — half the 60 Hz frame interval, so every rendered
//! frame is covered by at least one read.
//!
//! Under CPU contention the service gets scheduled late, so reads jitter
//! and occasionally drop (§7.3, Fig 22a). The jitter model lives here, on
//! the attacker's side — the victim UI is unaffected by CPU load.
//!
//! A real background service must also survive an unquiet kernel: ioctls
//! that fail `EBUSY`/`EINTR`, reservations lost across a GPU slumber, file
//! descriptors revoked by driver recovery, and policies that flip
//! mid-session (all injectable via [`kgsl::fault`]). The sampler therefore
//! retries transient errors with bounded sim-time backoff, re-runs the
//! reservation loop when the device forgot it, reopens the device file when
//! its fd dies, and keeps going through policy denials — a single read slot
//! is abandoned only once its retry budget is spent, and `sample_until`
//! fails only when it acquired *nothing at all*. Everything it survived is
//! tallied in a [`SamplerReport`].

use adreno_sim::counters::{ALL_TRACKED, NUM_TRACKED};
use adreno_sim::time::{SimDuration, SimInstant};
use android_ui::UiSimulation;
use kgsl::abi::{
    IoctlRequest, KgslPerfcounterGet, KgslPerfcounterPut, KgslPerfcounterReadGroup,
    IOCTL_KGSL_PERFCOUNTER_GET, IOCTL_KGSL_PERFCOUNTER_PUT, IOCTL_KGSL_PERFCOUNTER_READ,
};
use kgsl::{DeviceResult, Errno, KgslDevice, KgslFd, SelinuxDomain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Sample, Trace};

/// Default reading interval (§4: "equal to or slightly smaller than half of
/// the screen refresh interval" — 8 ms at 60 Hz).
pub const DEFAULT_INTERVAL: SimDuration = SimDuration::from_millis(8);

/// First retry backoff delay; doubles after every failed attempt until it
/// reaches [`MAX_BACKOFF`].
const INITIAL_BACKOFF: SimDuration = SimDuration::from_micros(500);

/// Ceiling on the per-attempt backoff delay. Without it the doubling
/// schedule blows past the session end after a handful of failures; with
/// it a persistent fault costs a bounded, predictable amount of sim-time
/// per slot — even a slot that spends the default budget of 8 stays within
/// a few 60 Hz frames.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(4);

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Nominal interval between reads.
    pub interval: SimDuration,
    /// Background CPU utilisation on the victim device, `0.0..=1.0`; drives
    /// scheduling jitter and dropped reads.
    pub cpu_load: f64,
    /// RNG seed for the jitter model.
    pub seed: u64,
    /// Failed attempts tolerated per read slot (and per setup ioctl)
    /// before it is abandoned; 0 is fail-stop.
    pub retry_budget: u32,
}

impl SamplerConfig {
    /// 8 ms reads on an otherwise idle device.
    pub fn default_8ms() -> Self {
        SamplerConfig { interval: DEFAULT_INTERVAL, cpu_load: 0.0, seed: 0, retry_budget: 8 }
    }
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig::default_8ms()
    }
}

/// What the sampler lived through, accumulated across every `sample_until`
/// call on the same instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SamplerReport {
    /// Read slots the scheduler actually attempted.
    pub attempted: u64,
    /// Slots that produced a sample.
    pub acquired: u64,
    /// Slots skipped by the CPU-load model before any ioctl (benign).
    pub scheduler_drops: u64,
    /// Slots abandoned after exhausting the retry budget (or a denial).
    pub abandoned: u64,
    /// `EBUSY`/`EINTR` failures observed.
    pub transient_errors: u64,
    /// `EACCES`/`EPERM` failures observed.
    pub denied_reads: u64,
    /// `EBADF` failures observed (fd revoked under us).
    pub revocations_seen: u64,
    /// `EINVAL` failures observed (reservations forgotten, e.g. slumber).
    pub reservation_losses: u64,
    /// Successful reopen + re-reserve cycles after a revocation.
    pub fd_reopens: u64,
    /// Successful re-reservation passes on the existing fd.
    pub reservations_reacquired: u64,
    /// Total retry attempts consumed.
    pub retries_spent: u64,
}

/// Bucket edges of the per-slot retry-count histogram
/// (`core.sampler.slot_retries`): 0 retries, 1, 2, ≤4, ≤8, overflow.
pub const RETRY_HIST_EDGES: &[u64] = &[0, 1, 2, 4, 8];

/// Bucket edges of the chosen backoff-delay histogram
/// (`core.sampler.retry_backoff_us`), in microseconds. The capped
/// exponential schedule lands its jittered delays across these.
pub const BACKOFF_HIST_EDGES: &[u64] = &[250, 500, 1_000, 2_000, 4_000];

impl SamplerReport {
    /// The field-wise difference `self - earlier` (each field saturates at
    /// zero). Used to attribute one `sample_until` call's worth of events
    /// out of the cumulative report.
    pub fn diff(&self, earlier: &SamplerReport) -> SamplerReport {
        SamplerReport {
            attempted: self.attempted.saturating_sub(earlier.attempted),
            acquired: self.acquired.saturating_sub(earlier.acquired),
            scheduler_drops: self.scheduler_drops.saturating_sub(earlier.scheduler_drops),
            abandoned: self.abandoned.saturating_sub(earlier.abandoned),
            transient_errors: self.transient_errors.saturating_sub(earlier.transient_errors),
            denied_reads: self.denied_reads.saturating_sub(earlier.denied_reads),
            revocations_seen: self.revocations_seen.saturating_sub(earlier.revocations_seen),
            reservation_losses: self.reservation_losses.saturating_sub(earlier.reservation_losses),
            fd_reopens: self.fd_reopens.saturating_sub(earlier.fd_reopens),
            reservations_reacquired: self
                .reservations_reacquired
                .saturating_sub(earlier.reservations_reacquired),
            retries_spent: self.retries_spent.saturating_sub(earlier.retries_spent),
        }
    }

    /// Publishes this report's (non-zero) fields as `core.sampler.*`
    /// telemetry counters.
    pub fn count_telemetry(&self) {
        for (name, value) in [
            ("core.sampler.attempted", self.attempted),
            ("core.sampler.acquired", self.acquired),
            ("core.sampler.scheduler_drops", self.scheduler_drops),
            ("core.sampler.abandoned", self.abandoned),
            ("core.sampler.transient_errors", self.transient_errors),
            ("core.sampler.denied_reads", self.denied_reads),
            ("core.sampler.revocations_seen", self.revocations_seen),
            ("core.sampler.reservation_losses", self.reservation_losses),
            ("core.sampler.fd_reopens", self.fd_reopens),
            ("core.sampler.reservations_reacquired", self.reservations_reacquired),
            ("core.sampler.retries_spent", self.retries_spent),
        ] {
            if value > 0 {
                spansight::count(name, value);
            }
        }
    }

    /// Fraction of attempted read slots that produced a sample (1.0 when
    /// nothing was ever attempted).
    pub fn coverage(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.acquired as f64 / self.attempted as f64
        }
    }

    /// Total device faults observed, of any kind.
    pub fn faults_seen(&self) -> u64 {
        self.transient_errors + self.denied_reads + self.revocations_seen + self.reservation_losses
    }
}

/// A sampler bound to one open device-file handle with the eleven counters
/// reserved.
#[derive(Debug)]
pub struct Sampler {
    fd: KgslFd,
    config: SamplerConfig,
    rng: StdRng,
    report: SamplerReport,
    /// Reusable block-read request buffer: the `(groupid, countable)` pairs
    /// never change between reads, so [`Sampler::read_once`] only overwrites
    /// the `value` slots instead of heap-allocating a request vector on
    /// every one of the ~113k read slots of a session.
    scratch: [KgslPerfcounterReadGroup; NUM_TRACKED],
}

/// The block-read request entries for the eleven Table-1 counters, in
/// [`ALL_TRACKED`] order, with zeroed value slots.
fn read_request_template() -> [KgslPerfcounterReadGroup; NUM_TRACKED] {
    std::array::from_fn(|i| {
        let id = ALL_TRACKED[i].id();
        KgslPerfcounterReadGroup::new(id.group.kgsl_id(), id.countable)
    })
}

/// State of one incremental sampling pass (see [`Sampler::start_stream`]).
///
/// Owns the pass's bookkeeping — the grid cursor, the deadline, the last
/// device error — so the [`Sampler`] can hand out samples one at a time
/// without materialising a [`Trace`]. Dropping the stream without calling
/// [`Sampler::finish_stream`] skips the pass's telemetry but leaves the
/// sampler itself consistent.
pub struct SampleStream {
    until: SimInstant,
    next: SimInstant,
    last_err: Option<Errno>,
    acquired: u64,
    report_before: SamplerReport,
    /// Per-slot retry counts, pre-bucketed against [`RETRY_HIST_EDGES`].
    /// Accumulated locally and published as one
    /// `core.sampler.slot_retries` histogram merge at
    /// [`Sampler::finish_stream`], replacing a telemetry-record call per
    /// slot with one per pass.
    retry_buckets: [u64; RETRY_HIST_EDGES.len() + 1],
    /// Chosen (jittered) backoff delays, pre-bucketed against
    /// [`BACKOFF_HIST_EDGES`] in microseconds; published alongside the
    /// retry-count histogram.
    backoff_buckets: [u64; BACKOFF_HIST_EDGES.len() + 1],
    _span: spansight::Span,
}

/// The pid the attacking app pretends to run as (any unprivileged pid).
const ATTACKER_PID: u32 = 31337;

/// Runs `f`, retrying immediately up to `budget` times while it fails with a
/// transient errno (`EBUSY`/`EINTR`). Setup-path helper: unlike the sampling
/// loop there is no sim-time to back off against, and an immediate retry of
/// an interrupted syscall is exactly what libc wrappers do.
fn retry_transient<T>(budget: u32, mut f: impl FnMut() -> DeviceResult<T>) -> DeviceResult<T> {
    let mut attempts = 0;
    loop {
        match f() {
            Ok(value) => return Ok(value),
            Err(err) if err.is_transient() && attempts < budget => attempts += 1,
            Err(err) => return Err(err),
        }
    }
}

impl Sampler {
    /// Opens the device file as an unprivileged app and reserves the eleven
    /// Table-1 counters via `IOCTL_KGSL_PERFCOUNTER_GET`.
    ///
    /// # Errors
    ///
    /// Propagates device-file errors — notably `EACCES` when the §9.2
    /// access-control mitigation denies counter reservation. On any failure
    /// nothing is leaked: counters acquired before the failing one are
    /// released and the fd is closed. Transient errors (`EBUSY`/`EINTR`)
    /// are retried per call within the configured budget.
    ///
    /// # Panics
    ///
    /// Panics if `config.cpu_load` is outside `0.0..=1.0`.
    pub fn open(device: &KgslDevice, config: SamplerConfig) -> DeviceResult<Self> {
        assert!((0.0..=1.0).contains(&config.cpu_load), "cpu_load must be in 0..=1");
        let budget = config.retry_budget;
        let fd =
            retry_transient(budget, || device.open(ATTACKER_PID, SelinuxDomain::UntrustedApp))?;
        if let Err(err) = Self::reserve_all(device, fd, budget) {
            let _ = device.close(fd);
            return Err(err);
        }
        Ok(Sampler {
            fd,
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x5a5a),
            report: SamplerReport::default(),
            scratch: read_request_template(),
        })
    }

    /// Reserves all eleven tracked counters on `fd`, retrying each transient
    /// `GET` failure up to `budget` times. On a definitive mid-loop failure
    /// the counters already acquired are released (best-effort) so the
    /// handle holds either everything or nothing.
    fn reserve_all(device: &KgslDevice, fd: KgslFd, budget: u32) -> DeviceResult<()> {
        for (i, c) in ALL_TRACKED.iter().enumerate() {
            let id = c.id();
            let result = retry_transient(budget, || {
                let mut get = KgslPerfcounterGet {
                    groupid: id.group.kgsl_id(),
                    countable: id.countable,
                    ..Default::default()
                };
                device.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get))
            });
            if let Err(err) = result {
                for prev in &ALL_TRACKED[..i] {
                    let pid = prev.id();
                    let put = KgslPerfcounterPut {
                        groupid: pid.group.kgsl_id(),
                        countable: pid.countable,
                    };
                    let _ = device.ioctl(
                        fd,
                        IOCTL_KGSL_PERFCOUNTER_PUT,
                        IoctlRequest::PerfcounterPut(put),
                    );
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// The sampler's device-file handle.
    pub fn fd(&self) -> KgslFd {
        self.fd
    }

    /// Everything this sampler has survived so far.
    pub fn report(&self) -> SamplerReport {
        self.report
    }

    /// Performs one block-read of all eleven counters.
    ///
    /// # Errors
    ///
    /// Propagates device errors (`EACCES` under the DenyAll policy, …).
    pub fn read_once(&mut self, device: &KgslDevice) -> DeviceResult<adreno_sim::CounterSet> {
        // The request ids are fixed at construction; the ioctl only fills
        // the `value` slots, so the scratch buffer is reused as-is.
        device.ioctl(
            self.fd,
            IOCTL_KGSL_PERFCOUNTER_READ,
            IoctlRequest::PerfcounterRead(&mut self.scratch),
        )?;
        let mut out = [0u64; NUM_TRACKED];
        for (o, r) in out.iter_mut().zip(self.scratch.iter()) {
            *o = r.value;
        }
        Ok(adreno_sim::CounterSet::from_array(out))
    }

    /// Scheduling delay of the next read: a small baseline wobble (timer
    /// slack — even an idle Android schedules a polling service a little
    /// late, which is where mid-draw "split" reads come from) plus an
    /// exponential tail whose mean grows superlinearly with CPU
    /// utilisation, mimicking CFS latency under contention.
    fn jitter(&mut self) -> SimDuration {
        let base = SimDuration::from_nanos(self.rng.gen_range(0..1_200_000));
        let load = self.config.cpu_load;
        if load <= 0.0 {
            return base;
        }
        let mean_ns = self.config.interval.as_nanos() as f64 * load * load * 1.2;
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        base + SimDuration::from_nanos((-u.ln() * mean_ns) as u64)
    }

    /// Whether this read gets skipped entirely (the service missed its
    /// slot); only happens at high CPU load.
    fn dropped(&mut self) -> bool {
        let p = (self.config.cpu_load - 0.5).max(0.0) * 0.5;
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    /// Samples the victim simulation from its current time until `until`,
    /// advancing the simulation between reads. Returns the raw trace.
    ///
    /// Device errors no longer stop the stream: each read slot is retried
    /// within the configured retry budget (reopening the fd or re-running
    /// the reservation loop when the device forgot about us), and a slot
    /// whose budget runs out is simply skipped — degrading the trace rather
    /// than killing the session.
    ///
    /// # Errors
    ///
    /// Fails only when *no* read succeeded over the whole span — e.g. a
    /// policy denying everything from the start — returning the last error
    /// observed.
    pub fn sample_until(
        &mut self,
        sim: &mut UiSimulation,
        until: SimInstant,
    ) -> DeviceResult<Trace> {
        let mut stream = self.start_stream(sim, until);
        // One read per interval plus the slot at the start of the grid: size
        // the trace up front so a long session never re-grows it.
        let slots = until.saturating_since(sim.now()).as_nanos()
            / self.config.interval.as_nanos().max(1)
            + 2;
        let mut trace = Trace::with_capacity(slots as usize);
        while let Some(s) = self.next_sample(&mut stream, sim) {
            trace.push(s.at, s.values);
        }
        self.finish_stream(stream)?;
        Ok(trace)
    }

    /// Begins an incremental sampling pass over `sim` ending at `until`.
    /// Drive it with [`Sampler::next_sample`] and close it with
    /// [`Sampler::finish_stream`]; [`Sampler::sample_until`] is exactly
    /// that loop with the samples collected into a [`Trace`].
    pub fn start_stream(&mut self, sim: &UiSimulation, until: SimInstant) -> SampleStream {
        let mut span = spansight::span("core", "sampler.sample_until");
        span.sim_range(sim.now().as_nanos(), until.as_nanos());
        SampleStream {
            until,
            next: sim.now(),
            last_err: None,
            acquired: 0,
            report_before: self.report,
            retry_buckets: [0; RETRY_HIST_EDGES.len() + 1],
            backoff_buckets: [0; BACKOFF_HIST_EDGES.len() + 1],
            _span: span,
        }
    }

    /// Advances the simulation slot by slot until one read produces a
    /// sample, which it returns; `None` once the stream's deadline passes.
    /// Retry, recovery and reporting behave exactly as in
    /// [`Sampler::sample_until`] — abandoned or dropped slots are skipped,
    /// not surfaced.
    pub fn next_sample(
        &mut self,
        stream: &mut SampleStream,
        sim: &mut UiSimulation,
    ) -> Option<Sample> {
        while stream.next <= stream.until {
            let at = stream.next + self.jitter();
            let at = if at > stream.until { stream.until } else { at };
            sim.advance_to(at);
            let mut produced = None;
            if !self.dropped() {
                self.report.attempted += 1;
                let retries_before = self.report.retries_spent;
                // Backoff may advance the clock, so the sample is stamped
                // with the time the read actually completed.
                match self.read_resilient(sim, stream.until, &mut stream.backoff_buckets) {
                    Ok(values) => {
                        self.report.acquired += 1;
                        produced = Some(Sample { at: sim.now(), values });
                    }
                    Err(err) => {
                        self.report.abandoned += 1;
                        stream.last_err = Some(err);
                    }
                }
                let retries = self.report.retries_spent - retries_before;
                stream.retry_buckets[spansight::Hist::bucket_of(RETRY_HIST_EDGES, retries)] += 1;
            } else {
                self.report.scheduler_drops += 1;
            }
            let resumed = sim.now();
            stream.next += self.config.interval;
            if resumed > stream.next {
                // A long stall: resume on the next grid point after it.
                let missed = resumed.saturating_since(stream.next).as_nanos()
                    / self.config.interval.as_nanos().max(1);
                stream.next += self.config.interval * (missed + 1);
            }
            if let Some(sample) = produced {
                stream.acquired += 1;
                return Some(sample);
            }
        }
        None
    }

    /// Closes an incremental sampling pass: publishes the pass's telemetry
    /// and fails only when *no* read succeeded over the whole span (same
    /// contract as [`Sampler::sample_until`]).
    ///
    /// # Errors
    ///
    /// The last device error observed, iff the pass acquired nothing.
    pub fn finish_stream(&mut self, stream: SampleStream) -> DeviceResult<()> {
        spansight::record_bucketed(
            "core.sampler.slot_retries",
            RETRY_HIST_EDGES,
            &stream.retry_buckets,
        );
        spansight::record_bucketed(
            "core.sampler.retry_backoff_us",
            BACKOFF_HIST_EDGES,
            &stream.backoff_buckets,
        );
        self.report.diff(&stream.report_before).count_telemetry();
        if stream.acquired == 0 {
            if let Some(err) = stream.last_err {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Deterministic jitter for one retry delay: a SplitMix64 hash of the
    /// sampler seed and the global retry counter, mapped onto
    /// `[0.75, 1.25) × base`. Kept off `self.rng` on purpose — enabling
    /// retries must never perturb the scheduling-jitter stream that shapes
    /// fault-free traces.
    fn jittered_backoff(&self, base: SimDuration) -> SimDuration {
        let mut z =
            self.config.seed ^ self.report.retries_spent.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = 0.75 + (z >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        base.mul_f64(frac)
    }

    /// One read slot under the retry budget: classify each failure, attempt
    /// the matching recovery, back off in sim-time (capped exponential with
    /// seeded jitter, each chosen delay bucketed into `backoff_buckets`),
    /// and try again. Each attempt borrows the victim's device afresh,
    /// since a backoff moves the victim on.
    fn read_resilient(
        &mut self,
        sim: &mut UiSimulation,
        until: SimInstant,
        backoff_buckets: &mut [u64; BACKOFF_HIST_EDGES.len() + 1],
    ) -> DeviceResult<adreno_sim::CounterSet> {
        let mut backoff = INITIAL_BACKOFF;
        let mut failures = 0u32;
        loop {
            let device = sim.device();
            let err = match self.read_once(device) {
                Ok(values) => return Ok(values),
                Err(err) => err,
            };
            match err {
                // Transient by definition: worth a plain retry.
                Errno::Ebusy | Errno::Eintr => self.report.transient_errors += 1,
                // Our fd died (driver recovery revoked it): reopen the
                // device file and re-reserve everything on the new handle.
                Errno::Ebadf => {
                    self.report.revocations_seen += 1;
                    if self.reacquire(device).is_ok() {
                        self.report.fd_reopens += 1;
                    }
                }
                // The device forgot our reservations (GPU slumber): re-run
                // the reservation loop on the existing fd.
                Errno::Einval => {
                    self.report.reservation_losses += 1;
                    if Self::reserve_all(device, self.fd, self.config.retry_budget).is_ok() {
                        self.report.reservations_reacquired += 1;
                    }
                }
                // A policy denial is not transient: give the slot up
                // immediately but keep the stream alive — the policy may
                // flip back before the next slot.
                Errno::Eacces | Errno::Eperm => {
                    self.report.denied_reads += 1;
                    return Err(err);
                }
                Errno::Enodev => return Err(err),
            }
            failures += 1;
            if failures > self.config.retry_budget {
                return Err(err);
            }
            self.report.retries_spent += 1;
            let delay = self.jittered_backoff(backoff);
            backoff_buckets[spansight::Hist::bucket_of(BACKOFF_HIST_EDGES, delay.as_micros())] += 1;
            let wake = sim.now() + delay;
            if wake > until {
                // Out of session time: no point sleeping past the end.
                return Err(err);
            }
            sim.advance_to(wake);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
    }

    /// Opens a fresh handle and moves the sampler onto it (after an fd
    /// revocation). The reservation loop must fully succeed, otherwise the
    /// new fd is closed again and the old (dead) one is kept.
    fn reacquire(&mut self, device: &KgslDevice) -> DeviceResult<()> {
        let budget = self.config.retry_budget;
        let fd =
            retry_transient(budget, || device.open(ATTACKER_PID, SelinuxDomain::UntrustedApp))?;
        if let Err(err) = Self::reserve_all(device, fd, budget) {
            let _ = device.close(fd);
            return Err(err);
        }
        self.fd = fd;
        Ok(())
    }

    /// Closes the sampler's handle, releasing its counter reservations.
    /// Every driver calls this when its session ends, error returns
    /// included. Best-effort: the fd may already be revoked, and then
    /// there is nothing left to release.
    pub fn close(self, device: &KgslDevice) {
        let _ = device.close(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adreno_sim::counters::TrackedCounter;
    use android_ui::keyboard::Key;
    use android_ui::sim::SimConfig;
    use kgsl::AccessPolicy;

    fn quiet_sim(seed: u64) -> UiSimulation {
        UiSimulation::new(SimConfig { system_noise_hz: 0.0, ..SimConfig::paper_default(seed) })
    }

    #[test]
    fn sampler_reads_on_the_8ms_grid() {
        let mut sim = quiet_sim(1);
        let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(400)).unwrap();
        assert_eq!(trace.len(), 51, "reads at 0, 8, …, 400 ms");
        for w in trace.samples().windows(2) {
            // Grid spacing ± the baseline timer-slack wobble.
            let gap = (w[1].at - w[0].at).as_micros();
            assert!((6_500..=9_500).contains(&gap), "gap {gap}us off the jittered grid");
        }
    }

    #[test]
    fn idle_windows_show_no_change_and_key_presses_do() {
        let mut sim = quiet_sim(2);
        sim.tap_key(SimInstant::from_millis(600), Key::Char('w'), SimDuration::from_millis(90));
        let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(1_000)).unwrap();
        let deltas = crate::trace::extract_deltas(&trace);
        // Initial render, blinks at 500ms/1000ms, popup, echo, hide.
        assert!(deltas.len() >= 4, "expected several changes, got {}", deltas.len());
        // At least one delta must carry popup-sized primitive counts.
        assert!(deltas.iter().any(|d| d.values[TrackedCounter::VpcPcPrimitives] > 50));
    }

    #[test]
    fn cpu_load_jitters_the_schedule() {
        let mut sim = quiet_sim(3);
        let cfg = SamplerConfig { cpu_load: 0.75, ..SamplerConfig::default_8ms() };
        let mut s = Sampler::open(sim.device(), cfg).unwrap();
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(2_000)).unwrap();
        // Jitter + drops → noticeably fewer than the nominal 251 reads and
        // irregular spacing.
        assert!(trace.len() < 245, "expected drops, got {}", trace.len());
        let irregular =
            trace.samples().windows(2).filter(|w| (w[1].at - w[0].at).as_millis() != 8).count();
        assert!(irregular > 10, "expected irregular spacing, got {irregular}");
    }

    #[test]
    #[should_panic(expected = "cpu_load must be in 0..=1")]
    fn cpu_load_outside_the_unit_range_is_rejected() {
        let sim = quiet_sim(13);
        let cfg = SamplerConfig { cpu_load: 1.5, ..SamplerConfig::default_8ms() };
        let _ = Sampler::open(sim.device(), cfg);
    }

    #[test]
    fn deny_all_policy_stops_the_sampler() {
        let sim = quiet_sim(4);
        sim.device().set_policy(AccessPolicy::DenyAll);
        let err = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap_err();
        assert_eq!(err, kgsl::Errno::Eacces);
    }

    #[test]
    fn rbac_policy_freezes_the_attackers_view() {
        let mut sim = quiet_sim(5);
        sim.device().set_policy(AccessPolicy::role_based([SelinuxDomain::GpuProfiler]));
        sim.tap_key(SimInstant::from_millis(500), Key::Char('q'), SimDuration::from_millis(80));
        let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(1_000)).unwrap();
        assert!(crate::trace::extract_deltas(&trace).is_empty(), "local view must never move");
    }

    #[test]
    fn failed_open_releases_everything_it_acquired() {
        use kgsl::abi::{
            IoctlRequest, KgslPerfcounterGet, KgslPerfcounterReadGroup, IOCTL_KGSL_PERFCOUNTER_GET,
            IOCTL_KGSL_PERFCOUNTER_READ,
        };
        use kgsl::device::COUNTERS_PER_GROUP;

        let sim = quiet_sim(6);
        let dev = sim.device();
        // Exhaust the VPC group (the *last* tracked counters in the
        // reservation loop) with unrelated countables, so `Sampler::open`
        // fails mid-loop after acquiring the LRZ and RAS counters.
        let squatter = dev.open(1, SelinuxDomain::UntrustedApp).unwrap();
        let vpc = adreno_sim::counters::TrackedCounter::VpcPcPrimitives.id().group.kgsl_id();
        let mut taken = 0;
        for countable in 0..=32u32 {
            if [9, 10, 12].contains(&countable) {
                continue; // leave the tracked VPC countables free
            }
            let mut get = KgslPerfcounterGet { groupid: vpc, countable, ..Default::default() };
            dev.ioctl(squatter, IOCTL_KGSL_PERFCOUNTER_GET, IoctlRequest::PerfcounterGet(&mut get))
                .unwrap();
            taken += 1;
            if taken == COUNTERS_PER_GROUP {
                break;
            }
        }

        let err = Sampler::open(dev, SamplerConfig::default_8ms()).unwrap_err();
        assert_eq!(err, kgsl::Errno::Ebusy);

        // Nothing may be leaked: the LRZ counters acquired before the
        // failure must be unreserved again (reads of them are EINVAL).
        let probe = dev.open(2, SelinuxDomain::UntrustedApp).unwrap();
        let lrz = adreno_sim::counters::TrackedCounter::LrzVisiblePrimAfterLrz.id();
        let mut reads = [KgslPerfcounterReadGroup::new(lrz.group.kgsl_id(), lrz.countable)];
        assert_eq!(
            dev.ioctl(
                probe,
                IOCTL_KGSL_PERFCOUNTER_READ,
                IoctlRequest::PerfcounterRead(&mut reads)
            )
            .unwrap_err(),
            kgsl::Errno::Einval
        );
    }

    #[test]
    fn transient_faults_are_retried_not_fatal() {
        use kgsl::FaultPlan;

        let mut sim = quiet_sim(7);
        sim.device().install_fault_plan(&FaultPlan::new(1).with_transient_rates(0.15, 0.1));
        let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms())
            .expect("open retries transients within its budget");
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(400)).unwrap();
        let report = s.report();
        assert!(report.transient_errors > 0, "the plan must actually have fired");
        assert!(report.retries_spent > 0);
        // Retries keep coverage near-perfect at these rates.
        assert!(trace.len() >= 45, "expected near-full trace, got {}", trace.len());
        assert!(report.coverage() > 0.9, "coverage {}", report.coverage());
    }

    #[test]
    fn fd_revocation_is_survived_by_reopening() {
        use kgsl::fault::FaultEvent;
        use kgsl::FaultPlan;

        let mut sim = quiet_sim(8);
        let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
        sim.device().install_fault_plan(
            &FaultPlan::new(0).at(SimInstant::from_millis(200), FaultEvent::RevokeFds),
        );
        let before = s.fd();
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(400)).unwrap();
        let report = s.report();
        assert!(report.revocations_seen >= 1);
        assert_eq!(report.fd_reopens, 1, "exactly one reopen cycle");
        assert_ne!(s.fd(), before, "the sampler moved to a fresh fd");
        // At most a couple of slots lost around the revocation.
        assert!(trace.len() >= 48, "expected near-full trace, got {}", trace.len());
    }

    #[test]
    fn slumber_is_survived_by_rereserving() {
        use kgsl::fault::FaultEvent;
        use kgsl::FaultPlan;

        let mut sim = quiet_sim(9);
        let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
        sim.device().install_fault_plan(
            &FaultPlan::new(0).at(SimInstant::from_millis(200), FaultEvent::Slumber),
        );
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(400)).unwrap();
        let report = s.report();
        assert!(report.reservation_losses >= 1);
        assert!(report.reservations_reacquired >= 1);
        assert!(trace.len() >= 48, "expected near-full trace, got {}", trace.len());
    }

    #[test]
    fn zero_retry_budget_restores_fail_stop_skipping() {
        use kgsl::FaultPlan;

        let mut sim = quiet_sim(10);
        let cfg = SamplerConfig { retry_budget: 0, ..SamplerConfig::default_8ms() };
        // Open cleanly first: with a zero budget even `open` is fail-stop.
        let mut s = Sampler::open(sim.device(), cfg).unwrap();
        sim.device().install_fault_plan(&FaultPlan::new(2).with_transient_rates(0.3, 0.0));
        let trace = s.sample_until(&mut sim, SimInstant::from_millis(400)).unwrap();
        let report = s.report();
        // Without retries every transient costs a slot.
        assert_eq!(report.retries_spent, 0);
        assert!(report.abandoned > 0);
        assert!(trace.len() < 45, "slots must be lost without retries, got {}", trace.len());
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let sim = quiet_sim(12);
        let s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
        let base = SimDuration::from_millis(4);
        assert_eq!(
            s.jittered_backoff(base),
            s.jittered_backoff(base),
            "same state must choose the same delay"
        );
        let chosen = s.jittered_backoff(base);
        assert!(chosen >= base.mul_f64(0.75) && chosen < base.mul_f64(1.25), "delay {chosen}");
        // A different sampler seed lands on a different delay.
        let cfg = SamplerConfig { seed: 99, ..SamplerConfig::default_8ms() };
        let other = Sampler::open(sim.device(), cfg).unwrap();
        assert_ne!(s.jittered_backoff(base), other.jittered_backoff(base));
    }

    #[test]
    fn backoff_schedule_is_capped() {
        // Walk the doubling schedule the way read_resilient does and check
        // the cap binds: 0.5, 1, 2, 4, 4, 4, ... ms.
        let mut backoff = INITIAL_BACKOFF;
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
        assert_eq!(
            seen,
            vec![
                SimDuration::from_micros(500),
                SimDuration::from_millis(1),
                SimDuration::from_millis(2),
                SimDuration::from_millis(4),
                SimDuration::from_millis(4),
                SimDuration::from_millis(4),
            ]
        );
    }

    #[test]
    fn same_fault_seed_same_trace() {
        use kgsl::FaultPlan;

        let run = || {
            let mut sim = quiet_sim(11);
            sim.tap_key(SimInstant::from_millis(600), Key::Char('w'), SimDuration::from_millis(90));
            sim.device().install_fault_plan(
                &FaultPlan::new(5)
                    .with_transient_rates(0.1, 0.05)
                    .with_slumber_every(SimDuration::from_millis(700)),
            );
            let mut s = Sampler::open(sim.device(), SamplerConfig::default_8ms()).unwrap();
            let trace = s.sample_until(&mut sim, SimInstant::from_millis(1_000)).unwrap();
            (trace, s.report())
        };
        let (ta, ra) = run();
        let (tb, rb) = run();
        assert_eq!(ra, rb, "reports must be identical");
        assert_eq!(ta.len(), tb.len());
        for (a, b) in ta.iter().zip(tb.iter()) {
            assert_eq!((a.at, a.values), (b.at, b.values));
        }
    }
}
